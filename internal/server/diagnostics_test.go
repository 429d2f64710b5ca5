package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sqlspl/internal/compose"
	"sqlspl/internal/dialect"
	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
)

// errScript has exactly 3 independent syntax errors across 5 statements
// (statements 2, 4 and 5); statements 1 and 3 are valid core SQL.
const errScript = "SELECT a FROM t ;\n" + // 1: ok
	"SELECT FROM t ;\n" + // 2: missing select list at 2:8
	"SELECT b FROM u ;\n" + // 3: ok
	"DELETE t ;\n" + // 4: missing FROM at 4:8
	"UPDATE t SET" // 5: incomplete at 5:13 (end of input)

// wantErrPositions are the line:col of each diagnostic in errScript.
var wantErrPositions = [][2]int{{2, 8}, {4, 8}, {5, 13}}

func checkErrScriptDiagnostics(t *testing.T, diags []*Diagnostic) {
	t.Helper()
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3: %+v", len(diags), diags)
	}
	for i, d := range diags {
		if d.Line != wantErrPositions[i][0] || d.Col != wantErrPositions[i][1] {
			t.Errorf("diagnostic %d at %d:%d, want %d:%d (%s)",
				i, d.Line, d.Col, wantErrPositions[i][0], wantErrPositions[i][1], d.Message)
		}
		if d.Message == "" {
			t.Errorf("diagnostic %d has no message", i)
		}
		if i > 0 && d.Off < diags[i-1].End {
			t.Errorf("diagnostic %d span overlaps previous", i)
		}
	}
}

// Acceptance: a script with 3 independent syntax errors across 5
// statements yields exactly 3 diagnostics with correct line:col over
// POST /v1/parse, while the legacy error field stays populated.
func TestParseEndpointDiagnostics(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}

	status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Dialect: "core", SQL: errScript, Want: WantVerdict})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp ParseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("response OK for a script with errors")
	}
	if resp.Error == nil || resp.Error.Message == "" {
		t.Error("legacy error field must stay populated for compatibility")
	}
	checkErrScriptDiagnostics(t, resp.Diagnostics)

	// The same script through /v1/batch carries per-item diagnostics.
	status, body, _ = postJSON(t, client, "http://"+addr+"/v1/batch",
		BatchRequest{Dialect: "core", Queries: []string{"SELECT a FROM t", errScript}})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d: %s", status, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || !batch.Results[0].OK || batch.Results[1].OK {
		t.Fatalf("batch verdicts = %+v, want [ok, reject]", batch.Results)
	}
	if len(batch.Results[0].Diagnostics) != 0 {
		t.Errorf("clean query carries diagnostics: %+v", batch.Results[0].Diagnostics)
	}
	checkErrScriptDiagnostics(t, batch.Results[1].Diagnostics)
}

// Satellite: parsing the empty string is a well-formed "no statements"
// response, not a synthetic error.
func TestParseEndpointEmptyInput(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}

	for _, want := range []string{WantVerdict, WantTree, WantAST, WantRender, WantAnalysis} {
		status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
			ParseRequest{Dialect: "core", SQL: "", Want: want})
		if status != http.StatusOK {
			t.Fatalf("want=%s: status = %d: %s", want, status, body)
		}
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("want=%s: %v", want, err)
		}
		if !resp.OK {
			t.Errorf("want=%s: OK=false for empty input: %+v", want, resp.Error)
		}
		if resp.Error != nil || len(resp.Diagnostics) != 0 {
			t.Errorf("want=%s: empty input produced diagnostics: %+v %+v", want, resp.Error, resp.Diagnostics)
		}
		if len(resp.Statements) != 0 {
			t.Errorf("want=%s: empty input produced statements", want)
		}
	}
}

// Acceptance: a panic injected into the parse work answers 500 with the
// work's internal-error body, increments parse_panics_total, and the
// daemon keeps serving.
func TestParsePanicRecovered(t *testing.T) {
	s := freshServer(t, Config{})
	panicking := true
	s.testHookParse = func() {
		if panicking {
			panic("injected parse panic")
		}
	}
	addr := startServer(t, s)
	client := &http.Client{}

	status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"})
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", status, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Errorf("body %q lacks internal-error marker", body)
	}
	if got := s.m.panics.Value(); got != 1 {
		t.Errorf("parse_panics_total = %d, want 1", got)
	}

	// The daemon survived: the same request without the panic succeeds.
	panicking = false
	status, body, _ = postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"})
	if status != http.StatusOK {
		t.Fatalf("post-panic status = %d (%s), want 200", status, body)
	}
	var resp ParseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Errorf("post-panic parse not OK: %+v", resp.Error)
	}

	// The counter is also visible on the exported surface.
	mResp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	metrics, err := io.ReadAll(mResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "sqlserved_parse_panics_total 1") {
		t.Error("metrics output lacks sqlserved_parse_panics_total 1")
	}
}

// A panic in the handler itself (before the parse work) is caught by
// the recovery middleware: 500, counted, connection and daemon intact.
func TestHandlerPanicMiddleware(t *testing.T) {
	s := freshServer(t, Config{})
	s.testHookAdmitted = func() { panic("injected handler panic") }
	addr := startServer(t, s)
	client := &http.Client{}

	status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"})
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d (%s), want 500", status, body)
	}
	if got := s.m.panics.Value(); got != 1 {
		t.Errorf("parse_panics_total = %d, want 1", got)
	}
	s.testHookAdmitted = nil
	if status, _, _ = postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"}); status != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200", status)
	}
}

// panicSource is a unit source whose Unit panics, so any build that gets
// past validation panics inside the catalog.
type panicSource struct{}

func (panicSource) Unit(string) (compose.Unit, error) { panic("unit source failure") }

// A build that panics answers 500 and leaves nothing wedged: a second
// request for the same selection answers 500 as well instead of blocking
// on the failed build while it holds an admission slot.
func TestPanickingBuildAnswers500(t *testing.T) {
	s := freshServer(t, Config{Catalog: product.NewCatalog(sql2003.MustModel(), panicSource{})})
	feats, err := dialect.Features(dialect.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ParseRequest{Features: feats, SQL: "SELECT a FROM t"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		answered := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/parse", bytes.NewReader(body)))
			answered <- rec.Code
		}()
		select {
		case code := <-answered:
			if code != http.StatusInternalServerError {
				t.Errorf("request %d answered %d, want 500", i, code)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d still blocked on the panicked build", i)
		}
	}
	if got := s.m.panics.Value(); got != 2 {
		t.Errorf("parse_panics_total = %d, want 2", got)
	}
	if got := s.m.inflight.Value(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"sqlserved_parse_panics_total 2\n", "sqlserved_inflight 0\n"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}
}

// A panic in a batch worker poisons only its own result slot: the worker,
// the batch and the daemon survive, and the panic is counted.
func TestBatchPanicPoisonsOneResult(t *testing.T) {
	s := freshServer(t, Config{})
	results := make([]BatchResult, 1)
	// A nil product makes Outcome panic — the worker-level recover must
	// turn that into a failed result, not a dead goroutine.
	s.batchOne(nil, &BatchRequest{Queries: []string{"SELECT a FROM t"}}, results, 0)
	if results[0].OK {
		t.Error("panicked query reported OK")
	}
	if results[0].Error == nil || !strings.Contains(results[0].Error.Message, "internal error") {
		t.Errorf("result error = %+v, want internal-error diagnostic", results[0].Error)
	}
	if got := s.m.panics.Value(); got != 1 {
		t.Errorf("parse_panics_total = %d, want 1", got)
	}
}
