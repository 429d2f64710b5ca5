package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
	"sqlspl/internal/telemetry"
)

// mustConfig returns the closed feature config for a preset.
func mustConfig(t *testing.T, name dialect.Name) *feature.Config {
	t.Helper()
	feats, err := dialect.Features(name)
	if err != nil {
		t.Fatal(err)
	}
	return feature.NewConfig(feats...)
}

func minimalOpts() core.Options { return core.Options{Product: "minimal"} }

// freshServer returns a server over a private catalog and registry so
// tests observe exactly their own traffic.
func freshServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = product.NewCatalog(sql2003.MustModel(), sql2003.Registry{})
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	return New(cfg)
}

// startServer starts s on a loopback port and registers a drain cleanup.
func startServer(t *testing.T, s *Server) string {
	t.Helper()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return addr
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

// checkNoGoroutineLeak polls until the goroutine count returns to within
// slack of the baseline, failing after a deadline with a full stack dump.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestParseEndpointShapes(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/v1/parse"

	t.Run("render", func(t *testing.T) {
		status, body, _ := postJSON(t, client, url, ParseRequest{
			Dialect: "core", SQL: "select a , b from t where c = 1", Want: WantRender})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.SQL != "SELECT a, b FROM t WHERE c = 1" {
			t.Errorf("render response = %+v", resp)
		}
	})
	t.Run("tree", func(t *testing.T) {
		_, body, _ := postJSON(t, client, url, ParseRequest{
			Dialect: "minimal", SQL: "SELECT a FROM t", Want: WantTree})
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.Tree == nil || resp.Tree.Label == "" {
			t.Errorf("tree response = %+v", resp)
		}
	})
	t.Run("ast", func(t *testing.T) {
		_, body, _ := postJSON(t, client, url, ParseRequest{
			Dialect: "core", SQL: "SELECT a FROM t; DELETE FROM u", Want: WantAST})
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK || len(resp.Statements) != 2 ||
			resp.Statements[0].Type != StmtSelect || resp.Statements[1].Type != StmtDelete {
			t.Errorf("ast response = %+v", resp)
		}
		if resp.Statements[0].Select == nil || resp.Statements[0].Select.From[0].Name[0] != "t" {
			t.Errorf("typed select node = %+v", resp.Statements[0].Select)
		}
		if resp.Statements[1].Delete == nil || resp.Statements[1].Delete.Table[0] != "u" {
			t.Errorf("typed delete node = %+v", resp.Statements[1].Delete)
		}
	})
	t.Run("analysis", func(t *testing.T) {
		_, body, _ := postJSON(t, client, url, ParseRequest{
			Dialect: "core", SQL: "SELECT o.total FROM orders AS o WHERE o.total > 1", Want: WantAnalysis})
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK || len(resp.Analysis) != 1 {
			t.Fatalf("analysis response = %+v", resp)
		}
		a := resp.Analysis[0]
		if a.Kind != "select" || a.Incomplete ||
			len(a.Tables) != 1 || a.Tables[0].Name != "orders" || a.Tables[0].Alias != "o" ||
			len(a.Columns) != 1 || a.Columns[0].Name != "total" || a.Columns[0].Table != "orders" {
			t.Errorf("analysis = %+v", a)
		}
	})
	t.Run("syntax-error", func(t *testing.T) {
		status, body, _ := postJSON(t, client, url, ParseRequest{
			Dialect: "minimal", SQL: "SELECT a, b FROM t"}) // multiple_columns unselected
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.OK || resp.Error == nil || resp.Error.Line != 1 || len(resp.Error.Expected) == 0 {
			t.Errorf("diagnostic = %+v", resp.Error)
		}
	})
	t.Run("features-selection", func(t *testing.T) {
		feats, err := dialect.Features(dialect.Minimal)
		if err != nil {
			t.Fatal(err)
		}
		_, body, _ := postJSON(t, client, url, ParseRequest{
			Features: feats, SQL: "SELECT a FROM t", Want: WantRender})
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK || resp.Dialect != "custom" {
			t.Errorf("features response = %+v", resp)
		}
	})
	t.Run("bad-dialect", func(t *testing.T) {
		status, _, _ := postJSON(t, client, url, ParseRequest{Dialect: "nope", SQL: "SELECT 1"})
		if status != http.StatusBadRequest {
			t.Errorf("unknown dialect status = %d, want 400", status)
		}
	})
	t.Run("bad-want", func(t *testing.T) {
		status, _, _ := postJSON(t, client, url, ParseRequest{Dialect: "core", SQL: "SELECT a FROM t", Want: "xml"})
		if status != http.StatusBadRequest {
			t.Errorf("unknown want status = %d, want 400", status)
		}
	})
}

func TestBatchEndpoint(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	status, body, _ := postJSON(t, client, "http://"+addr+"/v1/batch", BatchRequest{
		Dialect: "core",
		Queries: []string{"SELECT a FROM t", "SELECT nope FROM", "DELETE FROM u WHERE x = 1"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 2 || resp.Rejected != 1 {
		t.Errorf("batch verdicts = %d accepted, %d rejected, want 2/1", resp.Accepted, resp.Rejected)
	}
	if len(resp.Results) != 3 || resp.Results[1].OK || resp.Results[1].Error == nil {
		t.Errorf("batch results = %+v", resp.Results)
	}
	if resp.Results[0].Response != nil {
		t.Error("verdict-only batch carried full responses")
	}
}

func TestGracefulDrainCompletesInflight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := freshServer(t, Config{RequestTimeout: 30 * time.Second})
	s.testHookAdmitted = func() {
		once.Do(func() { close(admitted) })
		<-release
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// One request goes in-flight and blocks on the hook.
	reqDone := make(chan error, 1)
	go func() {
		status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
			ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t", Want: WantRender})
		if status != http.StatusOK {
			reqDone <- fmt.Errorf("in-flight request got %d: %s", status, body)
			return
		}
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil || !resp.OK {
			reqDone <- fmt.Errorf("in-flight request response %s: %v", body, err)
			return
		}
		reqDone <- nil
	}()
	<-admitted

	// Drain while the request is still in flight.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Readiness must fail during the drain (checked through the handler:
	// the listener is already closed to new connections).
	for {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code == http.StatusServiceUnavailable && strings.Contains(rec.Body.String(), "draining") {
			break
		}
		select {
		case err := <-shutdownDone:
			t.Fatalf("shutdown returned (%v) before draining was observable", err)
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Releasing the hook lets the in-flight parse complete successfully —
	// the drain waited for it.
	close(release)
	if err := <-reqDone; err != nil {
		t.Fatal(err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	client.CloseIdleConnections()
	checkNoGoroutineLeak(t, baseline)
}

func TestAdmissionRejectsAtCapacity(t *testing.T) {
	baseline := runtime.NumGoroutine()
	admitted := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := freshServer(t, Config{MaxInFlight: 1, RequestTimeout: 30 * time.Second})
	s.testHookAdmitted = func() {
		once.Do(func() { close(admitted) })
		<-release
	}
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/v1/parse"

	// Fill the single slot.
	firstDone := make(chan error, 1)
	go func() {
		status, body, _ := postJSON(t, client, url,
			ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"})
		if status != http.StatusOK {
			firstDone <- fmt.Errorf("first request got %d: %s", status, body)
			return
		}
		firstDone <- nil
	}()
	<-admitted

	// The next request is shed immediately with 429 + Retry-After.
	status, body, header := postJSON(t, client, url,
		ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"})
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated request got %d: %s", status, body)
	}
	if header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.m.rejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	// After release, capacity is back.
	status, body, _ = postJSON(t, client, url, ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"})
	if status != http.StatusOK {
		t.Fatalf("post-release request got %d: %s", status, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	checkNoGoroutineLeak(t, baseline)
}

// TestDeadlineKeepsAdmissionSlot: a parse abandoned at its deadline keeps
// its admission slot until it really finishes, so overrunning work cannot
// pile up beyond MaxInFlight.
func TestDeadlineKeepsAdmissionSlot(t *testing.T) {
	baseline := runtime.NumGoroutine()
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := freshServer(t, Config{MaxInFlight: 1, RequestTimeout: 250 * time.Millisecond})
	s.testHookParse = func() {
		once.Do(func() { close(parked) })
		<-release
	}
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/v1/parse"
	req := ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"}

	if status, body, _ := postJSON(t, client, url, req); status != http.StatusGatewayTimeout {
		t.Fatalf("parked parse got %d, want 504: %s", status, body)
	}
	<-parked
	if status, body, _ := postJSON(t, client, url, req); status != http.StatusTooManyRequests {
		t.Fatalf("request behind the abandoned parse got %d, want 429: %s", status, body)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned parse never released its admission slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, body, _ := postJSON(t, client, url, req); status != http.StatusOK {
		t.Fatalf("request after the abandoned parse finished got %d, want 200: %s", status, body)
	}
	if got := s.m.timeouts.Value(); got != 1 {
		t.Errorf("timeouts counter = %d, want 1", got)
	}
	if got := s.m.rejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	checkNoGoroutineLeak(t, baseline)
}

// TestDeadlineClosesConnection: a deadline is answered while the work is
// still parked, with a complete 504 (the deadline error body and its
// Content-Length) and Connection: close, so the same client's next request goes out on a
// fresh connection instead of queueing behind the abandoned work. The
// parked work keeps its admission slot until it returns, and its latency
// is still observed. A batch whose claimed query is parked answers the
// same way.
func TestDeadlineClosesConnection(t *testing.T) {
	const timeout = 250 * time.Millisecond
	for _, c := range []struct {
		what, path string
		body       any
		hook       func(s *Server, park func())
	}{
		{"parse", "/v1/parse", ParseRequest{Dialect: "minimal", SQL: "SELECT a FROM t"},
			func(s *Server, park func()) { s.testHookParse = park }},
		{"batch", "/v1/batch", BatchRequest{Dialect: "minimal", Queries: []string{"SELECT a FROM t"}},
			func(s *Server, park func()) { s.testHookCheck = func(string) { park() } }},
	} {
		t.Run(c.what, func(t *testing.T) {
			release := make(chan struct{})
			var parked atomic.Bool
			s := freshServer(t, Config{RequestTimeout: timeout})
			c.hook(s, func() { // parks the first request only
				if parked.CompareAndSwap(false, true) {
					<-release
				}
			})
			addr := startServer(t, s)
			// The client timeout turns a request queued behind the parked
			// work into a failure instead of a hang.
			client := &http.Client{Timeout: 10 * time.Second}
			defer client.CloseIdleConnections()
			url := "http://" + addr + c.path

			data, err := json.Marshal(c.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Post(url, "application/json", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("parked %s got %d, want 504: %s", c.what, resp.StatusCode, body)
			}
			if want := fmt.Sprintf(`{"error":"%s exceeded deadline %s"}`+"\n", c.what, timeout); string(body) != want {
				t.Errorf("504 body = %q, want %q", body, want)
			}
			if resp.ContentLength != int64(len(body)) {
				t.Errorf("504 Content-Length = %d, body has %d bytes", resp.ContentLength, len(body))
			}
			if !resp.Close {
				t.Error("504 does not carry Connection: close")
			}
			if got := s.m.inflight.Value(); got != 1 {
				t.Errorf("in flight after the 504 = %d, want 1 (the parked work)", got)
			}

			if status, body, _ := postJSON(t, client, url, c.body); status != http.StatusOK {
				t.Fatalf("next request while the first is parked got %d, want 200: %s", status, body)
			}
			close(release)
			deadline := time.Now().Add(5 * time.Second)
			for s.m.inflight.Value() != 0 {
				if time.Now().After(deadline) {
					t.Fatal("parked work never released its admission slot")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if got := s.m.timeouts.Value(); got != 1 {
				t.Errorf("timeouts counter = %d, want 1", got)
			}
			if got := s.m.latency.Count(); got != 2 {
				t.Errorf("latency observations = %d, want 2 (the parked work included)", got)
			}
		})
	}
}

// TestClientGoneIsNotATimeout: a client that goes away mid-parse is not a
// deadline timeout. It gets no 504 and is not counted in
// sqlserved_timeouts_total; the parse runs to the end and frees its slot.
func TestClientGoneIsNotATimeout(t *testing.T) {
	parked := make(chan struct{})
	release := make(chan struct{})
	s := freshServer(t, Config{RequestTimeout: 30 * time.Second})
	s.testHookParse = func() {
		close(parked)
		<-release
	}
	reqCtx := make(chan context.Context, 1)
	handled := make(chan struct{})
	var status int
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqCtx <- r.Context()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		status = sw.status
		close(handled)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/parse",
		strings.NewReader(`{"dialect":"minimal","sql":"SELECT a FROM t"}`))
	if err != nil {
		t.Fatal(err)
	}
	answered := make(chan bool, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		answered <- err == nil
	}()
	rctx := <-reqCtx
	<-parked
	cancel()
	if <-answered {
		t.Fatal("the cancelled request was answered")
	}
	<-rctx.Done() // the server has seen the client go
	close(release)
	<-handled
	if status == http.StatusGatewayTimeout {
		t.Error("answered 504 to a client that went away")
	}
	if got := s.m.timeouts.Value(); got != 0 {
		t.Errorf("timeouts counter = %d after the client went away, want 0", got)
	}
	if got := s.m.inflight.Value(); got != 0 {
		t.Errorf("in flight after the parse returned = %d, want 0", got)
	}
}

// statusWriter records the status a handler writes. Unwrap lets
// http.ResponseController reach the connection beneath it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// goroutineID returns the calling goroutine's ID, read from the
// "goroutine N [running]:" header of its stack trace.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestServeRunsOnRequestGoroutine: parse and batch work run on the
// goroutine net/http serves the request on, whose stack is already
// grown, not on a goroutine started per request.
func TestServeRunsOnRequestGoroutine(t *testing.T) {
	s := freshServer(t, Config{BatchWorkers: 1})
	var admittedOn, workedOn string
	s.testHookAdmitted = func() { admittedOn = goroutineID() }
	s.testHookParse = func() { workedOn = goroutineID() }
	s.testHookCheck = func(string) { workedOn = goroutineID() }
	for _, c := range []struct{ path, body string }{
		{"/v1/parse", `{"dialect":"minimal","sql":"SELECT a FROM t","want":"tree"}`},
		{"/v1/batch", `{"dialect":"minimal","queries":["SELECT a FROM t"]}`},
	} {
		admittedOn, workedOn = "", ""
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, rec.Code, rec.Body)
		}
		if admittedOn == "" || workedOn != admittedOn {
			t.Errorf("%s: work ran on goroutine %q, the request was admitted on %q", c.path, workedOn, admittedOn)
		}
	}
}

// TestResolveAllocationBudget: resolving a built preset by name is one
// catalog map probe through the preset table — no feature-list copy, no
// config map, no fingerprint hashing.
func TestResolveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := freshServer(t, Config{})
	for _, name := range dialect.Names() {
		if _, _, _, err := s.resolve(string(name), nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, _, err := s.resolve(string(name), nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: resolve allocates %.2f allocs/op, want 0", name, allocs)
		}
	}
}

func TestConcurrentDistinctDialectsCoalesce(t *testing.T) {
	s := freshServer(t, Config{MaxInFlight: 64, RequestTimeout: 60 * time.Second})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/v1/parse"

	dialects := []string{"minimal", "tinysql", "scql"}
	queries := map[string]string{
		"minimal": "SELECT a FROM t",
		"tinysql": "SELECT nodeid FROM sensors SAMPLE PERIOD 1024",
		"scql":    "DELETE FROM purses WHERE id = 3",
	}
	const perDialect = 8
	errs := make(chan error, perDialect*len(dialects))
	var wg sync.WaitGroup
	for _, d := range dialects {
		for i := 0; i < perDialect; i++ {
			wg.Add(1)
			go func(d string) {
				defer wg.Done()
				status, body, _ := postJSON(t, client, url,
					ParseRequest{Dialect: d, SQL: queries[d], Want: WantRender})
				var resp ParseResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					errs <- err
					return
				}
				if status != http.StatusOK || !resp.OK {
					errs <- fmt.Errorf("%s: status %d, resp %s", d, status, body)
					return
				}
				errs <- nil
			}(d)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every dialect was requested 8× concurrently against a cold catalog,
	// but each product was built exactly once: the rest of the requests hit
	// the cache or coalesced onto the in-flight build.
	st := s.Catalog().Stats()
	if st.Misses != uint64(len(dialects)) {
		t.Errorf("misses = %d, want %d (one build per distinct dialect)", st.Misses, len(dialects))
	}
	total := uint64(perDialect * len(dialects))
	if st.Hits+st.Misses+st.Shared != total {
		t.Errorf("hits(%d)+misses(%d)+shared(%d) != %d requests", st.Hits, st.Misses, st.Shared, total)
	}
	if st.Entries != len(dialects) || st.InFlight != 0 {
		t.Errorf("entries = %d, inflight = %d, want %d and 0", st.Entries, st.InFlight, len(dialects))
	}
}

func TestMetricsEndpointFormats(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// The engine and parser counters are process-wide, so they are
	// asserted as deltas over this test's own requests.
	genParses := engine.HotCounters().GenParses
	if status, _, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Dialect: "core", SQL: "SELECT a FROM t"}); status != http.StatusOK {
		t.Fatalf("parse failed with %d", status)
	}

	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"sqlserved_parse_requests_total 1",
		`sqlserved_dialect_requests_total{dialect="core"} 1`,
		"sqlserved_parse_latency_seconds_count 1",
		"sqlspl_product_cache_misses_total 1",
		"# TYPE sqlserved_parse_latency_seconds histogram",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	snap := metricsJSON(t, client, addr)
	if m := snap.Find("sqlserved_parse_latency_seconds"); m == nil || m.Count != 1 {
		t.Errorf("json latency metric = %+v, want count 1", m)
	}
	// A preset request is served by its generated engine.
	if m := snap.Find("sqlspl_engine_generated_parses_total"); m == nil || m.Value != float64(genParses+1) {
		t.Errorf("json generated-parse counter = %+v, want %d", m, genParses+1)
	}

	// An explicit feature selection is served by the interpreter, whose
	// parses the seam counts under its own kind.
	parses := engine.HotCounters().InterpParses
	if status, body, _ := postJSON(t, client, "http://"+addr+"/v1/parse",
		ParseRequest{Features: mustConfig(t, dialect.Minimal).Names(), SQL: "SELECT a FROM t"}); status != http.StatusOK {
		t.Fatalf("custom-features parse = %d: %s", status, body)
	}
	snap = metricsJSON(t, client, addr)
	if m := snap.Find("sqlspl_engine_interpreted_parses_total"); m == nil || m.Value != float64(parses+1) {
		t.Errorf("json interpreted-parse counter = %+v, want %d", m, parses+1)
	}
}

// metricsJSON fetches the server's metrics as a JSON snapshot.
func metricsJSON(t *testing.T, client *http.Client, addr string) telemetry.Snapshot {
	t.Helper()
	resp, err := client.Get("http://" + addr + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestReadyzLifecycle(t *testing.T) {
	s := freshServer(t, Config{Warm: []dialect.Name{dialect.Minimal}})
	// Before Start: not ready.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("pre-start readyz = %d, want 503", rec.Code)
	}
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// Warm built the preset before readiness.
	if _, _, ok := s.Catalog().LookupSelection(product.NewSelection(mustConfig(t, dialect.Minimal), minimalOpts())); !ok {
		t.Error("warm did not populate the catalog before readiness")
	}
	resp, err := client.Get("http://" + addr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz = %d, want 200", resp.StatusCode)
	}
	resp, err = client.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}

	// Dialects listing marks the warmed preset as built.
	resp, err = client.Get("http://" + addr + "/v1/dialects")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []DialectInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	byName := map[string]DialectInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	if !byName["minimal"].Built || byName["warehouse"].Built {
		t.Errorf("built flags wrong: %+v", byName)
	}
}

// TestWrongMethod405: each route's method pattern answers a wrong method
// with the mux's 405 and an Allow header naming the right one, before any
// handler, admission or counter runs.
func TestWrongMethod405(t *testing.T) {
	s := freshServer(t, Config{})
	h := s.Handler()
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/v1/parse", "POST"},
		{http.MethodGet, "/v1/batch", "POST"},
		{http.MethodGet, "/v1/format", "POST"},
		{http.MethodGet, "/v1/stream", "POST"},
		{http.MethodPut, "/v1/configure", "POST"},
		{http.MethodPost, "/v1/dialects", "GET, HEAD"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}
	if n := s.m.badRequests.Value() + s.m.rejected.Value(); n != 0 {
		t.Errorf("wrong-method requests reached a handler: %d counted", n)
	}
}
