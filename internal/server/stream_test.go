package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/parser"
	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
)

// postStream posts raw SQL to /v1/stream and decodes the NDJSON response
// into the per-statement records and the trailing summary. The body is
// sent with chunked encoding (length unknown), like a real streaming
// client: this is the shape that requires the handler's full-duplex mode —
// without it the HTTP/1 server silently discards the body past 256 KiB
// once the first response bytes go out.
func postStream(t *testing.T, client *http.Client, url, sql string) ([]StreamResult, StreamSummary, int) {
	t.Helper()
	resp, err := client.Post(url, "application/sql", struct{ io.Reader }{strings.NewReader(sql)})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, StreamSummary{}, resp.StatusCode
	}
	var (
		results []StreamResult
		sum     StreamSummary
		sawSum  bool
	)
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		if sawSum {
			t.Fatal("summary line was not the last NDJSON record")
		}
		// Records and the summary share no required fields, so sniff via a
		// raw message: the summary is the only line with "summary":true.
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		var probe struct {
			Summary bool `json:"summary"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatal(err)
		}
		if probe.Summary {
			if err := json.Unmarshal(raw, &sum); err != nil {
				t.Fatal(err)
			}
			sawSum = true
			continue
		}
		var rec StreamResult
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		results = append(results, rec)
	}
	if !sawSum {
		t.Fatal("stream response carried no summary trailer")
	}
	return results, sum, resp.StatusCode
}

// TestStreamEndpointEquivalence is the endpoint's core contract: the
// concatenated streamed diagnostics are byte-identical (as wire JSON) to
// a whole-script Diagnose over the same engine, including span positions
// relocated to script coordinates and the recovery pass's hints.
func TestStreamEndpointEquivalence(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	sql := "SELECT a FROM t;\n" + // accepted
		"SELECT nope FROM;\n" + // parse error, later statements follow
		"-- note\nSELECT b FROM u;\n" + // accepted, leading trivia
		"SELECT @ x;\n" + // lexical error, resynchronized at the ';'
		"DELETE FROM" // final parse error, no trailing ';'

	results, sum, status := postStream(t, client, "http://"+addr+"/v1/stream?dialect=core", sql)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sum.Statements != 5 || sum.Accepted != 2 || sum.Rejected != 3 || sum.Error != "" {
		t.Fatalf("summary = %+v, want 5 statements, 2 accepted, 3 rejected", sum)
	}
	if sum.Dialect != "core" {
		t.Errorf("summary dialect = %q", sum.Dialect)
	}

	// The records partition the script: contiguous spans, increasing seq.
	off := 0
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Off != off {
			t.Fatalf("record %d starts at %d, want %d (spans must be contiguous)", i, r.Off, off)
		}
		off += r.Bytes
	}
	if off != len(sql) {
		t.Fatalf("spans cover %d bytes of %d", off, len(sql))
	}

	// Byte-for-byte diagnostic equivalence with the non-streaming view.
	_, eng, _, err := s.resolve("core", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := EncodeDiagnostics(eng.Diagnose(sql))
	var got []*Diagnostic
	for _, r := range results {
		got = append(got, r.Diagnostics...)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("streamed diagnostics differ from whole-script Diagnose:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	// Spot-check the relocation-sensitive hints: the mid-script parse
	// failure is marked skipped, the lexical error carries the resync hint,
	// and the final failure has no skip hint.
	if h := results[1].Diagnostics[0].Hint; h != "statement skipped" {
		t.Errorf("mid-script failure hint = %q", h)
	}
	if h := results[3].Diagnostics[0].Hint; h != "rescanning after the next ';'" {
		t.Errorf("lexical failure hint = %q", h)
	}
	if h := results[4].Diagnostics[0].Hint; h != "" {
		t.Errorf("final failure hint = %q, want none", h)
	}
}

// TestStreamBodyLargerThanParseBodyCap proves the point of the endpoint:
// a body far over MaxBodyBytes streams through statement by statement, as
// long as no single statement exceeds that cap.
func TestStreamBodyLargerThanParseBodyCap(t *testing.T) {
	s := freshServer(t, Config{MaxBodyBytes: 16 << 10})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	var b strings.Builder
	n := 0
	for b.Len() < 1<<20 {
		fmt.Fprintf(&b, "SELECT c%d FROM t%d;\n", n%257, n%257)
		n++
	}
	// Trim the trailing newline: a trivia-only tail is (by design) not a
	// statement and would not appear in the records.
	sql := strings.TrimSuffix(b.String(), "\n")
	results, sum, status := postStream(t, client, "http://"+addr+"/v1/stream?dialect=core", sql)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sum.Statements != n || sum.Rejected != 0 || sum.Error != "" {
		t.Fatalf("summary = %+v, want %d accepted statements", sum, n)
	}
	total := 0
	for _, r := range results {
		total += r.Bytes
	}
	if total != len(sql) {
		t.Fatalf("spans cover %d of %d bytes", total, len(sql))
	}
}

// An oversized single statement must abort cleanly with the error in the
// summary trailer, not buffer without bound.
func TestStreamOversizedStatementAborts(t *testing.T) {
	s := freshServer(t, Config{MaxBodyBytes: 4 << 10})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// The statement must outgrow the scanner's read chunk (64 KiB) for the
	// buffering bound to engage: MaxStatement is a cap on buffering, and
	// nothing that fits in one chunk ever buffers beyond it.
	sql := "SELECT a FROM t;\nSELECT '" + strings.Repeat("x", 128<<10) + "' FROM t;\n"
	results, sum, status := postStream(t, client, "http://"+addr+"/v1/stream?dialect=core", sql)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if sum.Error == "" || !strings.Contains(sum.Error, "statement exceeds") {
		t.Fatalf("summary error = %q, want statement-too-large", sum.Error)
	}
	// The first, well-sized statement was still answered before the abort.
	if len(results) != 1 || !results[0].OK {
		t.Fatalf("results before abort = %+v", results)
	}
}

// logBuffer is an io.Writer safe for the server's connection goroutines
// to log into while a test reads it.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStreamAbortLeavesNoPanic: a stream aborted on an oversized statement
// returns with most of its body unread. Unless the handler closes the body
// itself, net/http's keep-alive machinery drains it while a read it
// started on hitting EOF is still pending, and the connection goroutine
// panics with "invalid concurrent Body.Read call" (recovered, and logged
// as "http: panic serving"). Repeated on one client so the later requests
// meet the connection state the earlier ones left.
func TestStreamAbortLeavesNoPanic(t *testing.T) {
	s := freshServer(t, Config{MaxBodyBytes: 4 << 10})
	var logs logBuffer
	s.hs.ErrorLog = log.New(&logs, "", 0)
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	sql := "SELECT a FROM t;\nSELECT '" + strings.Repeat("x", 128<<10) + "' FROM t;\n" +
		strings.Repeat("SELECT b FROM u;\n", 8<<10)
	for i := 0; i < 4; i++ {
		_, sum, status := postStream(t, client, "http://"+addr+"/v1/stream?dialect=core", sql)
		if status != http.StatusOK || !strings.Contains(sum.Error, "statement exceeds") {
			t.Fatalf("request %d: status %d, summary error %q", i, status, sum.Error)
		}
		// A plain request after the abort must be served normally.
		if status, _, _ := postJSON(t, client, "http://"+addr+"/v1/parse", map[string]string{"dialect": "core", "sql": "SELECT a FROM t"}); status != http.StatusOK {
			t.Fatalf("request %d: parse after an aborted stream answered %d", i, status)
		}
	}
	client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if l := logs.String(); strings.Contains(l, "panic serving") {
		t.Fatalf("server logged a panic:\n%s", l)
	}
}

func TestStreamRequestErrors(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + addr + "/v1/stream"

	if resp, err := client.Get(base + "?dialect=core"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET status = %d, want 405", resp.StatusCode)
		}
	}
	for _, query := range []string{"", "?dialect=nope", "?dialect=core&features=select_statement"} {
		resp, err := client.Post(base+query, "application/sql", strings.NewReader("SELECT a FROM t"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q status = %d, want 400", query, resp.StatusCode)
		}
	}
}

// TestStreamAdmitsBeforeResolving: a saturated server sheds a stream with
// an unseen selection before resolving it, so the selection's build never
// runs outside admission control.
func TestStreamAdmitsBeforeResolving(t *testing.T) {
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

	// A parked parse holds the only slot.
	firstDone := make(chan error, 1)
	go func() {
		resp, err := client.Post("http://"+addr+"/v1/parse", "application/json",
			strings.NewReader(`{"dialect":"minimal","sql":"SELECT a FROM t"}`))
		if err != nil {
			firstDone <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			firstDone <- fmt.Errorf("parked parse got %d", resp.StatusCode)
			return
		}
		firstDone <- nil
	}()
	<-admitted

	before := s.Catalog().Stats()
	features := strings.Join(mustConfig(t, dialect.TinySQL).Names(), ",")
	if _, _, status := postStream(t, client, "http://"+addr+"/v1/stream?features="+features, "SELECT a FROM t;"); status != http.StatusTooManyRequests {
		t.Errorf("stream at capacity got %d, want 429", status)
	}
	if after := s.Catalog().Stats(); after.Misses != before.Misses {
		t.Errorf("shed stream built its selection: misses %d -> %d", before.Misses, after.Misses)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
}

// TestVerdictPathsShareTheCache covers the serving-side cache wiring:
// verdict-shaped parse, batch and stream requests for the same statement
// bytes hit one shared entry, and the counters surface on /metrics.
func TestVerdictPathsShareTheCache(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	const q = "SELECT a FROM t"
	parseURL := "http://" + addr + "/v1/parse"
	for i := 0; i < 2; i++ {
		status, body, _ := postJSON(t, client, parseURL, ParseRequest{Dialect: "core", SQL: q, Want: WantVerdict})
		if status != http.StatusOK {
			t.Fatalf("parse status %d: %s", status, body)
		}
	}
	st := s.vcache.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("after two verdict parses: %+v, want 1 miss + 1 hit", st)
	}

	// Batch (verdict default) and stream reuse the same entry.
	if status, body, _ := postJSON(t, client, "http://"+addr+"/v1/batch",
		BatchRequest{Dialect: "core", Queries: []string{q}}); status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	// The streamed statement's Text includes the trailing ';', so send the
	// bare statement to share bytes with the parse requests above.
	if _, sum, _ := postStream(t, client, "http://"+addr+"/v1/stream?dialect=core", q); sum.Accepted != 1 {
		t.Fatalf("stream summary = %+v", sum)
	}
	st = s.vcache.Stats()
	if st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("after batch+stream: %+v, want 1 miss + 3 hits", st)
	}

	// A tree-shaped parse must not consult the cache.
	if status, _, _ := postJSON(t, client, parseURL, ParseRequest{Dialect: "core", SQL: q, Want: WantTree}); status != http.StatusOK {
		t.Fatal("tree parse failed")
	}
	if st2 := s.vcache.Stats(); st2 != st {
		t.Fatalf("tree-shaped parse touched the verdict cache: %+v -> %+v", st, st2)
	}

	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, name := range []string{
		"sqlspl_verdict_cache_hits_total 3",
		"sqlspl_verdict_cache_misses_total 1",
		"sqlspl_configure_cache_hits_total",
		"sqlserved_stream_requests_total 1",
		"sqlserved_stream_statements_total 1",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

// TestVerdictCacheNotPoisonable: the verdict cache is shared by every
// client and keys a statement by its length and hash, never its text. The
// two statements below are 16 bytes each with equal unseeded 64-bit
// xxHash sums, so a predictable hash would let the invalid one, posted
// first, answer for the valid one.
func TestVerdictCacheNotPoisonable(t *testing.T) {
	s := freshServer(t, Config{})
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()

	parseURL := "http://" + addr + "/v1/parse"
	for _, c := range []struct {
		sql string
		ok  bool
	}{
		{"SELECTc$g+z7E>oX", false},
		{"SELECT a FROM tt", true},
	} {
		status, body, _ := postJSON(t, client, parseURL, ParseRequest{Dialect: "core", SQL: c.sql, Want: WantVerdict})
		if status != http.StatusOK {
			t.Fatalf("%q: status %d: %s", c.sql, status, body)
		}
		var resp ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.OK != c.ok {
			t.Fatalf("%q answered ok:%t, want ok:%t: %s", c.sql, resp.OK, c.ok, body)
		}
	}
}

// TestStreamPanicContained: the stream's statement workers run outside
// the recovery middleware. A panic while checking one statement answers
// that record with an internal-error diagnostic and is counted; the rest
// of the stream, and the next request, are served normally.
func TestStreamPanicContained(t *testing.T) {
	s := freshServer(t, Config{BatchWorkers: 4})
	s.testHookCheck = func(text string) {
		if strings.Contains(text, "boom") {
			panic("injected statement panic")
		}
	}
	addr := startServer(t, s)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/v1/stream?dialect=core"

	const n, bad = 200, 57
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i == bad {
			b.WriteString("SELECT boom FROM t;\n")
		} else {
			fmt.Fprintf(&b, "SELECT c%d FROM t;\n", i)
		}
	}
	results, sum, status := postStream(t, client, url, b.String())
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(results) != n || sum.Statements != n || sum.Accepted != n-1 || sum.Rejected != 1 || sum.Error != "" {
		t.Fatalf("%d records, summary %+v; want %d records, one rejected", len(results), sum, n)
	}
	for i, r := range results {
		if i == bad {
			if r.OK || len(r.Diagnostics) != 1 || !strings.Contains(r.Diagnostics[0].Message, "internal error") {
				t.Errorf("panicked statement's record = %+v, want one internal-error diagnostic", r)
			}
		} else if !r.OK {
			t.Errorf("record %d rejected: %+v", i, r.Diagnostics)
		}
	}
	if got := s.m.panics.Value(); got != 1 {
		t.Errorf("parse_panics_total = %d, want 1", got)
	}

	if _, sum, status := postStream(t, client, url, "SELECT a FROM t;\nSELECT b FROM u;\n"); status != http.StatusOK || sum.Accepted != 2 {
		t.Fatalf("request after the panic: status %d, summary %+v", status, sum)
	}
}

// streamScaleScript builds a script of n statements mixing accepted
// statements, parse errors, lexical errors and statements repeated byte
// for byte (a newline before each statement makes repeats identical,
// leading trivia included), ending with a failing statement without ';'.
func streamScaleScript(n int) string {
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		if i > 0 {
			b.WriteString("\n")
		}
		switch {
		case i%10 == 3:
			b.WriteString("SELECT nope FROM;")
		case i%10 == 6:
			fmt.Fprintf(&b, "SELECT @ x%d;", i%13)
		case i%10 == 8:
			fmt.Fprintf(&b, "SELECT a, b FROM t WHERE c = %d;", i%7)
		case i%50 == 49:
			fmt.Fprintf(&b, "-- row %d\nSELECT a\n  FROM t%d;", i, i)
		default:
			fmt.Fprintf(&b, "SELECT c%d FROM t%d WHERE d < %d;", i, i%31, i)
		}
	}
	b.WriteString("\nDELETE FROM")
	return b.String()
}

var elapsedField = regexp.MustCompile(`"elapsed_us":\d+`)

// TestStreamWorkerCountInvariance pins order and equivalence at scale:
// the NDJSON body is byte-identical for any worker count apart from
// elapsed_us, the concatenated diagnostics equal an uncapped whole-script
// Diagnose, and every statement counts exactly one verdict-cache lookup.
func TestStreamWorkerCountInvariance(t *testing.T) {
	const n = 3000
	script := streamScaleScript(n)
	cat := product.NewCatalog(sql2003.MustModel(), sql2003.Registry{})

	// The reference: one recovery pass over the whole script, without the
	// 20-diagnostic cap the stream does not apply.
	ref, err := cat.Get(mustConfig(t, dialect.Core), core.Options{Product: "core", Parser: parser.Options{MaxDiagnostics: 2 * n}})
	if err != nil {
		t.Fatal(err)
	}
	wantDiags, _ := json.Marshal(EncodeDiagnostics(ref.Diagnose(script)))

	var first []byte
	for _, workers := range []int{1, 2, 8} {
		s := freshServer(t, Config{Catalog: cat, BatchWorkers: workers})
		addr := startServer(t, s)
		client := &http.Client{}
		resp, err := client.Post("http://"+addr+"/v1/stream?dialect=core", "application/sql", struct{ io.Reader }{strings.NewReader(script)})
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		client.CloseIdleConnections()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d, %v", workers, resp.StatusCode, err)
		}
		body = elapsedField.ReplaceAll(body, nil)
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("workers=%d: NDJSON body differs from workers=1", workers)
		}

		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		if len(lines) != n+1 {
			t.Fatalf("workers=%d: %d NDJSON lines, want %d records and a summary", workers, len(lines), n)
		}
		var got []*Diagnostic
		off := 0
		for i, line := range lines[:n] {
			var rec StreamResult
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Seq != i || rec.Off != off {
				t.Fatalf("workers=%d: record %d has seq %d at offset %d, want offset %d", workers, i, rec.Seq, rec.Off, off)
			}
			off += rec.Bytes
			got = append(got, rec.Diagnostics...)
		}
		if off != len(script) {
			t.Fatalf("workers=%d: records cover %d of %d bytes", workers, off, len(script))
		}
		gotDiags, _ := json.Marshal(got)
		if !bytes.Equal(gotDiags, wantDiags) {
			t.Fatalf("workers=%d: streamed diagnostics differ from whole-script Diagnose", workers)
		}
		if st := s.vcache.Stats(); st.Hits+st.Misses+st.Shared != n {
			t.Errorf("workers=%d: verdict cache %+v counts %d lookups, want one per statement (%d)",
				workers, st, st.Hits+st.Misses+st.Shared, n)
		}
	}
}

// TestStreamClientDisconnectNoLeak: a client that disconnects mid-body
// ends the stream, its admission slot comes back, and the handler leaves
// no goroutine behind, the pipeline's workers included.
func TestStreamClientDisconnectNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := freshServer(t, Config{BatchWorkers: 4})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/stream?dialect=core", pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; ; i++ {
			if _, err := fmt.Fprintf(pw, "SELECT c%d FROM t WHERE d = %d;\n", i, i); err != nil {
				return
			}
		}
	}()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Records arrive while the body is still being sent: the stream is
	// mid-body when the client goes away.
	if _, err := io.ReadFull(resp.Body, make([]byte, 64<<10)); err != nil {
		t.Fatalf("reading the first records: %v", err)
	}
	cancel()
	resp.Body.Close()
	pw.CloseWithError(io.ErrClosedPipe)

	deadline := time.Now().Add(5 * time.Second)
	for s.m.inflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected stream never released its admission slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := s.Shutdown(shutdownCtx); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	checkNoGoroutineLeak(t, baseline)
}
