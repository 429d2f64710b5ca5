package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"sqlspl/internal/analyze"
	"sqlspl/internal/ast"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
	"sqlspl/internal/lexer"
	"sqlspl/internal/parser"
	"sqlspl/internal/product"
	"sqlspl/internal/server"
	"sqlspl/internal/sql2003"
	"sqlspl/internal/stream"
)

const (
	// spanLimit bounds how many measured requests have their spans written
	// to the span file; every request still feeds the aggregates.
	spanLimit = 2000
	// hitReps is how many verdict-cache hits one timing covers: a single
	// hit is close to the clock's own cost.
	hitReps = 32
	// buildReps is how many times each product is built for core.build_ms;
	// the median counts.
	buildReps = 3
)

// span is one timed call, as written to the span file. A replayed span was
// timed by a direct call into its module, made after the request was
// answered, over the same input: it stands for the share of its parent
// handler span that the call accounts for. Calls > 1 marks an aggregate
// of per-statement calls (start is the first call's start, end is start
// plus their summed durations).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
	Replay bool   `json:"replay,omitempty"`
}

// part is one layer's time within one request.
type part struct {
	name   string
	start  time.Time
	ns     int64
	calls  int
	inPool bool // batch: runs inside the worker pool, whose wall time is its own part
}

// stat is the per-call total of one layer across the run.
type stat struct{ ns, calls int64 }

// kindTotals is the waterfall of one request kind.
type kindTotals struct {
	requests  int64
	clientNS  int64
	handlerNS int64
	parts     map[string]int64
	order     []string
}

func (k *kindTotals) add(name string, ns int64) {
	if _, ok := k.parts[name]; !ok {
		k.order = append(k.order, name)
	}
	k.parts[name] += ns
}

// tracer times an in-process server from outside: a middleware records
// each handler span, and every measured request is replayed part by part
// through the modules' public functions.
type tracer struct {
	t0      time.Time
	cat     *product.Catalog
	hot     *product.VerdictCache // primed with the hot set, for hit timings
	handled chan [2]time.Time     // one handler span per request; the loop is closed
	spans   []span
	layers  map[string]*stat
	kinds   map[string]*kindTotals
	order   []string
	toks    []lexer.Token

	poolNS, serialNS         int64 // batch: pool wall time and the engine time inside it
	checkMallocs, checkCalls uint64
}

func newTracer(cat *product.Catalog) *tracer {
	return &tracer{
		t0: time.Now(), cat: cat, hot: product.NewVerdictCache(0),
		handled: make(chan [2]time.Time, 1),
		layers:  map[string]*stat{}, kinds: map[string]*kindTotals{},
	}
}

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.handled <- [2]time.Time{start, time.Now()}
	})
}

// handler returns the span the middleware recorded for the request just
// answered.
func (t *tracer) handler() ([2]time.Time, error) {
	select {
	case h := <-t.handled:
		return h, nil
	case <-time.After(10 * time.Second):
		return [2]time.Time{}, errors.New("no handler span for an answered request")
	}
}

// drain discards the handler span of a wrongly answered request, if any.
func (t *tracer) drain() {
	select {
	case <-t.handled:
	case <-time.After(time.Second):
	}
}

func (t *tracer) layer(name string, ns int64, calls int) {
	s := t.layers[name]
	if s == nil {
		s = &stat{}
		t.layers[name] = s
	}
	s.ns += ns
	s.calls += int64(calls)
}

// perCall is a layer's mean time per call in the given unit, 0 when the
// workload's requests never reach the layer.
func (t *tracer) perCall(name string, unit time.Duration) float64 {
	s := t.layers[name]
	if s == nil || s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls) / float64(unit)
}

// timed runs fn as one call of the named layer.
func (t *tracer) timed(parts *[]part, name string, fn func()) {
	start := time.Now()
	fn()
	ns := time.Since(start).Nanoseconds()
	*parts = append(*parts, part{name: name, start: start, ns: ns, calls: 1})
	t.layer(name, ns, 1)
}

// resolve is the server's resolution: preset name to feature list, then
// the catalog lookup (fingerprint + cache probe).
func (t *tracer) resolve(r *request) (*core.Product, engine.Engine, error) {
	if r.features != nil {
		return t.cat.Resolve(feature.NewConfig(r.features...), core.Options{Product: "custom"})
	}
	feats, err := dialect.Features(dialect.Name(r.preset))
	if err != nil {
		return nil, nil, err
	}
	return t.cat.Resolve(feature.NewConfig(feats...), core.Options{Product: r.preset})
}

// primeHot fills the tracer's own verdict cache with a hot statement.
func (t *tracer) primeHot(r *request) error {
	_, eng, err := t.resolve(r)
	if err != nil {
		return err
	}
	t.hot.Verdict(eng, r.stmts[0].sql)
	return nil
}

// replay re-runs the request's work through each module's public
// functions and returns the time spent per layer.
func (t *tracer) replay(r *request, body []byte, sampleAllocs bool) ([]part, error) {
	var (
		parts []part
		prod  *core.Product
		eng   engine.Engine
		err   error
	)
	decode := func(v any) func() {
		return func() {
			dec := json.NewDecoder(bytes.NewReader(r.body))
			dec.DisallowUnknownFields()
			_ = dec.Decode(v) // the server accepted this body
		}
	}
	resolve := func() { prod, eng, err = t.resolve(r) }
	encode := func(v any) func() {
		return func() { _ = json.NewEncoder(io.Discard).Encode(v) }
	}

	switch r.kind {
	case "verdict":
		var req server.ParseRequest
		t.timed(&parts, "server.decode", decode(&req))
		if t.timed(&parts, "product.resolve", resolve); err != nil {
			return nil, err
		}
		var v *product.Verdict
		start := time.Now()
		for i := 0; i < hitReps; i++ {
			v = t.hot.Verdict(eng, req.SQL)
		}
		ns := time.Since(start).Nanoseconds() / hitReps
		parts = append(parts, part{name: "product.vcache_hit", start: start, ns: ns, calls: 1})
		t.layer("product.vcache_hit", ns, 1)
		t.timed(&parts, "server.encode", func() {
			resp := &server.ParseResponse{Dialect: eng.Info().Product, Want: server.WantVerdict, OK: v.OK()}
			if !v.OK() {
				resp.Error = server.EncodeDiagnostic(v.Err)
				resp.Diagnostics = server.EncodeDiagnostics(v.Diags)
			}
			encode(resp)()
		})

	case "ast", "analysis", "format":
		sql := r.stmts[0].sql
		if r.kind == "format" {
			t.timed(&parts, "server.decode", decode(&server.FormatRequest{}))
		} else {
			t.timed(&parts, "server.decode", decode(&server.ParseRequest{}))
		}
		if t.timed(&parts, "product.resolve", resolve); err != nil {
			return nil, err
		}
		var (
			tree   *parser.Tree
			script *ast.Script
		)
		if t.timed(&parts, "engine.parse", func() { tree, err = eng.Parse(sql) }); err != nil {
			return nil, err
		}
		if t.timed(&parts, "ast.build", func() { script, err = ast.NewBuilder(nil).Build(tree) }); err != nil {
			return nil, err
		}
		info := eng.Info()
		switch r.kind {
		case "analysis":
			var an []analyze.Analysis
			t.timed(&parts, "analyze.script", func() { an = analyze.Script(script) })
			t.timed(&parts, "server.encode", encode(&server.ParseResponse{OK: true, Dialect: info.Product, Want: r.kind, Analysis: an}))
		case "ast":
			t.timed(&parts, "server.encode", func() {
				resp := &server.ParseResponse{OK: true, Dialect: info.Product, Want: r.kind}
				for _, st := range script.Statements {
					resp.Statements = append(resp.Statements, server.EncodeStatement(st))
				}
				encode(resp)()
			})
		default:
			var out string
			t.timed(&parts, "ast.format", func() { out = ast.Format(script) })
			t.timed(&parts, "server.encode", encode(&server.FormatResponse{OK: true, Dialect: info.Product, SQL: out}))
		}

	case "stream":
		if t.timed(&parts, "product.resolve", resolve); err != nil {
			return nil, err
		}
		lx := prod.Parser.Lexer()
		sc := stream.NewScanner(lx, bytes.NewReader(r.body), stream.Config{MaxStatement: 4 << 20})
		var pieces []server.Position
		var texts []string
		next := part{name: "stream.next", start: time.Now()}
		for {
			start := time.Now()
			st, err := sc.Next()
			next.ns += time.Since(start).Nanoseconds()
			if errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, err
			}
			next.calls++
			if len(st.Tokens) == 0 && st.Err == nil {
				continue // trivia-only tail
			}
			texts = append(texts, st.Text)
			pieces = append(pieces, server.Position{Off: st.Off, Line: st.Line, Col: st.Col})
		}
		parts = append(parts, next)
		t.layer(next.name, next.ns, next.calls)
		verdicts, stmtParts := t.statements(eng, lx, texts, sampleAllocs)
		parts = append(parts, stmtParts...)
		t.timed(&parts, "server.encode", func() {
			bw := bufio.NewWriterSize(io.Discard, 64<<10)
			enc := json.NewEncoder(bw)
			sum := server.StreamSummary{Summary: true, Dialect: eng.Info().Product}
			for i, v := range verdicts {
				rec := server.StreamResult{Seq: i, OK: v.OK(), Off: pieces[i].Off, Line: pieces[i].Line, Bytes: len(texts[i])}
				sum.Statements++
				if v.OK() {
					sum.Accepted++
				} else {
					sum.Rejected++
					at := pieces[i]
					at.HasMore = i < len(verdicts)-1
					rec.Diagnostics = server.RelocateDiagnostics(v.Diags, at)
				}
				_ = enc.Encode(rec)
			}
			_ = enc.Encode(sum)
			_ = bw.Flush()
		})

	case "batch":
		var req server.BatchRequest
		t.timed(&parts, "server.decode", decode(&req))
		if t.timed(&parts, "product.resolve", resolve); err != nil {
			return nil, err
		}
		verdicts, stmtParts := t.statements(eng, prod.Parser.Lexer(), req.Queries, false)
		var serial int64
		for i := range stmtParts {
			stmtParts[i].inPool = true
			serial += stmtParts[i].ns
		}
		// The pool's wall time is what the daemon reports for the batch.
		var answered struct {
			ElapsedMicros int64 `json:"elapsed_us"`
		}
		if err := json.Unmarshal(body, &answered); err != nil {
			return nil, fmt.Errorf("decode batch elapsed time: %w", err)
		}
		pool := part{name: "server.batch_pool", start: stmtParts[0].start, ns: answered.ElapsedMicros * 1e3, calls: 1}
		parts = append(parts, pool)
		parts = append(parts, stmtParts...)
		t.layer(pool.name, pool.ns, 1)
		t.poolNS += pool.ns
		t.serialNS += serial
		t.timed(&parts, "server.encode", func() {
			resp := &server.BatchResponse{Dialect: eng.Info().Product, Results: make([]server.BatchResult, len(verdicts))}
			for i, v := range verdicts {
				resp.Results[i].OK = v.OK()
				if v.OK() {
					resp.Accepted++
				} else {
					resp.Rejected++
					resp.Results[i].Error = server.EncodeDiagnostic(v.Err)
					resp.Results[i].Diagnostics = server.EncodeDiagnostics(v.Diags)
				}
			}
			encode(resp)()
		})
	default:
		return nil, fmt.Errorf("cannot replay request kind %q", r.kind)
	}
	return parts, nil
}

// knownVerdict is an engine whose answers are already computed, so that
// a verdict-cache miss can be timed without the engine work it wraps.
type knownVerdict struct {
	info  engine.Info
	err   error
	diags []parser.Diagnostic
}

func (k knownVerdict) Info() engine.Info                   { return k.info }
func (k knownVerdict) Parse(string) (*parser.Tree, error)  { return nil, k.err }
func (k knownVerdict) Check(string) error                  { return k.err }
func (k knownVerdict) Accepts(string) bool                 { return k.err == nil }
func (k knownVerdict) Diagnose(string) []parser.Diagnostic { return k.diags }

// statements replays the per-statement verdict path of the stream and
// batch handlers: engine Check, Diagnose on a reject, and the verdict
// cache's miss bookkeeping (timed over a fresh cache, so every lookup
// misses as it did in the daemon). The lexer scan of each statement is
// timed as well, as a layer of its own outside the waterfall.
func (t *tracer) statements(eng engine.Engine, lx *lexer.Lexer, texts []string, sampleAllocs bool) ([]*product.Verdict, []part) {
	prefix := "parser"
	if eng.Info().Kind == engine.KindGenerated {
		prefix = "engine"
	}
	check := part{name: prefix + ".check", start: time.Now()}
	diag := part{name: prefix + ".diagnose"}
	miss := part{name: "product.vcache_miss"}
	var scanNS int64
	fresh := product.NewVerdictCache(len(texts))
	info := eng.Info()
	verdicts := make([]*product.Verdict, len(texts))
	for i, text := range texts {
		start := time.Now()
		err := eng.Check(text)
		check.ns += time.Since(start).Nanoseconds()
		check.calls++
		var diags []parser.Diagnostic
		if err != nil {
			start = time.Now()
			diags = eng.Diagnose(text)
			if diag.calls == 0 {
				diag.start = start
			}
			diag.ns += time.Since(start).Nanoseconds()
			diag.calls++
		}
		start = time.Now()
		if miss.calls == 0 {
			miss.start = start
		}
		verdicts[i] = fresh.Verdict(knownVerdict{info: info, err: err, diags: diags}, text)
		miss.ns += time.Since(start).Nanoseconds()
		miss.calls++
		start = time.Now()
		t.toks, _ = lx.ScanInto(text, t.toks[:0]) // scan errors are part of the timing
		scanNS += time.Since(start).Nanoseconds()
	}
	t.layer("lexer.scan", scanNS, len(texts))
	if sampleAllocs && prefix == "engine" {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, text := range texts {
			_ = eng.Check(text)
		}
		runtime.ReadMemStats(&after)
		t.checkMallocs += after.Mallocs - before.Mallocs
		t.checkCalls += uint64(len(texts))
	}
	out := []part{miss, check}
	if diag.calls > 0 {
		out = append(out, diag)
	}
	for _, p := range out {
		t.layer(p.name, p.ns, p.calls)
	}
	return verdicts, out
}

// record adds one measured request to the waterfall and the span list.
func (t *tracer) record(id int, r *request, start time.Time, client time.Duration, h [2]time.Time, parts []part) {
	k := t.kinds[r.kind]
	if k == nil {
		k = &kindTotals{parts: map[string]int64{}}
		t.kinds[r.kind] = k
		t.order = append(t.order, r.kind)
	}
	handler := h[1].Sub(h[0]).Nanoseconds()
	k.requests++
	k.clientNS += client.Nanoseconds()
	k.handlerNS += handler
	for _, p := range parts {
		if !p.inPool {
			k.add(p.name, p.ns)
		}
	}
	if id > spanLimit {
		return
	}
	rel := func(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }
	clientID := len(t.spans) + 1
	t.spans = append(t.spans,
		span{ID: clientID, Req: id, Name: "client", Start: rel(start), End: rel(start) + client.Nanoseconds()},
		span{ID: clientID + 1, Parent: clientID, Req: id, Name: "server.handler", Start: rel(h[0]), End: rel(h[1])})
	poolID := 0
	for _, p := range parts {
		parent := clientID + 1
		if p.inPool {
			parent = poolID
		}
		sp := span{ID: len(t.spans) + 1, Parent: parent, Req: id, Name: p.name, Start: rel(p.start), End: rel(p.start) + p.ns, Calls: p.calls, Replay: true}
		if p.name == "server.batch_pool" {
			poolID = sp.ID
		}
		t.spans = append(t.spans, sp)
	}
}

// traceInProcess serves the workload from an in-process server over a
// loopback connection and traces every measured request.
func traceInProcess(w workload, measure time.Duration) (*tracer, *recorder, error) {
	cat := product.NewCatalog(sql2003.MustModel(), sql2003.Registry{})
	srv := server.New(server.Config{Catalog: cat, Warm: dialect.Names()})
	if err := srv.Warm(); err != nil {
		return nil, nil, err
	}
	srv.MarkReady()
	t := newTracer(cat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: t.wrap(srv.Handler())}
	served := make(chan struct{})
	go func() {
		_ = hs.Serve(ln) // returns ErrServerClosed once Close is called
		close(served)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	d := &daemon{base: "http://" + ln.Addr().String(), client: newClient()}
	defer d.client.CloseIdleConnections()
	rec := &recorder{}

	untraced := func(r *request) error {
		if _, _, ok := rec.send(d, r, false); !ok {
			t.drain() // counted as failed; a handler span may still follow
			return nil
		}
		_, err := t.handler()
		return err
	}
	for _, r := range w.setup() {
		if err := untraced(r); err != nil {
			return nil, nil, err
		}
	}
	for _, r := range w.prime() {
		if err := untraced(r); err != nil {
			return nil, nil, err
		}
		if err := t.primeHot(r); err != nil {
			return nil, nil, err
		}
	}
	for until := time.Now().Add(warmup); time.Now().Before(until); {
		if err := untraced(w.next()); err != nil {
			return nil, nil, err
		}
	}
	t.t0 = time.Now()
	for id, until := 1, time.Now().Add(measure); time.Now().Before(until); id++ {
		r := w.next()
		start := time.Now()
		client, body, ok := rec.send(d, r, true)
		if !ok {
			t.drain()
			continue
		}
		h, err := t.handler()
		if err != nil {
			return nil, nil, err
		}
		parts, err := t.replay(r, body, id%10 == 1)
		if err != nil {
			return nil, nil, err
		}
		t.record(id, r, start, client, h, parts)
	}
	return t, rec, nil
}

// buildCosts times core.Build and engine promotion for every product the
// workload builds (median of buildReps builds each, summed).
func buildCosts(w workload) (buildMS, allocMB, promoteMS float64, err error) {
	model, src := sql2003.MustModel(), sql2003.Registry{}
	type spec struct {
		feats []string
		opts  core.Options
	}
	var specs []spec
	for _, p := range presets {
		feats, err := dialect.Features(dialect.Name(p))
		if err != nil {
			return 0, 0, 0, err
		}
		specs = append(specs, spec{feats, core.Options{Product: p}})
		if w.products() > len(presets) {
			specs = append(specs, spec{feats, core.Options{Product: "custom"}})
		}
	}
	for _, sp := range specs {
		var builds, allocs, promotes []float64
		for i := 0; i < buildReps; i++ {
			cfg := feature.NewConfig(sp.feats...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			p, err := core.Build(model, src, cfg, sp.opts)
			builds = append(builds, ms(time.Since(start)))
			runtime.ReadMemStats(&after)
			if err != nil {
				return 0, 0, 0, err
			}
			allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			fp := product.Fingerprint(cfg, sp.opts)
			start = time.Now()
			engine.ForProduct(p, fp)
			promotes = append(promotes, ms(time.Since(start)))
		}
		buildMS += median(builds)
		allocMB += median(allocs)
		promoteMS += median(promotes)
	}
	return buildMS, allocMB, promoteMS, nil
}

// discardWriter is an in-memory ResponseWriter that supports the full
// duplex mode the stream handler asks for.
type discardWriter struct {
	header http.Header
	code   int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Flush()                      {}
func (d *discardWriter) EnableFullDuplex() error     { return nil }

// allocPerStmt serves a sample of the workload's requests in memory, on a
// fresh server over the same catalog, and returns the heap bytes allocated
// per statement.
func allocPerStmt(cat *product.Catalog, w workload, sample int) (float64, error) {
	h := server.New(server.Config{Catalog: cat}).Handler()
	serve := func(r *http.Request) error {
		rw := &discardWriter{header: http.Header{}}
		h.ServeHTTP(rw, r)
		if rw.code != 0 && rw.code != http.StatusOK {
			return fmt.Errorf("in-memory %s answered %d", r.URL.Path, rw.code)
		}
		return nil
	}
	httpReq := func(r *request) *http.Request {
		req, err := http.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		if err != nil {
			panic(err) // generated paths are valid
		}
		return req
	}
	for _, r := range w.prime() {
		if err := serve(httpReq(r)); err != nil {
			return 0, err
		}
	}
	var reqs []*http.Request
	stmts := 0
	for i := 0; i < sample; i++ {
		r := w.next()
		stmts += len(r.stmts)
		reqs = append(reqs, httpReq(r))
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		if err := serve(r); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(stmts), nil
}

// runTrace is the traced run: an untraced reference against the daemon
// (for the daemon's CPU and counters, and the untraced latency that shows
// the tracing overhead), then the traced in-process run over the same
// seeded inputs, then direct timings of product builds and allocations.
func runTrace(bin, name string, seed uint64, seconds int, spanPath string) (*result, error) {
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	ref, err := measureDaemon(bin, w, 1, time.Duration(max(1, seconds/2))*time.Second)
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	debug.SetGCPercent(100)

	w, _ = newWorkload(name, seed) // the same inputs again, from the start
	t, rec, err := traceInProcess(w, time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	if len(rec.latUS) == 0 {
		return nil, fmt.Errorf("no traced request completed: %v", rec.firstErr)
	}
	buildMS, buildMB, promoteMS, err := buildCosts(w)
	if err != nil {
		return nil, err
	}
	sample := map[string]int{"interactive": 600, "stream-cold": 2, "batch-custom": 16}[name]
	allocB, err := allocPerStmt(t.cat, w, sample)
	if err != nil {
		return nil, err
	}
	if err := t.writeSpans(spanPath, name, seed); err != nil {
		return nil, err
	}

	all := t.total()
	perReq := func(ns int64) float64 { return float64(ns) / float64(all.requests) / 1e3 }
	var partsNS int64
	for _, ns := range all.parts {
		partsNS += ns
	}
	overlap, checkAllocs := 0.0, 0.0
	if t.poolNS > 0 {
		overlap = float64(t.serialNS) / float64(t.poolNS)
	}
	if t.checkCalls > 0 {
		checkAllocs = float64(t.checkMallocs) / float64(t.checkCalls)
	}
	tracedP50, refP50 := quantile(rec.latUS, 0.5), quantile(ref.rec.latUS, 0.5)
	us, ns := time.Microsecond, time.Nanosecond
	m := map[string]metric{
		"server.handler_us":           {perReq(all.handlerNS), "us"},
		"http.outside_us":             {perReq(all.clientNS - all.handlerNS), "us"},
		"server.decode_us":            {t.perCall("server.decode", us), "us"},
		"product.resolve_us":          {t.perCall("product.resolve", us), "us"},
		"product.vcache_hit_ns":       {t.perCall("product.vcache_hit", ns), "ns"},
		"product.vcache_miss_us":      {t.perCall("product.vcache_miss", us), "us"},
		"product.vcache_hit_ratio":    {ratio(ref.hits, ref.seen), "ratio"},
		"core.build_ms":               {buildMS, "ms"},
		"core.build_alloc_mb":         {buildMB, "MB"},
		"engine.promote_ms":           {promoteMS, "ms"},
		"engine.check_us":             {t.perCall("engine.check", us), "us"},
		"engine.check_allocs":         {checkAllocs, "count"},
		"engine.diagnose_us":          {t.perCall("engine.diagnose", us), "us"},
		"parser.check_us":             {t.perCall("parser.check", us), "us"},
		"parser.diagnose_us":          {t.perCall("parser.diagnose", us), "us"},
		"lexer.scan_us":               {t.perCall("lexer.scan", us), "us"},
		"stream.next_us":              {t.perCall("stream.next", us), "us"},
		"engine.parse_us":             {t.perCall("engine.parse", us), "us"},
		"ast.build_us":                {t.perCall("ast.build", us), "us"},
		"ast.format_us":               {t.perCall("ast.format", us), "us"},
		"analyze.script_us":           {t.perCall("analyze.script", us), "us"},
		"server.encode_us":            {t.perCall("server.encode", us), "us"},
		"server.batch_overlap":        {overlap, "ratio"},
		"server.unexplained_us":       {perReq(all.handlerNS - partsNS), "us"},
		"server.cpu_us_per_stmt":      {ref.cpu * 1e6 / float64(ref.rec.stmts), "us"},
		"server.alloc_bytes_per_stmt": {allocB, "B"},
		"trace.overhead_ratio":        {tracedP50 / refP50, "ratio"},
	}

	t.waterfall(os.Stderr, name, seed)
	fmt.Fprintf(os.Stderr, "tracing overhead: traced in-process client p50 %.1fus vs untraced daemon p50 %.1fus (x%.3f)\n",
		tracedP50, refP50, tracedP50/refP50)
	fmt.Fprintf(os.Stderr, "set-up: core.Build %.1fms (%.1fMB allocated), promotion %.1fms over %d products; spans written to %s\n",
		buildMS, buildMB, promoteMS, w.products(), spanPath)
	report(ref.rec, ref.gateErr)
	report(rec, nil)
	failed := ref.rec.failed + rec.failed
	return &result{
		Correct:   failed == 0 && ref.gateErr == nil,
		Attempted: ref.rec.attempted + rec.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// total sums the waterfalls of every request kind.
func (t *tracer) total() *kindTotals {
	all := &kindTotals{parts: map[string]int64{}}
	for _, kind := range t.order {
		k := t.kinds[kind]
		all.requests += k.requests
		all.clientNS += k.clientNS
		all.handlerNS += k.handlerNS
		for _, name := range k.order {
			all.add(name, k.parts[name])
		}
	}
	return all
}

// waterfall prints, per request kind and overall, the client latency split
// into time outside the handler and the handler, and the handler split
// into its parts' self times and the unexplained remainder.
func (t *tracer) waterfall(out io.Writer, name string, seed uint64) {
	fmt.Fprintf(out, "perfbench trace: %s seed %d; mean microseconds per request\n", name, seed)
	kinds := append([]string(nil), t.order...)
	sort.Strings(kinds)
	rows := map[string]*kindTotals{}
	for _, k := range kinds {
		rows[k] = t.kinds[k]
	}
	if len(kinds) > 1 {
		kinds = append(kinds, "all")
		rows["all"] = t.total()
	}
	for _, kind := range kinds {
		k := rows[kind]
		n := float64(k.requests) * 1e3
		client, handler := float64(k.clientNS)/n, float64(k.handlerNS)/n
		var parts float64
		for _, ns := range k.parts {
			parts += float64(ns) / n
		}
		fmt.Fprintf(out, "[%s] %d requests\n", kind, k.requests)
		fmt.Fprintf(out, "  client latency      %10.1f = http.outside %.1f + server.handler %.1f\n", client, client-handler, handler)
		fmt.Fprintf(out, "  server.handler      %10.1f = parts %.1f + unexplained %.1f\n", handler, parts, handler-parts)
		for _, p := range k.order {
			fmt.Fprintf(out, "    %-22s %10.1f\n", p, float64(k.parts[p])/n)
		}
		fmt.Fprintf(out, "    %-22s %10.1f\n", "(unexplained)", handler-parts)
	}
	if t.poolNS > 0 {
		fmt.Fprintf(out, "batch pool: %.1fms of engine work per %.1fms of pool wall time (overlap x%.2f)\n",
			float64(t.serialNS)/1e6, float64(t.poolNS)/1e6, float64(t.serialNS)/float64(t.poolNS))
	}
}

// writeSpans writes the recorded spans as one JSON document.
func (t *tracer) writeSpans(path, name string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{name, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
