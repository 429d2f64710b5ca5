// handlers.go implements the HTTP endpoints. All bodies are JSON; parse
// results use the shared wire encoder (wire.go), so responses are
// byte-identical to sqlparse -json output for the same query.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/telemetry"
)

// errorBody is the JSON shape of non-parse failures (bad request,
// saturation, deadline). Parse failures ride inside ParseResponse instead.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// badRequest answers a counted 400 carrying msg.
func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.m.badRequests.Inc()
	writeJSON(w, http.StatusBadRequest, errorBody{Error: msg})
}

// decode reads a JSON body, capped at MaxBodyBytes and refusing unknown
// fields, into v. On failure it answers the 400 itself and reports false.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.badRequest(w, fmt.Sprintf("bad request: %v", err))
		return false
	}
	return true
}

// reject429 sheds one request at the admission controller.
func (s *Server) reject429(w http.ResponseWriter) {
	s.m.rejected.Inc()
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "server at capacity; retry"})
}

// front is the request front /v1/parse, /v1/format, /v1/batch and
// /v1/stream share: take an admission slot (429 at capacity), count the
// request on admitted, resolve its selection (400 on a bad one) and count
// its dialect. Admission comes first because resolving an unseen
// selection builds it, and that build must not run while the server is
// shedding load. When front answers the request itself it reports false
// and holds no slot; otherwise the caller owns the slot and must release
// it.
func (s *Server) front(w http.ResponseWriter, admitted *telemetry.Counter,
	dialectName string, features []string) (prod *core.Product, eng engine.Engine, ok bool) {
	if !s.admit() {
		s.reject429(w)
		return nil, nil, false
	}
	defer func() {
		if !ok { // also on a panic, which withRecovery answers
			s.release()
		}
	}()
	admitted.Inc()
	if s.testHookAdmitted != nil {
		s.testHookAdmitted()
	}
	prod, eng, label, err := s.resolve(dialectName, features)
	if err != nil {
		s.badRequest(w, err.Error())
		return nil, nil, false
	}
	s.m.dialect(label).Inc()
	return prod, eng, true
}

// serve runs the admitted part of /v1/parse, /v1/format and /v1/batch:
// after the shared front, work runs on the engine on the request's own
// goroutine, whose stack is already grown, under the request deadline,
// and its result is the answer. The engine has no preemption points, so
// the deadline is answered beside the work, not inside it: a callback on
// the deadline context answers 504 while the work runs on to the end,
// holding its admission slot, so abandoned work still counts against
// MaxInFlight. Whichever of the two finishes first owns the response. A
// client that goes away gets no answer and is not counted as a timeout.
// A panic in work answers 500; what names the work in error messages.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, what string, admitted *telemetry.Counter,
	dialectName string, features []string, work func(ctx context.Context, eng engine.Engine) any) {
	_, eng, ok := s.front(w, admitted, dialectName, features)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	callbackDone := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(callbackDone)
		if ctx.Err() == context.DeadlineExceeded {
			s.m.timeouts.Inc()
			s.answerDeadline(w, what)
		}
	})
	resp := func() (resp any) {
		// The slot is freed before the answer is written, so a client that
		// has its answer always finds the slot free again.
		defer func() {
			if recover() != nil {
				s.m.panics.Inc()
			}
			s.release()
		}()
		return work(ctx, eng)
	}()
	if !stop() {
		<-callbackDone // the callback owns the response; let its write finish
		return
	}
	if resp == nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "internal error: " + what + " panicked"})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// answerDeadline writes the 504 for work still running past its
// deadline. The handler goroutine is busy with that work, so the answer
// carries its Content-Length and is flushed now rather than when the
// handler returns. Connection: close keeps a keep-alive client from
// queueing its next request behind the abandoned work on this connection.
func (s *Server) answerDeadline(w http.ResponseWriter, what string) {
	// errorBody always marshals; the newline matches writeJSON's encoder.
	body, _ := json.Marshal(errorBody{Error: fmt.Sprintf("%s exceeded deadline %s", what, s.cfg.RequestTimeout)})
	body = append(body, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("Connection", "close")
	w.WriteHeader(http.StatusGatewayTimeout)
	// A failed write or flush means the client is gone: nothing to answer.
	_, _ = w.Write(body)
	_ = http.NewResponseController(w).Flush()
}

// handleParse serves POST /v1/parse.
func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	var req ParseRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !ValidWant(req.Want) {
		s.badRequest(w, fmt.Sprintf("unknown want %q (verdict|tree|ast|render|analysis)", req.Want))
		return
	}
	s.serve(w, r, "parse", s.m.parseReqs, req.Dialect, req.Features, func(_ context.Context, eng engine.Engine) any {
		if s.testHookParse != nil {
			s.testHookParse()
		}
		// Latency is observed in the work, not around the answer, so a
		// parse that outruns its deadline is still recorded and the
		// histogram never undercounts.
		start := time.Now()
		resp := s.outcome(eng, req.SQL, req.Want)
		s.m.latency.Observe(time.Since(start).Seconds())
		if resp.Error != nil {
			s.m.parseErrors.Inc()
		}
		return resp
	})
}

// handleFormat serves POST /v1/format: parse under the selected product,
// re-render through the typed AST printers (canonical or minified).
func (s *Server) handleFormat(w http.ResponseWriter, r *http.Request) {
	var req FormatRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serve(w, r, "format", s.m.formatReqs, req.Dialect, req.Features, func(_ context.Context, eng engine.Engine) any {
		start := time.Now()
		resp := FormatOutcome(eng, req.SQL, req.Minify)
		s.m.latency.Observe(time.Since(start).Seconds())
		if resp.Error != nil {
			s.m.formatErrors.Inc()
		}
		return resp
	})
}

// handleBatch serves POST /v1/batch: one product resolution, then
// runBatch's workers answer the queries over the shared parser, verdicts
// in input order. The batch holds a single admission slot however many
// workers answer it. (A batch's queries are all in memory, so it needs
// no scanner and no window; /v1/stream and sqlparse -batch check their
// statements through stream.Pipeline instead.)
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		s.badRequest(w, "batch has no queries")
		return
	}
	if !ValidWant(req.Want) && req.Want != "" {
		s.badRequest(w, fmt.Sprintf("unknown want %q", req.Want))
		return
	}
	s.serve(w, r, "batch", s.m.batchReqs, req.Dialect, req.Features, func(ctx context.Context, eng engine.Engine) any {
		return s.runBatch(ctx, eng, &req)
	})
}

// runBatch answers the batch on up to Config.BatchWorkers workers, the
// calling goroutine among them, so a batch starts BatchWorkers-1
// goroutines and a one-query batch none. Each worker claims the next
// unanswered query from one shared cursor and checks ctx before every
// claim: once it expires no new query starts, claimed ones finish, and
// the caller discards the (already timed-out) response.
func (s *Server) runBatch(ctx context.Context, eng engine.Engine, req *BatchRequest) *BatchResponse {
	start := time.Now()
	results := make([]BatchResult, len(req.Queries))
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(results) {
				return
			}
			s.batchOne(eng, req, results, i)
		}
	}
	workers := min(s.cfg.BatchWorkers, len(results))
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	out := &BatchResponse{Dialect: eng.Info().Product, Results: results}
	for _, res := range results {
		if res.OK {
			out.Accepted++
		} else {
			out.Rejected++
		}
	}
	out.ElapsedMicros = time.Since(start).Microseconds()
	return out
}

// batchOne answers one batch query. A panic poisons only this result, not
// the worker, the batch, or the daemon.
func (s *Server) batchOne(eng engine.Engine, req *BatchRequest, results []BatchResult, i int) {
	defer func() {
		if rec := recover(); rec != nil {
			s.m.panics.Inc()
			results[i] = BatchResult{Error: &Diagnostic{Message: "internal error: parse panicked"}}
		}
		s.m.batchQueries.Inc()
	}()
	if s.testHookCheck != nil {
		s.testHookCheck(req.Queries[i])
	}
	qStart := time.Now()
	resp := s.outcome(eng, req.Queries[i], orVerdict(req.Want))
	s.m.latency.Observe(time.Since(qStart).Seconds())
	if resp.Error != nil {
		s.m.parseErrors.Inc()
	}
	results[i] = BatchResult{OK: resp.OK, Error: resp.Error, Diagnostics: resp.Diagnostics}
	if req.Want != "" {
		results[i].Response = resp
	}
}

// outcome is Outcome behind the server's hot-statement verdict cache:
// verdict-shaped requests — the /v1/batch default and the entire /v1/stream
// path — are answered from the cache when the same statement bytes were
// already checked under the same engine fingerprint, skipping engine
// dispatch entirely on a hit. The cached verdict carries exactly what
// Outcome's verdict path computes (Check error plus the Diagnose view on
// rejection), so the response is identical either way. Shapes that
// materialise a tree never consult the cache.
func (s *Server) outcome(eng engine.Engine, sql, want string) *ParseResponse {
	if want != WantVerdict {
		return Outcome(eng, sql, want)
	}
	start := time.Now()
	v := s.vcache.Verdict(eng, sql)
	resp := &ParseResponse{Dialect: eng.Info().Product, Want: WantVerdict, OK: v.OK()}
	if !v.OK() {
		resp.Error = EncodeDiagnostic(v.Err)
		resp.Diagnostics = EncodeDiagnostics(v.Diags)
	}
	resp.ElapsedMicros = time.Since(start).Microseconds()
	return resp
}

// orVerdict maps the batch "verdict only" default onto the verdict shape,
// which rides the parser's allocation-free check path: no tree or AST is
// built for queries whose callers only asked whether they parse. (Note the
// semantics this implies: a query the grammar accepts but whose semantic
// actions would fail still gets OK=true — the verdict answers "is it in
// the language", not "can it be rendered".)
func orVerdict(want string) string {
	if want == "" {
		return WantVerdict
	}
	return want
}

// handleDialects serves GET /v1/dialects: the presets, their sizes, and
// whether each is already resident in the catalog. It reads the catalog
// without counting, so listing leaves the traffic counters untouched.
func (s *Server) handleDialects(w http.ResponseWriter, _ *http.Request) {
	var out []DialectInfo
	for _, name := range dialect.Names() {
		sel, err := dialect.Selection(name)
		if err != nil {
			continue
		}
		info := DialectInfo{Name: string(name), Features: sel.Config().Len()}
		if _, eng, ok := s.cat.LookupSelection(sel); ok {
			info.Built = true
			info.Engine = string(eng.Info().Kind)
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is liveness: 200 whenever the process serves HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 once warmed and not draining. Load
// balancers watch this; Shutdown fails it before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !s.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "starting")
	default:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	}
}

// handleMetrics serves the registry: Prometheus text by default, JSON with
// ?format=json or an Accept: application/json header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		_ = s.reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
