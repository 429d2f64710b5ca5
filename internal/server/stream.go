// stream.go serves POST /v1/stream: bounded-memory script checking. The
// body is raw SQL of (nearly) arbitrary size; the handler drives the
// streaming statement scanner (internal/stream) over it and answers with
// NDJSON — one verdict record per statement as it is reached, then a
// summary trailer — so a multi-gigabyte migration dump is checked with
// peak memory proportional to its largest statement, not its size.
//
// Each statement rides the same verdict path as /v1/parse want=verdict:
// the hot-statement cache first, engine dispatch on a miss. Statements
// are checked on Config.BatchWorkers goroutines through the ordered
// statement pipeline (stream.Pipeline); records are written in input
// order by the handler goroutine. Diagnostics are the statement-recovery view relocated
// to whole-script coordinates, so for scripts under the recovery
// diagnostic cap the stream reproduces exactly what a whole-script
// Diagnose would have reported (DESIGN §13 notes the two deliberate
// differences: no 20-diagnostic cap, and leading trivia buffers with the
// statement that follows it).
package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"sqlspl/internal/product"
	"sqlspl/internal/stream"
)

// maxStreamBytes caps a /v1/stream body. Bodies are read incrementally,
// so the cap bounds work per request, not memory.
const maxStreamBytes = 256 << 20

// streamFlushEvery bounds how many statement records buffer before the
// response is flushed to the client — frequent enough that a slow scan
// still shows progress, rare enough that flushing does not dominate.
const streamFlushEvery = 256

// StreamResult is one statement's verdict on the /v1/stream NDJSON wire.
// Off/Line locate the statement's span (including its leading trivia) in
// the submitted script; Bytes is the span's length. Diagnostics are in
// whole-script coordinates.
type StreamResult struct {
	Seq         int           `json:"seq"`
	OK          bool          `json:"ok"`
	Off         int           `json:"off"`
	Line        int           `json:"line"`
	Bytes       int           `json:"bytes"`
	Diagnostics []*Diagnostic `json:"diagnostics,omitempty"`
}

// StreamSummary is the NDJSON trailer: always the last line, identified
// by summary=true. Error is set when the scan aborted (oversized body or
// statement, client disconnect) — counts then cover only what was checked.
type StreamSummary struct {
	Summary       bool   `json:"summary"`
	Dialect       string `json:"dialect"`
	Statements    int    `json:"statements"`
	Accepted      int    `json:"accepted"`
	Rejected      int    `json:"rejected"`
	Error         string `json:"error,omitempty"`
	ElapsedMicros int64  `json:"elapsed_us"`
}

// handleStream serves POST /v1/stream?dialect=NAME (or ?features=a,b,c).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var features []string
	if f := q.Get("features"); f != "" {
		features = strings.Split(f, ",")
	}
	prod, eng, ok := s.front(w, s.m.streamReqs, q.Get("dialect"), features)
	if !ok {
		return
	}
	defer s.release()

	// The handler interleaves request-body reads with response writes. On
	// HTTP/1 the server otherwise consumes (and beyond 256 KiB, discards)
	// the unread body the moment the response starts — silently corrupting
	// the scan — so full duplex is required, not an optimization.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported: " + err.Error()})
		return
	}

	// One statement may buffer at most MaxBodyBytes — the same bound a
	// non-streaming request lives under — while the body overall is capped
	// only by maxStreamBytes. That pair is the endpoint's memory contract.
	body := http.MaxBytesReader(w, r.Body, maxStreamBytes)
	sc := stream.NewScanner(prod.Parser.Lexer(), body, stream.Config{MaxStatement: int(s.cfg.MaxBodyBytes)})

	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriterSize(w, 64<<10)
	enc := json.NewEncoder(bw)

	start := time.Now()
	sum := StreamSummary{Summary: true, Dialect: eng.Info().Product}
	sinceFlush := 0
	// Statements are checked on up to BatchWorkers goroutines, cache hits
	// included, and answered in input order here, on the handler
	// goroutine, which owns every response write. A nil verdict marks a
	// check that panicked: the workers run outside withRecovery, so the
	// panic is contained to its own record.
	p := stream.Pipeline[*product.Verdict]{
		Workers: s.cfg.BatchWorkers,
		Check: func(st *stream.Stmt) (v *product.Verdict) {
			defer func() {
				if rec := recover(); rec != nil {
					s.m.panics.Inc()
					v = nil
				}
			}()
			if s.testHookCheck != nil {
				s.testHookCheck(st.Text)
			}
			return s.vcache.Verdict(eng, st.Text)
		},
		Emit: func(st *stream.Stmt, v *product.Verdict) {
			rec := StreamResult{Seq: st.Seq, OK: v != nil && v.OK(), Off: st.Off, Line: st.Line, Bytes: len(st.Text)}
			s.m.streamStatements.Inc()
			switch {
			case v == nil:
				sum.Rejected++
				rec.Diagnostics = []*Diagnostic{{Message: "internal error: statement check panicked"}}
			case v.OK():
				sum.Accepted++
			default:
				sum.Rejected++
				s.m.parseErrors.Inc()
				rec.Diagnostics = RelocateDiagnostics(v.Diags, Position{Off: st.Off, Line: st.Line, Col: st.Col, HasMore: st.HasMore})
			}
			sum.Statements++
			_ = enc.Encode(rec)
			if sinceFlush++; sinceFlush >= streamFlushEvery {
				sinceFlush = 0
				bw.Flush()
				_ = rc.Flush()
			}
		},
	}
	scanErr := p.Run(r.Context(), sc)
	// An aborted scan leaves body unread. Close it here, in the handler:
	// net/http otherwise drains it after cancelling its own pending read,
	// the drain's EOF starts another, and the connection's next read
	// panics on the concurrent Body.Read.
	r.Body.Close()

	if scanErr != nil {
		sum.Error = scanErr.Error()
	}
	sum.ElapsedMicros = time.Since(start).Microseconds()
	_ = enc.Encode(sum)
	bw.Flush()
	_ = rc.Flush()
}
