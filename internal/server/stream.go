// stream.go serves POST /v1/stream: bounded-memory script checking. The
// body is raw SQL of (nearly) arbitrary size; the handler drives the
// streaming statement scanner (internal/stream) over it and answers with
// NDJSON — one verdict record per statement as it is reached, then a
// summary trailer — so a multi-gigabyte migration dump is checked with
// peak memory proportional to its largest statement, not its size.
//
// Each statement rides the same verdict path as /v1/parse want=verdict:
// the hot-statement cache first, engine dispatch on a miss. Diagnostics
// are the statement-recovery view relocated to whole-script coordinates,
// so for scripts under the recovery diagnostic cap the stream reproduces
// exactly what a whole-script Diagnose would have reported (DESIGN §13
// notes the two deliberate differences: no 20-diagnostic cap, and leading
// trivia buffers with the statement that follows it).
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"sqlspl/internal/parser"
	"sqlspl/internal/stream"
)

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

// pendingStmt is the one-statement lookahead the handler keeps so a
// failing statement's diagnostics can carry the recovery pass's
// "statement skipped" hint exactly when a later statement exists —
// Statement.Text is immutable and retainable, so holding it is free.
type pendingStmt struct {
	text      string
	off, line int
	col       int
}

// handleStream serves POST /v1/stream?dialect=NAME (or ?features=a,b,c).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	q := r.URL.Query()
	var features []string
	if f := q.Get("features"); f != "" {
		features = strings.Split(f, ",")
	}
	// Admission comes first: resolving an unseen selection builds it, and
	// that build must not run while the server is shedding load.
	if !s.admit() {
		s.reject429(w)
		return
	}
	defer s.release()
	s.m.streamReqs.Inc()
	prod, eng, label, err := s.resolve(q.Get("dialect"), features)
	if err != nil {
		s.m.badRequests.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	s.m.dialect(label).Inc()

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
	// only by MaxStreamBytes. That pair is the endpoint's memory contract.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxStreamBytes)
	sc := stream.NewScanner(prod.Parser.Lexer(), body, stream.Config{MaxStatement: int(s.cfg.MaxBodyBytes)})

	w.Header().Set("Content-Type", "application/x-ndjson")
	bw := bufio.NewWriterSize(w, 64<<10)
	enc := json.NewEncoder(bw)

	start := time.Now()
	sum := StreamSummary{Summary: true, Dialect: eng.Info().Product}
	sinceFlush := 0
	emit := func(p pendingStmt, hasMore bool) {
		v := s.verdict(eng, p.text)
		rec := StreamResult{Seq: sum.Statements, OK: v.OK(), Off: p.off, Line: p.line, Bytes: len(p.text)}
		sum.Statements++
		s.m.streamStatements.Inc()
		if v.OK() {
			sum.Accepted++
		} else {
			sum.Rejected++
			s.m.parseErrors.Inc()
			rec.Diagnostics = relocateDiagnostics(v.Diags, p, hasMore)
		}
		_ = enc.Encode(rec)
		if sinceFlush++; sinceFlush >= streamFlushEvery {
			sinceFlush = 0
			bw.Flush()
			_ = rc.Flush()
		}
	}

	// The scanner owns sequencing; the handler holds one statement back so
	// every emit knows whether a later checkable statement exists. Only the
	// final trivia-only tail (no tokens, no scan error) is skipped — it is
	// not a statement, and whole-script recovery would not report on it.
	var pending *pendingStmt
	var scanErr error
	for {
		if err := r.Context().Err(); err != nil {
			scanErr = err
			break
		}
		st, err := sc.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				scanErr = err
			}
			break
		}
		if len(st.Tokens) == 0 && st.Err == nil {
			continue // trivia-only tail
		}
		if pending != nil {
			emit(*pending, true)
		}
		pending = &pendingStmt{text: st.Text, off: st.Off, line: st.Line, col: st.Col}
	}
	// The held-back statement is complete even when the scan aborted after
	// it — answer it either way. On abort, unread input remained, so it is
	// not the script's last statement.
	if pending != nil {
		emit(*pending, scanErr != nil)
	}

	if scanErr != nil {
		sum.Error = scanErr.Error()
	}
	sum.ElapsedMicros = time.Since(start).Microseconds()
	_ = enc.Encode(sum)
	bw.Flush()
	_ = rc.Flush()
}

// relocateDiagnostics rebases a statement-relative recovery view (the
// cached verdict's Diags) into whole-script coordinates via the shared
// wire helper (RelocateDiagnostics), which batch callers use too.
func relocateDiagnostics(diags []parser.Diagnostic, p pendingStmt, hasMore bool) []*Diagnostic {
	return RelocateDiagnostics(diags, Position{Off: p.off, Line: p.line, Col: p.col, HasMore: hasMore})
}
