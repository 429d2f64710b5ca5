package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"sqlspl/internal/dialect"
	"sqlspl/internal/server"
)

// request is one generated HTTP request with everything needed to check
// its answer and to replay its parts in the traced run.
type request struct {
	kind     string // verdict | ast | analysis | format | stream | batch
	preset   string // dialect preset (for batch: the preset whose features are listed)
	features []string
	path     string
	body     []byte
	stmts    []stmt
}

// workload generates a run's requests from its seed. setup requests are
// part of set-up (they build products); prime requests fill caches before
// the warm-up; next yields the steady-state traffic.
type workload interface {
	setup() []*request
	prime() []*request
	next() *request
	// products is the number of distinct catalog products the run builds.
	products() int
}

var presets = []string{"minimal", "tinysql", "scql", "core", "warehouse", "full"}

func newWorkload(name string, seed uint64) (workload, error) {
	seen := map[uint64]struct{}{}
	switch name {
	case "interactive":
		return newInteractive(seed, seen), nil
	case "stream-cold":
		return &streamCold{g: newGen(seed, seen)}, nil
	case "batch-custom":
		return &batchCustom{g: newGen(seed, seen)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (interactive | stream-cold | batch-custom)", name)
}

// stmtKey is the uniqueness key of a statement.
func stmtKey(sql string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sql))
	return h.Sum64()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request types always marshal
	}
	return b
}

// ---- interactive ----

const (
	hotPerPreset  = 64
	hotInvalidMod = 16 // one hot statement in 16 is known-invalid
)

// treeKinds are the never-repeating requests that materialise a tree.
var treeKinds = []string{"ast", "analysis", "format"}

// interactive sends single-statement requests round-robin over the six
// presets: three in four are verdicts over a fixed hot set (cache hits once
// primed), the fourth rotates ast, analysis and format over fresh
// statements.
type interactive struct {
	hot     map[string][]stmt
	tree    *gen
	n, v, t int
}

func newInteractive(seed uint64, seen map[uint64]struct{}) *interactive {
	w := &interactive{hot: map[string][]stmt{}, tree: newGen(seed^0x5bd1e995, seen)}
	g := newGen(seed, seen)
	for _, p := range presets {
		for i := 0; i < hotPerPreset; i++ {
			s := g.next(p, false)
			if i%hotInvalidMod == hotInvalidMod-1 {
				s = invalid(s)
			}
			w.hot[p] = append(w.hot[p], s)
		}
	}
	return w
}

func (w *interactive) products() int     { return len(presets) }
func (w *interactive) setup() []*request { return nil }

func (w *interactive) prime() []*request {
	var out []*request
	for _, p := range presets {
		for _, s := range w.hot[p] {
			out = append(out, parseRequest("verdict", p, s))
		}
	}
	return out
}

func (w *interactive) next() *request {
	i := w.n
	w.n++
	if i%4 != 3 {
		p := presets[w.v%len(presets)]
		s := w.hot[p][(w.v/len(presets))%hotPerPreset]
		w.v++
		return parseRequest("verdict", p, s)
	}
	combo := w.t % (len(presets) * len(treeKinds))
	w.t++
	p, kind := presets[combo%len(presets)], treeKinds[combo/len(presets)]
	s := w.tree.next(p, kind == "format")
	if kind == "format" {
		return &request{kind: kind, preset: p, path: "/v1/format", stmts: []stmt{s},
			body: mustJSON(server.FormatRequest{Dialect: p, SQL: s.sql})}
	}
	return parseRequest(kind, p, s)
}

func parseRequest(want, p string, s stmt) *request {
	return &request{kind: want, preset: p, path: "/v1/parse", stmts: []stmt{s},
		body: mustJSON(server.ParseRequest{Dialect: p, SQL: s.sql, Want: want})}
}

// ---- stream-cold ----

const (
	streamStmts      = 3000
	streamInvalidMod = 20 // one statement in 20 is known-invalid
)

// streamRotation covers the four multi-statement presets in five slots, so
// that no quantile the benchmark reports lands on the boundary between two
// dialects' latency clusters.
var streamRotation = []string{"scql", "core", "warehouse", "full", "core"}

// streamCold posts scripts of never-repeated statements to /v1/stream.
type streamCold struct {
	g *gen
	n int
}

func (w *streamCold) products() int     { return len(presets) }
func (w *streamCold) setup() []*request { return nil }
func (w *streamCold) prime() []*request { return nil }

func (w *streamCold) next() *request {
	p := streamRotation[w.n%len(streamRotation)]
	w.n++
	r := &request{kind: "stream", preset: p, path: "/v1/stream?dialect=" + p}
	var script []byte
	for i := 0; i < streamStmts; i++ {
		s := w.g.next(p, false)
		if i%streamInvalidMod == streamInvalidMod-1 {
			s = invalid(s)
		}
		r.stmts = append(r.stmts, s)
		script = append(append(script, s.sql...), ";\n"...)
	}
	r.body = script
	return r
}

// ---- batch-custom ----

const (
	batchStmts      = 256
	batchInvalidMod = 20
)

// batchRotation covers the six presets' feature lists in seven slots, for
// the same quantile-boundary reason as streamRotation.
var batchRotation = []string{"minimal", "tinysql", "scql", "core", "warehouse", "full", "core"}

// batchCustom posts batches whose dialect is an explicit feature list, so
// every request resolves to an interpreted "custom" product.
type batchCustom struct {
	g *gen
	n int
}

func (w *batchCustom) products() int     { return 2 * len(presets) }
func (w *batchCustom) prime() []*request { return nil }

// setup sends one batch per custom selection: that request builds it.
func (w *batchCustom) setup() []*request {
	var out []*request
	for _, p := range presets {
		out = append(out, w.batch(p))
	}
	return out
}

func (w *batchCustom) next() *request {
	p := batchRotation[w.n%len(batchRotation)]
	w.n++
	return w.batch(p)
}

func (w *batchCustom) batch(p string) *request {
	feats, err := dialect.Features(dialect.Name(p))
	if err != nil {
		panic(err) // presets are fixed names
	}
	r := &request{kind: "batch", preset: p, features: feats, path: "/v1/batch"}
	queries := make([]string, batchStmts)
	for i := range queries {
		s := w.g.next(p, false)
		if i%batchInvalidMod == batchInvalidMod-1 {
			s = invalid(s)
		}
		r.stmts = append(r.stmts, s)
		queries[i] = s.sql
	}
	r.body = mustJSON(server.BatchRequest{Features: feats, Queries: queries})
	return r
}

// ---- known-answer checks ----

// check verifies a 200 response body against the generator's known
// answers. It returns how many of the request's statements were answered
// wrongly (all of them when the response as a whole is malformed) and the
// first problem found.
func check(r *request, body []byte) (bad int, err error) {
	switch r.kind {
	case "verdict", "ast", "analysis":
		var resp server.ParseResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 1, fmt.Errorf("decode parse response: %w", err)
		}
		return boolBad(checkParse(r, &resp))
	case "format":
		var resp server.FormatResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 1, fmt.Errorf("decode format response: %w", err)
		}
		s := r.stmts[0]
		switch {
		case !resp.OK:
			return 1, fmt.Errorf("format refused %q: %+v", s.sql, resp.Error)
		case resp.Dialect != r.preset:
			return 1, fmt.Errorf("format answered dialect %q, want %q", resp.Dialect, r.preset)
		case !strings.Contains(resp.SQL, s.mark):
			return 1, fmt.Errorf("formatted %q lost literal %s: %q", s.sql, s.mark, resp.SQL)
		}
		return 0, nil
	case "batch":
		return checkBatch(r, body)
	case "stream":
		return checkStream(r, body)
	}
	return len(r.stmts), fmt.Errorf("unknown request kind %q", r.kind)
}

func boolBad(err error) (int, error) {
	if err != nil {
		return 1, err
	}
	return 0, nil
}

func checkParse(r *request, resp *server.ParseResponse) error {
	s := r.stmts[0]
	if resp.Dialect != r.preset || resp.Want != r.kind {
		return fmt.Errorf("answered dialect %q want %q, asked %q %q", resp.Dialect, resp.Want, r.preset, r.kind)
	}
	if err := checkVerdict(s, resp.OK, resp.Error, resp.Diagnostics, 0, len(s.sql)); err != nil {
		return err
	}
	switch r.kind {
	case "ast":
		if len(resp.Statements) != 1 {
			return fmt.Errorf("ast of %q has %d statements", s.sql, len(resp.Statements))
		}
		st := resp.Statements[0]
		if s.kind != "" && st.Type != s.kind {
			return fmt.Errorf("ast of %q typed %q, want %q", s.sql, st.Type, s.kind)
		}
		if !strings.Contains(st.SQL, s.mark) {
			return fmt.Errorf("ast rendering of %q lost literal %s", s.sql, s.mark)
		}
	case "analysis":
		if len(resp.Analysis) != 1 {
			return fmt.Errorf("analysis of %q has %d records", s.sql, len(resp.Analysis))
		}
		if s.kind != "" && resp.Analysis[0].Kind != s.kind {
			return fmt.Errorf("analysis of %q kind %q, want %q", s.sql, resp.Analysis[0].Kind, s.kind)
		}
	}
	return nil
}

// checkVerdict compares a verdict with the known answer; a rejection must
// carry diagnostics lying inside the statement's span [lo, hi].
func checkVerdict(s stmt, ok bool, errDiag *server.Diagnostic, diags []*server.Diagnostic, lo, hi int) error {
	if ok != s.valid {
		return fmt.Errorf("verdict ok=%t for %q, want %t", ok, s.sql, s.valid)
	}
	if ok {
		return nil
	}
	if errDiag == nil && diags == nil {
		// Stream records carry only the recovery view.
		return fmt.Errorf("rejection of %q carries no diagnostics", s.sql)
	}
	if len(diags) == 0 {
		return fmt.Errorf("rejection of %q carries no recovery diagnostics", s.sql)
	}
	for _, d := range diags {
		if d.Off < lo || d.Off > hi || (d.End != 0 && (d.End < d.Off || d.End > hi)) {
			return fmt.Errorf("diagnostic [%d,%d) of %q outside its statement [%d,%d)", d.Off, d.End, s.sql, lo, hi)
		}
	}
	return nil
}

func checkBatch(r *request, body []byte) (int, error) {
	var resp server.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return len(r.stmts), fmt.Errorf("decode batch response: %w", err)
	}
	if resp.Dialect != "custom" || len(resp.Results) != len(r.stmts) {
		return len(r.stmts), fmt.Errorf("batch answered dialect %q with %d results, want custom with %d",
			resp.Dialect, len(resp.Results), len(r.stmts))
	}
	bad, rejected := 0, 0
	var first error
	for i, res := range resp.Results {
		s := r.stmts[i]
		if !s.valid {
			rejected++
		}
		if err := checkVerdict(s, res.OK, res.Error, res.Diagnostics, 0, len(s.sql)); err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	if resp.Rejected != rejected || resp.Accepted != len(r.stmts)-rejected {
		return len(r.stmts), fmt.Errorf("batch counts %d/%d, want %d/%d",
			resp.Accepted, resp.Rejected, len(r.stmts)-rejected, rejected)
	}
	return bad, first
}

func checkStream(r *request, body []byte) (int, error) {
	lines := bytes.Split(bytes.TrimRight(body, "\n"), []byte{'\n'})
	if len(lines) != len(r.stmts)+1 {
		return len(r.stmts), fmt.Errorf("stream answered %d lines for %d statements", len(lines), len(r.stmts))
	}
	bad, rejected, off := 0, 0, 0
	var first error
	fail := func(err error) {
		bad++
		if first == nil {
			first = err
		}
	}
	for i, s := range r.stmts {
		if !s.valid {
			rejected++
		}
		var rec server.StreamResult
		if err := json.Unmarshal(lines[i], &rec); err != nil {
			fail(fmt.Errorf("decode stream record %d: %w", i, err))
			continue
		}
		end := rec.Off + rec.Bytes
		if rec.Seq != i || rec.Off != off || end > len(r.body) ||
			string(bytes.TrimSpace(r.body[rec.Off:end])) != s.sql+";" {
			fail(fmt.Errorf("stream record %d (seq %d, span [%d,%d)) does not cover statement %q", i, rec.Seq, rec.Off, end, s.sql))
			off = end
			continue
		}
		off = end
		if err := checkVerdict(s, rec.OK, nil, rec.Diagnostics, rec.Off, end); err != nil {
			fail(err)
		}
	}
	var sum server.StreamSummary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || !sum.Summary {
		return len(r.stmts), fmt.Errorf("stream trailer missing or malformed: %s", lines[len(lines)-1])
	}
	if sum.Error != "" || sum.Dialect != r.preset || sum.Statements != len(r.stmts) ||
		sum.Rejected != rejected || sum.Accepted != len(r.stmts)-rejected {
		return len(r.stmts), fmt.Errorf("stream trailer %+v does not match %d statements, %d rejected", sum, len(r.stmts), rejected)
	}
	return bad, first
}
