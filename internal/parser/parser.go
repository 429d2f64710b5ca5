// Package parser turns composed grammars into working parsers.
//
// The engine interprets a grammar.Grammar directly: recursive descent with
// ordered alternatives, full backtracking, memoisation per (production,
// position), and FIRST-set prediction to prune alternatives that cannot
// match the lookahead token. This combination plays the role ANTLR plays in
// the paper's prototype: it accepts the LL(k) grammars produced by feature
// composition — including compositions whose appended choices share
// prefixes, which pure LL(1) prediction cannot separate (ANTLR resolves
// those with syntactic predicates; we resolve them by backtracking).
//
// Composed grammars must be validated (grammar.Validate) before parsing:
// the engine requires the absence of left recursion to terminate.
//
// # Concurrency
//
// A built Parser is immutable and safe for concurrent use: any number of
// goroutines may call Parse, ParseTokens, Accepts and Check on one shared
// Parser. All mutable state of a parse — the memo table, interned token
// ids, slab allocators and error bookkeeping — lives in a per-call run
// object; the Parser itself (grammar, compiled program, lexer, options) is
// only ever read after New returns. Run objects are recycled through a
// sync.Pool so steady-state parsing allocates no fresh memo tables — the
// serving-path contract the product catalog (package product) relies on
// when many goroutines share one cached product.
//
// # Memory
//
// The warm path is designed to allocate nothing per query. The packrat
// memo is a flat dense slice indexed production×position and invalidated
// by a generation counter, so reuse costs neither hashing nor clearing.
// Tree nodes and forest (child-list) storage come from per-run slab
// allocators in fixed-size chunks. When Parse returns a tree, the chunks
// that back it are handed off: ownership transfers to the caller, the
// pooled run keeps only its untouched spare chunks, and every dangling
// reference into the transferred chunks is scrubbed before the run is
// pooled. Returned parse trees therefore remain valid indefinitely after
// the run is recycled — the documented "tree outlives the pooled run"
// contract. Accepts and Check never materialise trees at all, so their
// accept path performs zero heap allocations in steady state.
package parser

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/grammar"
	"sqlspl/internal/lexer"
)

// Counters is a snapshot of process-wide hot-path counters, aggregated
// across every Parser in the process. The serving layer samples it at
// metrics-scrape time (internal/telemetry CounterFunc), which is why it
// lives here: the parser keeps its own atomics and stays free of any
// telemetry dependency. Each field is read individually; the snapshot is
// not one consistent cut, but every field is monotone.
type Counters struct {
	// Parses counts full parse passes requested: one per Parse, ParseTokens,
	// Accepts or Check call that reached the engine.
	Parses uint64
	// Rejects counts parses that rejected their input.
	Rejects uint64
	// ErrorPasses counts second (expected-token-tracking) passes. Rejected
	// inputs on the error-reporting entry points (Parse, ParseTokens, Check)
	// pay for one; accepted inputs never do, and Accepts skips it entirely.
	ErrorPasses uint64
	// Tokens counts tokens fed to the engine.
	Tokens uint64
	// Recoveries counts ParseRecover calls that entered the slow
	// statement-resynchronization path (rejected or unscannable scripts).
	Recoveries uint64
	// Diagnostics counts diagnostics produced by recovery, sentinels
	// included.
	Diagnostics uint64
}

// hot holds the counters behind HotCounters. One atomic add per parse (two
// on the reject path) — negligible against even the smallest parse.
var hot struct {
	parses, rejects, errorPasses, tokens atomic.Uint64
	recoveries, diagnostics              atomic.Uint64
}

// HotCounters returns the current process-wide parse counters.
func HotCounters() Counters {
	return Counters{
		Parses:      hot.parses.Load(),
		Rejects:     hot.rejects.Load(),
		ErrorPasses: hot.errorPasses.Load(),
		Tokens:      hot.tokens.Load(),
		Recoveries:  hot.recoveries.Load(),
		Diagnostics: hot.diagnostics.Load(),
	}
}

// Tree is a node of the concrete parse tree: a production node (Label
// set) or a token leaf. It is the runtime's tree type (package rt), so
// generated and interpreted parsers return the same trees; semantic
// actions (package ast) consume it.
type Tree = rt.Tree

// Options tunes the engine. The zero value is the production configuration.
type Options struct {
	// DisablePrediction turns off FIRST-set pruning at choice points,
	// forcing pure backtracking. Used by the ablation benchmarks
	// (EXPERIMENTS.md, ablation 1); roughly an order of magnitude slower on
	// wide grammars.
	DisablePrediction bool
	// MaxTokens caps input length as a defence against pathological inputs
	// in embedded deployments; 0 means no cap.
	MaxTokens int
	// MaxDiagnostics caps how many diagnostics ParseRecover reports before
	// appending the TooManyErrors sentinel and stopping; 0 means
	// DefaultMaxDiagnostics.
	MaxDiagnostics int
}

// Parser parses SQL text for one composed product grammar.
//
// A Parser is safe for concurrent use: all fields are read-only after New,
// and each Parse call draws its mutable run-state from an internal pool.
type Parser struct {
	g    *grammar.Grammar
	lex  *lexer.Lexer
	an   *grammar.Analysis
	opts Options

	// compiled holds the grammar in compiled form: productions as pointer
	// nodes with cached nullable/FIRST annotations, token names interned to
	// integer ids so prediction is a bitset test.
	compiled *program

	// display maps terminal names to their diagnostic rendering (keyword
	// spellings upper-cased, punctuation quoted); names absent from the map
	// are dropped from expected sets.
	display map[string]string

	// runs recycles per-parse state (*run) so steady-state parsing reuses
	// memo tables, slabs and token buffers instead of reallocating them per
	// call.
	runs sync.Pool
}

// New validates the grammar against the token set, builds the configured
// scanner, and compiles the grammar with its prediction sets. It fails if
// the grammar has undefined nonterminals, left recursion, or tokens missing
// from the set.
func New(g *grammar.Grammar, ts *grammar.TokenSet, opts Options) (*Parser, error) {
	if err := grammar.Validate(g, ts); err != nil {
		return nil, err
	}
	lx, err := lexer.New(ts)
	if err != nil {
		return nil, err
	}
	p := &Parser{g: g, lex: lx, an: grammar.Analyze(g), opts: opts}
	p.compiled = compile(g, p.an)
	p.display = displayNames(ts)
	return p, nil
}

// Grammar returns the product grammar the parser was built from.
func (p *Parser) Grammar() *grammar.Grammar { return p.g }

// Lexer returns the configured scanner (shared, concurrency-safe).
func (p *Parser) Lexer() *lexer.Lexer { return p.lex }

// SyntaxError reports a parse failure at the farthest position reached:
// the offending token (or the point past the last token at end of input)
// and the display names of the tokens that would have allowed progress.
// It is the runtime's type (package rt), shared with generated parsers.
type SyntaxError = rt.SyntaxError

// Parse scans and parses src, returning the parse tree rooted at the
// grammar's start symbol. The whole input must be consumed. The returned
// tree owns its nodes and tokens: it stays valid after the parse's pooled
// run-state is recycled. Empty input — whitespace/comment-only — parses
// to a childless tree labelled with the start symbol.
func (p *Parser) Parse(src string) (*Tree, error) {
	r := p.getRun()
	toks, err := p.lex.ScanInto(src, r.tokBuf[:0])
	r.tokBuf = toks
	if err != nil {
		p.putRun(r)
		return nil, err
	}
	if err := p.checkMaxTokens(toks); err != nil {
		p.putRun(r)
		return nil, err
	}
	tree, perr := p.parseTree(r, toks)
	if tree != nil && len(toks) > 0 {
		// The tree's leaves point into the scanned token slice: the buffer's
		// ownership transfers to the tree, the pool starts a fresh one.
		r.tokBuf = nil
	}
	p.putRun(r)
	return tree, perr
}

// ParseTokens parses an already-scanned token stream. The returned tree
// references toks; it is the caller's job to keep that slice alive.
func (p *Parser) ParseTokens(toks []lexer.Token) (*Tree, error) {
	if err := p.checkMaxTokens(toks); err != nil {
		return nil, err
	}
	r := p.getRun()
	tree, err := p.parseTree(r, toks)
	p.putRun(r)
	return tree, err
}

// Accepts reports whether src parses under this grammar: the warm serving
// path behind accept/reject matrices and batch verdicts. It materialises
// no tree and skips the error-reporting pass, so in steady state the
// accept path performs zero heap allocations.
func (p *Parser) Accepts(src string) bool {
	r := p.getRun()
	toks, err := p.lex.ScanInto(src, r.tokBuf[:0])
	r.tokBuf = toks
	if err != nil || p.checkMaxTokens(toks) != nil {
		p.putRun(r)
		return false
	}
	hot.parses.Add(1)
	hot.tokens.Add(uint64(len(toks)))
	r.begin(toks, false, false)
	_, ok := r.rootResult()
	if !ok {
		hot.rejects.Add(1)
	}
	p.putRun(r)
	return ok
}

// Check reports whether src is in the language, returning nil on accept
// and the scan or syntax error otherwise. Like Accepts it builds no tree
// (the accept path is allocation-free); unlike Accepts a reject pays for
// the second, expected-token-tracking pass to produce a full *SyntaxError.
// Empty input (whitespace/comment-only) checks clean, matching Parse's
// empty tree.
func (p *Parser) Check(src string) error {
	r := p.getRun()
	toks, err := p.lex.ScanInto(src, r.tokBuf[:0])
	r.tokBuf = toks
	if err != nil {
		p.putRun(r)
		return err
	}
	if len(toks) == 0 {
		p.putRun(r)
		return nil
	}
	if err := p.checkMaxTokens(toks); err != nil {
		p.putRun(r)
		return err
	}
	hot.parses.Add(1)
	hot.tokens.Add(uint64(len(toks)))
	r.begin(toks, false, false)
	if _, ok := r.rootResult(); ok {
		p.putRun(r)
		return nil
	}
	serr := p.errorPass(r, toks)
	p.putRun(r)
	return serr
}

func (p *Parser) checkMaxTokens(toks []lexer.Token) error {
	if p.opts.MaxTokens > 0 && len(toks) > p.opts.MaxTokens {
		return fmt.Errorf("input of %d tokens exceeds configured maximum %d", len(toks), p.opts.MaxTokens)
	}
	return nil
}

// parseTree runs the tree-building fast pass over toks and, on rejection,
// the tracked error pass. r must be fresh from getRun; the caller putRuns.
func (p *Parser) parseTree(r *run, toks []lexer.Token) (*Tree, error) {
	if len(toks) == 0 {
		// Empty input — nothing left after whitespace and comments — is a
		// clean "no statements" parse, not a farthest-failure at EOF: an
		// empty tree labelled with the start symbol. (Accepts deliberately
		// stays strict: language membership of "" is a grammar question,
		// and accept/reject matrices pin it.)
		return &Tree{Label: p.g.Start}, nil
	}
	hot.parses.Add(1)
	hot.tokens.Add(uint64(len(toks)))
	// Fast pass: parse without collecting expected-token sets. Only when
	// the input is rejected do we parse again with tracking on, so accepted
	// inputs never pay for error bookkeeping.
	r.begin(toks, false, true)
	if res, ok := r.rootResult(); ok {
		var tree *Tree
		if len(res.forest) == 1 {
			tree = res.forest[0]
		} else {
			tree = r.newNode(p.g.Start, res.forest)
		}
		// Ownership of every chunk backing the tree moves to the caller;
		// then drop the run's remaining references into those chunks.
		r.trees.handoff()
		r.forests.handoff()
		r.scrub()
		return tree, nil
	}
	return nil, p.errorPass(r, toks)
}

// errorPass re-parses with expected-token tracking and builds the syntax
// error from the farthest failure. Successful prefixes that stop short of
// EOF count as failures at their end position.
func (p *Parser) errorPass(r *run, toks []lexer.Token) *SyntaxError {
	hot.rejects.Add(1)
	hot.errorPasses.Add(1)
	r.begin(toks, true, false)
	results := r.parseNT(p.compiled.start, 0)
	far := r.far
	for _, res := range results {
		if res.end > far {
			far = res.end
			clear(r.expected)
		}
	}
	return r.syntaxError(far)
}

func (r *run) syntaxError(pos int) *SyntaxError {
	e := &SyntaxError{}
	if pos >= 0 && pos < len(r.toks) {
		t := r.toks[pos]
		e.Line, e.Col = t.Line, t.Col
		e.Span = Span{Start: t.Off, End: t.End, Line: t.Line, Col: t.Col}
		e.Found = t.String()
	} else {
		e.Found = "end of input"
		if n := len(r.toks); n > 0 {
			// Point just past the last token, not at its start.
			last := r.toks[n-1]
			e.Line, e.Col = last.EndPos()
			e.Span = Span{Start: last.End, End: last.End, Line: e.Line, Col: e.Col}
		} else {
			e.Line, e.Col = 1, 1
			e.Span = Span{Line: 1, Col: 1}
		}
	}
	e.Expected = r.p.displayExpected(r.expected)
	return e
}

// result is one way an expression can match starting at some position:
// it consumed tokens up to end (exclusive) and produced this forest.
type result struct {
	end    int
	forest []*Tree
}

// memoEntry is one slot of the flat packrat table. A slot is live when its
// generation stamp equals the run's current generation; anything else is
// an empty slot, which is how the whole table is "cleared" in O(1) between
// passes. Live slots reference run.results[off:off+n]; n == 0 is a
// memoised failure — as cacheable as a hit.
type memoEntry struct {
	gen uint64
	off int32
	n   int32
}

// Slab geometry. Chunks are fixed-size so handoff is a slice-header move.
const (
	treeChunkLen   = 256
	forestChunkLen = 512
)

// treeSlab hands out Tree nodes from fixed-size chunks. alloc always
// returns a zeroed node: fresh chunks are zero, recycle zeroes the used
// region, and handoff removes transferred chunks entirely.
type treeSlab struct {
	chunks [][]Tree
	ci, ni int // next free slot is chunks[ci][ni]
}

func (s *treeSlab) alloc() *Tree {
	if s.ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]Tree, treeChunkLen))
	}
	t := &s.chunks[s.ci][s.ni]
	if s.ni++; s.ni == treeChunkLen {
		s.ci++
		s.ni = 0
	}
	return t
}

// recycle makes every chunk reusable for the next pass. Used slots are
// zeroed so pooled chunks neither pin token slices from finished parses
// nor leak stale fields into the next alloc.
func (s *treeSlab) recycle() {
	for i := 0; i < s.ci; i++ {
		clear(s.chunks[i])
	}
	if s.ci < len(s.chunks) && s.ni > 0 {
		clear(s.chunks[s.ci][:s.ni])
	}
	s.ci, s.ni = 0, 0
}

// handoff transfers ownership of every chunk that handed out a node to the
// tree being returned: those chunks are dropped from the slab (the slice
// headers are nilled so the pool cannot retain them), untouched spare
// chunks stay for the next run.
func (s *treeSlab) handoff() {
	used := s.ci
	if s.ni > 0 {
		used++
	}
	if used == 0 {
		return
	}
	n := copy(s.chunks, s.chunks[used:])
	for i := n; i < len(s.chunks); i++ {
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:n]
	s.ci, s.ni = 0, 0
}

// forestSlab carves child-list ([]*Tree) storage out of fixed-size chunks.
// Requests larger than a chunk fall back to the heap and escape with the
// tree they belong to.
type forestSlab struct {
	chunks [][]*Tree
	ci, ni int
}

// alloc returns a zero-length slice with capacity n. The capacity is exact
// (three-index slicing), so an append beyond it can never bleed into a
// neighbouring allocation.
func (s *forestSlab) alloc(n int) []*Tree {
	if n > forestChunkLen {
		return make([]*Tree, 0, n)
	}
	if s.ci == len(s.chunks) || s.ni+n > forestChunkLen {
		if s.ci < len(s.chunks) {
			s.ci++ // retire the current chunk; its tail is wasted
		}
		if s.ci == len(s.chunks) {
			s.chunks = append(s.chunks, make([]*Tree, forestChunkLen))
		}
		s.ni = 0
	}
	c := s.chunks[s.ci]
	out := c[s.ni : s.ni : s.ni+n]
	s.ni += n
	return out
}

// recycle resets the slab. Used slots point only at slab-owned Tree nodes,
// which treeSlab.recycle has already zeroed, so no clearing is needed to
// break retention chains.
func (s *forestSlab) recycle() { s.ci, s.ni = 0, 0 }

// handoff mirrors treeSlab.handoff for the forest chunks backing a
// returned tree's child lists.
func (s *forestSlab) handoff() {
	used := s.ci
	if s.ni > 0 {
		used++
	}
	if used == 0 {
		return
	}
	n := copy(s.chunks, s.chunks[used:])
	for i := n; i < len(s.chunks); i++ {
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:n]
	s.ci, s.ni = 0, 0
}

// Retention guards: pooled runs keep buffers for reuse, but one
// pathological query must not pin arbitrarily large buffers in the pool
// forever. Anything over these bounds is dropped on putRun.
const (
	maxRetainedMemoSlots = 1 << 18 // 4 MiB of memoEntry
	maxRetainedResults   = 1 << 16
	maxRetainedTokens    = 1 << 13
	maxRetainedChunks    = 64
)

// run is the per-parse state.
type run struct {
	p    *Parser
	toks []lexer.Token
	ids  []int // interned token ids, parallel to toks

	// memo is the flat packrat table, indexed prod*width+pos and sized from
	// the compiled program; gen invalidates it in O(1) per pass.
	memo  []memoEntry
	gen   uint64
	width int // positions per production row: len(toks)+1

	// results is the arena memoised result lists live in; memo entries
	// reference spans of it. Truncated (never freed) between passes.
	results []result

	// scratch is a stack of reusable result buffers for lists still under
	// construction; recursion depth d borrows scratch[d]. ints is the same
	// for parseRepeat's visited sets.
	scratch  [][]result
	scratchN int
	ints     [][]int
	intsN    int

	trees   treeSlab
	forests forestSlab

	// tokBuf is the pooled token buffer behind Parse/Accepts/Check; handed
	// off with the tree when a parse returns one.
	tokBuf []lexer.Token

	buildTrees bool // materialise Tree nodes (Parse); false for Accepts/Check
	far        int  // farthest failing token index
	track      bool // collect expected-token sets (error pass)
	expected   map[string]bool
}

// getRun draws per-parse state from the pool (or allocates the first time).
func (p *Parser) getRun() *run {
	r, _ := p.runs.Get().(*run)
	if r == nil {
		r = &run{}
	}
	r.p = p
	return r
}

// putRun returns a run to the pool. Slabs are recycled (zeroing anything a
// failed pass left behind) and oversized buffers dropped, so pooled runs
// hold no references into finished parses: returned trees own their chunks
// and token slices independently.
func (p *Parser) putRun(r *run) {
	r.p = nil
	r.toks = nil
	r.trees.recycle()
	r.forests.recycle()
	if len(r.memo) > maxRetainedMemoSlots {
		r.memo = nil
	}
	if cap(r.results) > maxRetainedResults {
		r.results = nil
	}
	if cap(r.tokBuf) > maxRetainedTokens {
		r.tokBuf = nil
	}
	if len(r.trees.chunks) > maxRetainedChunks {
		r.trees.chunks = nil
	}
	if len(r.forests.chunks) > maxRetainedChunks {
		r.forests.chunks = nil
	}
	p.runs.Put(r)
}

// begin prepares the run for one pass over toks: interns the token stream,
// sizes the flat memo from the compiled program (growing geometrically,
// never shrinking), and invalidates the previous pass via the generation
// counter instead of clearing.
func (r *run) begin(toks []lexer.Token, track, buildTrees bool) {
	p := r.p
	r.toks = toks
	r.far = -1
	r.track = track
	r.buildTrees = buildTrees
	if track {
		if r.expected == nil {
			r.expected = make(map[string]bool, 8)
		} else {
			clear(r.expected)
		}
	}
	if cap(r.ids) < len(toks) {
		r.ids = make([]int, len(toks))
	}
	r.ids = r.ids[:len(toks)]
	for i := range toks {
		if id, ok := p.compiled.tokenID[toks[i].Name]; ok {
			r.ids[i] = id
		} else {
			r.ids[i] = -1 // token never referenced by the grammar
		}
	}
	r.width = len(toks) + 1
	need := len(p.compiled.prods) * r.width
	if need > len(r.memo) {
		size := 2 * len(r.memo)
		if size < need {
			size = need
		}
		r.memo = make([]memoEntry, size)
		r.gen = 0 // fresh table: all slots read as empty under any gen > 0
	}
	r.gen++
	r.results = r.results[:0]
	r.trees.recycle()
	r.forests.recycle()
}

// scrub zeroes every scratch and arena slot so the pooled run retains no
// reference into the forest chunks just handed off with a returned tree.
// Only the tree-returning path pays for it; Accepts and Check never hold
// forests, and failed passes reference only slab-owned (recycled) chunks.
func (r *run) scrub() {
	clear(r.results[:cap(r.results)])
	for i := range r.scratch {
		s := r.scratch[i]
		clear(s[:cap(s)])
	}
}

// rootResult returns the start production's derivation covering the whole
// input, if any.
func (r *run) rootResult() (result, bool) {
	for _, res := range r.parseNT(r.p.compiled.start, 0) {
		if res.end == len(r.toks) {
			return res, true
		}
	}
	return result{}, false
}

// getScratch borrows the next free scratch buffer; putScratch returns it
// (with any capacity growth) in LIFO order.
func (r *run) getScratch() []result {
	if r.scratchN == len(r.scratch) {
		r.scratch = append(r.scratch, make([]result, 0, 8))
	}
	s := r.scratch[r.scratchN][:0]
	r.scratchN++
	return s
}

func (r *run) putScratch(s []result) {
	r.scratchN--
	r.scratch[r.scratchN] = s
}

func (r *run) getInts() []int {
	if r.intsN == len(r.ints) {
		r.ints = append(r.ints, make([]int, 0, 8))
	}
	s := r.ints[r.intsN][:0]
	r.intsN++
	return s
}

func (r *run) putInts(s []int) {
	r.intsN--
	r.ints[r.intsN] = s
}

func (r *run) fail(pos int, want string) {
	if !r.track {
		if pos > r.far {
			r.far = pos
		}
		return
	}
	if pos > r.far {
		r.far = pos
		clear(r.expected)
		r.expected[want] = true
	} else if pos == r.far {
		r.expected[want] = true
	}
}

// idAt returns the interned token id at pos, or -1 at end of input.
func (r *run) idAt(pos int) int {
	if pos < len(r.ids) {
		return r.ids[pos]
	}
	return -1
}

// newNode allocates a labelled interior node from the tree slab.
func (r *run) newNode(label string, children []*Tree) *Tree {
	t := r.trees.alloc()
	t.Label = label
	t.Children = children
	return t
}

// leafForest returns the single-leaf forest for the token at pos, or nil
// when the pass is not materialising trees.
func (r *run) leafForest(pos int) []*Tree {
	if !r.buildTrees {
		return nil
	}
	t := r.trees.alloc()
	t.Token = &r.toks[pos]
	return append(r.forests.alloc(1), t)
}

// nodeForest wraps children under a fresh labelled node and returns it as
// a one-element forest, or nil when the pass is not materialising trees.
func (r *run) nodeForest(label string, children []*Tree) []*Tree {
	if !r.buildTrees {
		return nil
	}
	return append(r.forests.alloc(1), r.newNode(label, children))
}

// merge concatenates two forests without copying when either side is
// empty. Forests are never mutated after construction, so sharing is safe.
func (r *run) merge(a, b []*Tree) []*Tree {
	switch {
	case len(a) == 0:
		return b
	case len(b) == 0:
		return a
	}
	out := r.forests.alloc(len(a) + len(b))
	out = append(out, a...)
	return append(out, b...)
}

// hasEnd reports whether rs already contains a result with the given end
// position. Result lists are tiny, so a linear scan beats a map.
func hasEnd(rs []result, end int) bool {
	for _, r := range rs {
		if r.end == end {
			return true
		}
	}
	return false
}

// containsInt reports membership in parseRepeat's tiny visited sets.
func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// sortByEndDesc orders results longest-first. Lists are almost always one
// to three entries, where insertion sort beats sort.Slice — and, unlike
// it, allocates nothing. End positions are distinct (deduped on insert),
// so the order is total and deterministic.
func sortByEndDesc(rs []result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].end > rs[j-1].end; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// parseNT parses the production with the given index at pos, memoised in
// the flat table.
func (r *run) parseNT(prod int, pos int) []result {
	idx := prod*r.width + pos
	if e := r.memo[idx]; e.gen == r.gen {
		return r.results[e.off : e.off+e.n]
	}
	name := r.p.compiled.names[prod]
	out := r.getScratch()
	tmp := r.getScratch()
	la := r.idAt(pos)
	for _, alt := range r.p.compiled.alts[prod] {
		if !r.p.opts.DisablePrediction && !alt.nullable && !alt.has(la) {
			// Record what this alternative wanted, for error messages.
			if r.track && pos >= r.far {
				for tok := range alt.first {
					r.fail(pos, tok)
				}
			} else if pos > r.far {
				r.far = pos
			}
			continue
		}
		tmp = r.parseExpr(alt, pos, tmp[:0])
		for _, res := range tmp {
			if hasEnd(out, res.end) {
				continue
			}
			out = append(out, result{end: res.end, forest: r.nodeForest(name, res.forest)})
		}
	}
	// Longest-first makes downstream dedup prefer maximal derivations and
	// lets callers that need the full input find it early.
	sortByEndDesc(out)
	off := int32(len(r.results))
	r.results = append(r.results, out...)
	n := int32(len(out))
	r.putScratch(tmp)
	r.putScratch(out)
	r.memo[idx] = memoEntry{gen: r.gen, off: off, n: n}
	return r.results[off : off+n]
}

// parseExpr parses compiled expression n at pos, appending every distinct
// end position (each with one representative forest) to dst.
func (r *run) parseExpr(n *cnode, pos int, dst []result) []result {
	switch n.kind {
	case cTok:
		if r.idAt(pos) == n.id {
			return append(dst, result{end: pos + 1, forest: r.leafForest(pos)})
		}
		r.fail(pos, n.name)
		return dst

	case cNT:
		return append(dst, r.parseNT(n.id, pos)...)

	case cSeq:
		cur := r.getScratch()
		next := r.getScratch()
		tmp := r.getScratch()
		cur = append(cur, result{end: pos})
		for _, item := range n.items {
			next = next[:0]
			for _, c := range cur {
				tmp = r.parseExpr(item, c.end, tmp[:0])
				for _, res := range tmp {
					if hasEnd(next, res.end) {
						continue
					}
					next = append(next, result{end: res.end, forest: r.merge(c.forest, res.forest)})
				}
			}
			if len(next) == 0 {
				cur = cur[:0]
				break
			}
			cur, next = next, cur
		}
		dst = append(dst, cur...)
		r.putScratch(tmp)
		r.putScratch(next)
		r.putScratch(cur)
		return dst

	case cChoice:
		start := len(dst)
		la := r.idAt(pos)
		for _, alt := range n.items {
			if !r.p.opts.DisablePrediction && !alt.nullable && !alt.has(la) {
				if r.track && pos >= r.far {
					for tok := range alt.first {
						r.fail(pos, tok)
					}
				} else if pos > r.far {
					r.far = pos
				}
				continue
			}
			altStart := len(dst)
			dst = r.parseExpr(alt, pos, dst)
			// Keep only ends not already produced by an earlier alternative.
			keep := altStart
			for i := altStart; i < len(dst); i++ {
				if hasEnd(dst[start:keep], dst[i].end) {
					continue
				}
				dst[keep] = dst[i]
				keep++
			}
			dst = dst[:keep]
		}
		return dst

	case cOpt:
		start := len(dst)
		dst = r.parseExpr(n.items[0], pos, dst)
		if hasEnd(dst[start:], pos) {
			return dst // body already produced the empty match
		}
		return append(dst, result{end: pos})

	case cStar:
		return r.parseRepeat(n.items[0], pos, true, dst)

	case cPlus:
		return r.parseRepeat(n.items[0], pos, false, dst)
	}
	return dst
}

// parseRepeat handles Star (allowEmpty) and Plus repetitions: it explores
// every reachable end position, guarding against zero-width iterations.
func (r *run) parseRepeat(body *cnode, pos int, allowEmpty bool, dst []result) []result {
	start := len(dst)
	if allowEmpty {
		dst = append(dst, result{end: pos})
	}
	frontier := r.getScratch()
	next := r.getScratch()
	tmp := r.getScratch()
	visited := r.getInts()
	frontier = append(frontier, result{end: pos})
	visited = append(visited, pos)
	for len(frontier) > 0 {
		next = next[:0]
		for _, st := range frontier {
			tmp = r.parseExpr(body, st.end, tmp[:0])
			for _, res := range tmp {
				if res.end <= st.end || containsInt(visited, res.end) {
					continue // zero-width or already explored
				}
				visited = append(visited, res.end)
				ns := result{end: res.end, forest: r.merge(st.forest, res.forest)}
				next = append(next, ns)
				dst = append(dst, ns)
			}
		}
		frontier, next = next, frontier
	}
	r.putInts(visited)
	r.putScratch(tmp)
	r.putScratch(next)
	r.putScratch(frontier)
	// Longest first: repetitions are greedy by preference.
	sortByEndDesc(dst[start:])
	return dst
}
