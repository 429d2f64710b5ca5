package rt

import (
	"fmt"
	"slices"
	"sync"
)

// Parser is one product's parser on the runtime: its tables — scanner
// configuration, diagnostic display names and compiled grammar program —
// plus the pool of run states its calls reuse. A generated parser declares
// it as a package-level composite literal; the interpreted engine
// (internal/parser) builds the same value at run time. All methods are
// safe for concurrent use; a Parser must not be copied.
type Parser struct {
	// Keywords finds the reserved words by their upper-cased spelling.
	Keywords KeywordTable
	// Puncts maps a punctuation lexeme's first byte to its candidates in
	// maximal-munch order.
	Puncts [256][]Punct
	// Classes binds the lexical classes.
	Classes Classes
	// Displays maps terminal names to their diagnostic rendering: keywords
	// upper-cased, punctuation quoted, class tokens by name. Names with no
	// entry are dropped from expected sets.
	Displays map[string]string
	// Program is the compiled grammar both passes walk: the greedy pass
	// first, the packrat pass when it cannot prove the input.
	Program *Program
	// MaxTokens caps the token count Parse, Check and Accepts take on, as
	// a defence against pathological inputs; 0 means no cap.
	MaxTokens int

	runs sync.Pool
}

// Bits is an interned-id bitset over the token universe — the FIRST-set
// representation prediction tests against. Codegen prints one literal per
// distinct set; all sets of a product share the same word width.
type Bits []uint64

// has reports whether id is in the set; -1 (end of input, or a terminal
// the grammar never references) never is.
func (b Bits) has(id int32) bool {
	return id >= 0 && b[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

// Retention guards: pooled runs must not pin pathological buffers forever.
const (
	maxRetainedMemoSlots = 1 << 18
	maxRetainedFailWords = 1 << 14 // 1M (production, position) pairs
	maxRetainedExpected  = 1 << 10
	maxRetainedResults   = 1 << 16
	maxRetainedTokens    = 1 << 13
	maxRetainedChunks    = 64
)

// Slab sizes for tree nodes and forest (child-list) storage.
const (
	treeChunkLen   = 256
	forestChunkLen = 512
)

// treeSlab hands out Tree values from fixed-size chunks. alloc always
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

// recycle makes every chunk reusable for the next pass, zeroing used
// slots so pooled chunks neither pin token slices from finished parses
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

// handoff transfers ownership of every chunk that handed out a node to
// the tree being returned: transferred chunks leave the slab, untouched
// spares stay for the next run.
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

// forestSlab carves child-list ([]*Tree) storage out of fixed-size
// chunks. Requests larger than a chunk fall back to the heap and escape
// with the tree they belong to.
type forestSlab struct {
	chunks [][]*Tree
	ci, ni int
}

// alloc returns a zero-length slice with exact capacity n (three-index
// slicing), so an append beyond it can never bleed into a neighbour.
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

// recycle resets the slab. Used slots point only at slab-owned Tree
// values, which treeSlab.recycle has already zeroed, so no clearing is
// needed to break retention chains.
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

// Run is the per-call parse state, recycled through its Parser's pool.
type Run struct {
	// toks is the pooled token buffer the scanner fills, handed off with
	// the tree when a parse returns one; ids holds each token's interned
	// terminal id in parallel.
	toks []Token
	ids  []int32

	memo  []memoEntry
	gen   uint64
	width int

	// fails is the greedy pass's bitset of (production, position) pairs
	// known to fail, and budget its remaining node visits.
	fails  []uint64
	budget int

	// results is the arena memoised result lists live in.
	results []result

	// scratch stacks for result lists under construction and repeat
	// visited-sets; recursion depth d borrows slot d.
	scratch  [][]result
	scratchN int
	ints     [][]int
	intsN    int

	// Slab allocators for tree nodes and child lists; chunks backing a
	// returned tree are handed off to the caller, spares stay pooled.
	trees   treeSlab
	forests forestSlab

	buildTrees bool
	far        int
	track      bool
	// expected collects the ids of the terminals wanted at far,
	// duplicates included; the tracked pass compacts and names them.
	expected []int32
}

// GetRun draws a run state from the parser's pool; PutRun returns it.
func (p *Parser) GetRun() *Run {
	r, _ := p.runs.Get().(*Run)
	if r == nil {
		r = &Run{}
	}
	return r
}

// PutRun returns a run to the pool. Slabs are recycled (zeroing anything
// a failed tree pass left behind) and oversized buffers dropped, so a
// pooled run holds no references into finished parses: returned trees
// own their chunks and token slices independently.
func (p *Parser) PutRun(r *Run) {
	r.buildTrees = false
	r.trees.recycle()
	r.forests.recycle()
	if len(r.memo) > maxRetainedMemoSlots {
		r.memo = nil
	}
	if cap(r.fails) > maxRetainedFailWords {
		r.fails = nil
	}
	if cap(r.expected) > maxRetainedExpected {
		r.expected = nil
	}
	if cap(r.results) > maxRetainedResults {
		r.results = nil
	}
	if cap(r.toks) > maxRetainedTokens {
		r.toks = nil
	}
	if cap(r.ids) > maxRetainedTokens {
		r.ids = nil
	}
	if len(r.trees.chunks) > maxRetainedChunks {
		r.trees.chunks = nil
	}
	if len(r.forests.chunks) > maxRetainedChunks {
		r.forests.chunks = nil
	}
	p.runs.Put(r)
}

// scrub zeroes every scratch and arena slot so the pooled run retains no
// reference into the forest chunks just handed off with a returned tree.
// Only the tree-returning path pays for it; Check and Accepts never hold
// forests, and failed passes reference only slab-owned (recycled) chunks.
func (r *Run) scrub() {
	clear(r.results[:cap(r.results)])
	for i := range r.scratch {
		s := r.scratch[i]
		clear(s[:cap(s)])
	}
}

// begin prepares the run for one pass over the scanned tokens with a memo
// of prods rows. Tokens carry their interned ids from the scanner, so
// there is no per-pass interning step.
func (r *Run) begin(prods int, track, buildTrees bool) {
	r.far = -1
	r.track = track
	r.buildTrees = buildTrees
	r.expected = r.expected[:0]
	r.width = len(r.toks) + 1
	need := prods * r.width
	if need > len(r.memo) {
		size := 2 * len(r.memo)
		if size < need {
			size = need
		}
		r.memo = make([]memoEntry, size)
		r.gen = 0
	}
	r.gen++
	r.results = r.results[:0]
	r.trees.recycle()
	r.forests.recycle()
}

// Tokens returns the tokens the run has scanned.
func (r *Run) Tokens() []Token { return r.toks }

// id returns the interned id of the token at pos (-1 at end of input or
// for terminals the grammar never references).
func (r *Run) id(pos int) int32 {
	if pos < len(r.ids) {
		return r.ids[pos]
	}
	return -1
}

// pass runs the packrat pass over the run's scan from the start
// production and returns its results, longest first.
func (p *Parser) pass(r *Run, track, buildTrees bool) []result {
	pg := p.Program
	r.begin(len(pg.Prods), track, buildTrees)
	return r.parseNT(pg, pg.Start, 0)
}

// packrat runs the packrat pass without tracking expectations and
// reports whether the start production derives the run's whole scan.
func (p *Parser) packrat(r *Run) bool {
	rs := p.pass(r, false, false)
	return len(rs) > 0 && rs[0].end == len(r.toks)
}

// verdict runs the packrat pass with expectations tracked: nil when the
// start production derives the run's whole scan, otherwise the syntax
// error at the farthest failure, pointing past the last token at EOF.
func (p *Parser) verdict(r *Run) *SyntaxError {
	results := p.pass(r, true, false)
	far := r.far
	for _, res := range results {
		if res.end == len(r.toks) {
			return nil
		}
		if res.end > far {
			far = res.end
			r.expected = r.expected[:0]
		}
	}
	toks := r.toks
	e := &SyntaxError{}
	if far >= 0 && far < len(toks) {
		t := toks[far]
		e.Line, e.Col = t.Line, t.Col
		e.Span = Span{Start: t.Off, End: t.End}
		e.Found = t.String()
	} else {
		e.Found = "end of input"
		e.Line, e.Col = 1, 1
		if n := len(toks); n > 0 {
			last := toks[n-1]
			e.Line, e.Col = last.EndPos()
			e.Span = Span{Start: last.End, End: last.End}
		}
	}
	e.Span.Line, e.Span.Col = e.Line, e.Col
	slices.Sort(r.expected)
	ids := slices.Compact(r.expected)
	if len(ids) > 0 {
		e.Expected = make([]string, 0, len(ids))
	}
	for _, id := range ids {
		if d, ok := p.Displays[p.Program.Tokens[id]]; ok {
			e.Expected = append(e.Expected, d)
		}
	}
	slices.Sort(e.Expected)
	e.Expected = slices.Compact(e.Expected)
	return e
}

// CheckRun checks tokens [lo, hi) of the run's scan as one input, the way
// statement recovery checks each statement of a script: nil when the start
// production derives exactly those tokens, otherwise the syntax error at
// their farthest failure. The run's tokens are left as they were.
//
// The greedy pass answers first; only when it cannot prove the tokens
// does the packrat pass run, once, with expectations tracked, so one pass
// yields both the verdict and the error.
func (p *Parser) CheckRun(r *Run, lo, hi int) *SyntaxError {
	toks, ids := r.toks, r.ids
	r.toks, r.ids = toks[lo:hi], ids[lo:hi]
	var err *SyntaxError
	if !r.prove(p.Program) {
		err = p.verdict(r)
	}
	r.toks, r.ids = toks, ids
	return err
}

// parseRun parses the run's whole scan into a tree, or returns the syntax
// error of the rejected input. The tree owns its nodes and tokens: they
// are handed off, and the run keeps no reference to them. The tree pass
// tracks no expectations; only a reject pays for the tracked pass.
func (p *Parser) parseRun(r *Run) (*Tree, *SyntaxError) {
	if rs := p.pass(r, false, true); len(rs) > 0 && rs[0].end == len(r.toks) {
		// A production's every result is one node labelled with its name.
		tree := rs[0].forest[0]
		// Ownership of every chunk backing the tree — and of the token
		// slice its leaves point into — moves to the caller; then drop the
		// run's remaining references into those chunks.
		r.trees.handoff()
		r.forests.handoff()
		r.scrub()
		r.toks = nil
		return tree, nil
	}
	return nil, p.verdict(r)
}

// CheckLen enforces MaxTokens on an input of n tokens: nil within the
// cap, otherwise the error Parse and Check fail with.
func (p *Parser) CheckLen(n int) error {
	if p.MaxTokens > 0 && n > p.MaxTokens {
		return fmt.Errorf("input of %d tokens exceeds configured maximum %d", n, p.MaxTokens)
	}
	return nil
}

// scanAll scans src afresh into r and enforces MaxTokens.
func (p *Parser) scanAll(r *Run, src string) error {
	if _, err := p.ScanRun(r, src, 0, 1, 1); err != nil {
		return err
	}
	return p.CheckLen(len(r.toks))
}

// Parse scans and parses src, requiring the whole input to be consumed.
// The returned tree owns its nodes and tokens. Empty input — whitespace
// or comment-only — parses to a childless node labelled with the start
// symbol.
func (p *Parser) Parse(src string) (*Tree, error) {
	r := p.GetRun()
	defer p.PutRun(r)
	if err := p.scanAll(r, src); err != nil {
		return nil, err
	}
	if len(r.toks) == 0 {
		return &Tree{Label: p.Program.Names[p.Program.Start]}, nil
	}
	tree, err := p.parseRun(r)
	if err != nil {
		return nil, err
	}
	return tree, nil
}

// Check reports whether src is in the product's language, returning nil on
// accept and the scan or syntax error otherwise. It builds no tree: the
// accept path performs zero heap allocations in steady state. Empty input
// checks clean, matching Parse.
func (p *Parser) Check(src string) error {
	r := p.GetRun()
	defer p.PutRun(r)
	if err := p.scanAll(r, src); err != nil {
		return err
	}
	if len(r.toks) == 0 {
		return nil
	}
	if err := p.CheckRun(r, 0, len(r.toks)); err != nil {
		return err
	}
	return nil
}

// Accepts reports whether src is in the product's language. Unlike Check
// it stays strict on empty input: membership of "" is a grammar question.
func (p *Parser) Accepts(src string) bool {
	r := p.GetRun()
	defer p.PutRun(r)
	if err := p.scanAll(r, src); err != nil {
		return false
	}
	return r.prove(p.Program) || p.packrat(r)
}

// ReservedWords returns the product's reserved words, sorted.
func (p *Parser) ReservedWords() []string {
	out := make([]string, 0, len(p.Keywords.Words))
	for _, k := range p.Keywords.Words {
		out = append(out, k.Text)
	}
	slices.Sort(out)
	return out
}
