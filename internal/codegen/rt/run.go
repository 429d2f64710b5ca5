package rt

import (
	"fmt"
	"slices"
	"sync"
)

// Parser is one product's parser on the runtime: its tables — scanner
// configuration, diagnostic display names, production count, start
// function and compiled grammar program — plus the pool of run states its
// calls reuse. A generated parser declares it as a package-level composite
// literal; the interpreted engine (internal/parser) builds one whose Root
// walks the same program. All methods are safe for concurrent use; a
// Parser must not be copied.
type Parser struct {
	// Keywords maps upper-cased reserved words to their terminal.
	Keywords map[string]Terminal
	// MaxKeywordLen is the longest keyword spelling; longer words cannot
	// be keywords.
	MaxKeywordLen int
	// Puncts maps a punctuation lexeme's first byte to its candidates in
	// maximal-munch order.
	Puncts [256][]Punct
	// Classes binds the lexical classes.
	Classes Classes
	// Displays maps terminal names to their diagnostic rendering: keywords
	// upper-cased, punctuation quoted, class tokens by name. Names with no
	// entry are dropped from expected sets.
	Displays map[string]string
	// Prods is the production count; it sizes the flat memo.
	Prods int
	// Start is the start symbol, and Root parses it.
	Start string
	Root  func(r *Run, pos int) []Result
	// Program is the compiled grammar the greedy pass follows before the
	// packrat pass runs (AcceptRun); nil skips the greedy pass.
	Program *Program
	// MaxTokens caps the token count Parse, Check and Accepts take on, as
	// a defence against pathological inputs; 0 means no cap.
	MaxTokens int

	runs sync.Pool
}

// Result is one way an expression can match starting at some position:
// it consumed tokens up to End (exclusive) and, on the tree path, derived
// Forest.
type Result struct {
	End    int
	Forest []*Tree
}

// Bits is an interned-id bitset over the token universe — the FIRST-set
// representation prediction tests against. The emitter writes one literal
// per distinct set; all literals of a product share the same word width.
type Bits []uint64

// Has reports whether id is in the set; -1 (end of input, or a terminal
// the grammar never references) never is.
func (b Bits) Has(id int32) bool {
	return id >= 0 && b[uint32(id)>>6]&(1<<(uint32(id)&63)) != 0
}

// memoEntry is one slot of the flat packrat table; live when its generation
// stamp equals the run's, which empties the whole table in O(1) per pass.
type memoEntry struct {
	gen uint64
	off int32
	n   int32
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
// The parse functions — emitted or interpreted — receive it and call its
// exported methods.
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
	results []Result

	// scratch stacks for result lists under construction and repeat
	// visited-sets; recursion depth d borrows slot d.
	scratch  [][]Result
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
	// expected collects the terminal names wanted at far, duplicates
	// included; the error pass maps, sorts and compacts them.
	expected []string
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

// Memo looks up the memoised results of production prod at pos. The slot
// it returns is where Memoize stores them on a miss.
func (r *Run) Memo(prod, pos int) (slot int, rs []Result, ok bool) {
	slot = prod*r.width + pos
	if e := r.memo[slot]; e.gen == r.gen {
		return slot, r.results[e.off : e.off+e.n], true
	}
	return slot, nil, false
}

// Memoize copies out — a list borrowed from GetScratch — into the memo
// arena under slot, returns the list to the scratch stack, and returns
// the memoised copy.
func (r *Run) Memoize(slot int, out []Result) []Result {
	off := int32(len(r.results))
	r.results = append(r.results, out...)
	n := int32(len(out))
	r.PutScratch(out)
	r.memo[slot] = memoEntry{gen: r.gen, off: off, n: n}
	return r.results[off : off+n]
}

// ID returns the interned id of the token at pos (-1 at end of input or
// for terminals the grammar never references).
func (r *Run) ID(pos int) int32 {
	if pos < len(r.ids) {
		return r.ids[pos]
	}
	return -1
}

// Fail records that terminal want was expected at pos, keeping only the
// farthest position's expectations.
func (r *Run) Fail(pos int, want string) {
	if pos > r.far {
		r.far = pos
		if r.track {
			r.expected = append(r.expected[:0], want)
		}
	} else if pos == r.far && r.track {
		r.expected = append(r.expected, want)
	}
}

// PredictMiss records a pruned alternative's FIRST set at pos, exactly as
// the interpreted engine does when prediction rejects an alternative.
func (r *Run) PredictMiss(pos int, names []string) {
	if r.track && pos >= r.far {
		for _, n := range names {
			r.Fail(pos, n)
		}
	} else if pos > r.far {
		r.far = pos
	}
}

// GetScratch borrows the next free result list; PutScratch returns it
// (with any capacity growth) in LIFO order.
func (r *Run) GetScratch() []Result {
	if r.scratchN == len(r.scratch) {
		r.scratch = append(r.scratch, make([]Result, 0, 8))
	}
	s := r.scratch[r.scratchN][:0]
	r.scratchN++
	return s
}

// PutScratch returns the most recently borrowed result list.
func (r *Run) PutScratch(s []Result) {
	r.scratchN--
	r.scratch[r.scratchN] = s
}

func (r *Run) getInts() []int {
	if r.intsN == len(r.ints) {
		r.ints = append(r.ints, make([]int, 0, 8))
	}
	s := r.ints[r.intsN][:0]
	r.intsN++
	return s
}

func (r *Run) putInts(s []int) {
	r.intsN--
	r.ints[r.intsN] = s
}

// newTree allocates a labelled interior node from the tree slab.
func (r *Run) newTree(label string, children []*Tree) *Tree {
	t := r.trees.alloc()
	t.Label = label
	t.Children = children
	return t
}

// LeafForest returns the single-leaf forest for the token at pos, or nil
// when the pass is not materialising trees.
func (r *Run) LeafForest(pos int) []*Tree {
	if !r.buildTrees {
		return nil
	}
	t := r.trees.alloc()
	t.Token = &r.toks[pos]
	return append(r.forests.alloc(1), t)
}

// NodeForest wraps children under a labelled node, or nil off the tree
// path.
func (r *Run) NodeForest(label string, children []*Tree) []*Tree {
	if !r.buildTrees {
		return nil
	}
	return append(r.forests.alloc(1), r.newTree(label, children))
}

// WrapAll replaces every result's forest with a labelled node over it
// when the pass materialises trees.
func (r *Run) WrapAll(label string, rs []Result) {
	if !r.buildTrees {
		return
	}
	for k := range rs {
		rs[k].Forest = r.NodeForest(label, rs[k].Forest)
	}
}

// Merge concatenates two forests without copying when either side is
// empty. Forests are never mutated after construction, so sharing is safe.
func (r *Run) Merge(a, b []*Tree) []*Tree {
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

// HasEnd reports whether some result in rs ends at end.
func HasEnd(rs []Result, end int) bool {
	for _, r := range rs {
		if r.End == end {
			return true
		}
	}
	return false
}

// SortByEndDesc orders results longest-first with an allocation-free
// insertion sort (lists are tiny, and end positions are distinct).
func SortByEndDesc(rs []Result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].End > rs[j-1].End; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Repeat explores every reachable end position of body*, guarding against
// zero-width iterations, longest first. body is an emitted top-level
// function or a closure the interpreter builds once per repetition node,
// so constructing the loop allocates nothing.
func (r *Run) Repeat(pos int, allowEmpty bool, dst []Result, body func(r *Run, pos int, dst []Result) []Result) []Result {
	start := len(dst)
	if allowEmpty {
		dst = append(dst, Result{End: pos})
	}
	frontier := r.GetScratch()
	next := r.GetScratch()
	tmp := r.GetScratch()
	visited := r.getInts()
	frontier = append(frontier, Result{End: pos})
	visited = append(visited, pos)
	for len(frontier) > 0 {
		next = next[:0]
		for _, st := range frontier {
			tmp = body(r, st.End, tmp[:0])
			for _, res := range tmp {
				if res.End <= st.End || slices.Contains(visited, res.End) {
					continue
				}
				visited = append(visited, res.End)
				ns := Result{End: res.End, Forest: r.Merge(st.Forest, res.Forest)}
				next = append(next, ns)
				dst = append(dst, ns)
			}
		}
		frontier, next = next, frontier
	}
	r.putInts(visited)
	r.PutScratch(tmp)
	r.PutScratch(next)
	r.PutScratch(frontier)
	SortByEndDesc(dst[start:])
	return dst
}

// accepted reports whether the start production derives the whole input.
func (p *Parser) accepted(r *Run) bool {
	for _, res := range p.Root(r, 0) {
		if res.End == len(r.toks) {
			return true
		}
	}
	return false
}

// errorPass re-parses with expected-token tracking and builds the syntax
// error from the farthest failure, pointing past the last token at EOF.
func (p *Parser) errorPass(r *Run) *SyntaxError {
	r.begin(p.Prods, true, false)
	results := p.Root(r, 0)
	far := r.far
	for _, res := range results {
		if res.End > far {
			far = res.End
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
	if len(r.expected) > 0 {
		e.Expected = make([]string, 0, len(r.expected))
	}
	for _, name := range r.expected {
		if d, ok := p.Displays[name]; ok {
			e.Expected = append(e.Expected, d)
		}
	}
	slices.Sort(e.Expected)
	e.Expected = slices.Compact(e.Expected)
	return e
}

// AcceptRun reports whether the start production derives the run's whole
// scan. It builds no tree and tracks no expectations. The greedy pass
// over Program answers first; only when it cannot prove the input does
// the packrat pass run, so the verdict is the packrat pass's either way.
func (p *Parser) AcceptRun(r *Run) bool {
	if p.Program != nil && r.prove(p.Program) {
		return true
	}
	r.begin(p.Prods, false, false)
	return p.accepted(r)
}

// ErrorRun returns the syntax error of the run's whole scan, which the
// caller already knows AcceptRun rejects: the error pass alone, without
// the accept pass CheckRun would repeat first.
func (p *Parser) ErrorRun(r *Run) *SyntaxError { return p.errorPass(r) }

// CheckRun checks tokens [lo, hi) of the run's scan as one input, the way
// statement recovery checks each statement of a script: nil when the start
// production derives exactly those tokens, otherwise the syntax error at
// their farthest failure. The run's tokens are left as they were.
func (p *Parser) CheckRun(r *Run, lo, hi int) *SyntaxError {
	toks, ids := r.toks, r.ids
	r.toks, r.ids = toks[lo:hi], ids[lo:hi]
	var err *SyntaxError
	if !p.AcceptRun(r) {
		err = p.errorPass(r)
	}
	r.toks, r.ids = toks, ids
	return err
}

// parseRun parses the run's whole scan into a tree, or returns the syntax
// error of the rejected input. The tree owns its nodes and tokens: they
// are handed off, and the run keeps no reference to them.
func (p *Parser) parseRun(r *Run) (*Tree, *SyntaxError) {
	r.begin(p.Prods, false, true)
	for _, res := range p.Root(r, 0) {
		if res.End != len(r.toks) {
			continue
		}
		var tree *Tree
		if len(res.Forest) == 1 {
			tree = res.Forest[0]
		} else {
			tree = r.newTree(p.Start, res.Forest)
		}
		// Ownership of every chunk backing the tree — and of the token
		// slice its leaves point into — moves to the caller; then drop the
		// run's remaining references into those chunks.
		r.trees.handoff()
		r.forests.handoff()
		r.scrub()
		r.toks = nil
		return tree, nil
	}
	return nil, p.errorPass(r)
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
		return &Tree{Label: p.Start}, nil
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
	return p.AcceptRun(r)
}

// ReservedWords returns the product's reserved words, sorted.
func (p *Parser) ReservedWords() []string {
	out := make([]string, 0, len(p.Keywords))
	for k := range p.Keywords {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
