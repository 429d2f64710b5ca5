package rt

import (
	"math/bits"
	"slices"
)

// The packrat pass is complete where the greedy pass (program.go) is not:
// it walks the same Program by recursive descent with ordered
// alternatives and full backtracking, keeping every end position each
// expression can reach, memoised per (production, position), with FIRST
// sets pruning the alternatives the lookahead rules out. It decides the
// inputs the greedy pass cannot prove, builds every tree and, with
// expectations tracked, every syntax error — for both engines, since a
// generated parser is the same program as data.

// result is one way an expression can match starting at some position:
// it consumed tokens up to end (exclusive) and, on the tree path, derived
// forest.
type result struct {
	end    int
	forest []*Tree
}

// memoEntry is one slot of the flat packrat table; live when its generation
// stamp equals the run's, which empties the whole table in O(1) per pass.
type memoEntry struct {
	gen uint64
	off int32
	n   int32
}

// parseNT parses production prod at pos, memoised in the run's flat
// table: every distinct end, each with one representative forest
// labelled with the production's name, longest first.
func (r *Run) parseNT(pg *Program, prod int32, pos int) []result {
	slot := int(prod)*r.width + pos
	if e := r.memo[slot]; e.gen == r.gen {
		return r.results[e.off : e.off+e.n]
	}
	out := r.getScratch()
	tmp := r.getScratch()
	la := r.id(pos)
	for _, alt := range pg.Prods[prod] {
		if f := pg.Nodes[alt].First; f != nil && !f.has(la) {
			// Record what this alternative wanted, for error messages.
			r.predictMiss(pos, f)
			continue
		}
		tmp = r.parseExpr(pg, alt, pos, tmp[:0])
		for _, res := range tmp {
			if !hasEnd(out, res.end) {
				out = append(out, result{end: res.end, forest: r.nodeForest(pg.Names[prod], res.forest)})
			}
		}
	}
	// Longest-first makes downstream dedup prefer maximal derivations and
	// lets callers that need the full input find it first.
	sortByEndDesc(out)
	r.putScratch(tmp)
	return r.memoize(slot, out)
}

// memoize copies out — a list borrowed from getScratch — into the memo
// arena under slot, returns the list to the scratch stack, and returns
// the memoised copy.
func (r *Run) memoize(slot int, out []result) []result {
	off := int32(len(r.results))
	r.results = append(r.results, out...)
	n := int32(len(out))
	r.putScratch(out)
	r.memo[slot] = memoEntry{gen: r.gen, off: off, n: n}
	return r.results[off : off+n]
}

// parseExpr parses node n at pos, appending every distinct end position
// (each with one representative forest) to dst.
func (r *Run) parseExpr(pg *Program, n int32, pos int, dst []result) []result {
	nd := &pg.Nodes[n]
	switch nd.Op {
	case OpTok:
		if r.id(pos) == nd.Arg {
			return append(dst, result{end: pos + 1, forest: r.leafForest(pos)})
		}
		r.fail(pos, nd.Arg)
		return dst

	case OpNT:
		return append(dst, r.parseNT(pg, nd.Arg, pos)...)

	case OpSeq:
		cur := r.getScratch()
		next := r.getScratch()
		tmp := r.getScratch()
		cur = append(cur, result{end: pos})
		for _, item := range nd.Kids {
			next = next[:0]
			for _, c := range cur {
				tmp = r.parseExpr(pg, item, c.end, tmp[:0])
				for _, res := range tmp {
					if !hasEnd(next, res.end) {
						next = append(next, result{end: res.end, forest: r.merge(c.forest, res.forest)})
					}
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

	case OpChoice:
		start := len(dst)
		la := r.id(pos)
		for _, alt := range nd.Kids {
			if f := pg.Nodes[alt].First; f != nil && !f.has(la) {
				r.predictMiss(pos, f)
				continue
			}
			altStart := len(dst)
			dst = r.parseExpr(pg, alt, pos, dst)
			// Keep only ends not already produced by an earlier alternative.
			keep := altStart
			for i := altStart; i < len(dst); i++ {
				if !hasEnd(dst[start:keep], dst[i].end) {
					dst[keep] = dst[i]
					keep++
				}
			}
			dst = dst[:keep]
		}
		return dst

	case OpOpt:
		start := len(dst)
		dst = r.parseExpr(pg, nd.Kids[0], pos, dst)
		if hasEnd(dst[start:], pos) {
			return dst // the body already produced the empty match
		}
		return append(dst, result{end: pos})

	case OpStar, OpPlus:
		return r.repeat(pg, nd.Kids[0], pos, nd.Op == OpStar, dst)
	}
	return dst
}

// repeat explores every reachable end position of body*, guarding against
// zero-width iterations, and appends them to dst longest first.
func (r *Run) repeat(pg *Program, body int32, pos int, allowEmpty bool, dst []result) []result {
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
			tmp = r.parseExpr(pg, body, st.end, tmp[:0])
			for _, res := range tmp {
				if res.end <= st.end || slices.Contains(visited, res.end) {
					continue
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
	sortByEndDesc(dst[start:])
	return dst
}

// fail records that terminal id was expected at pos, keeping only the
// farthest position's expectations.
func (r *Run) fail(pos int, id int32) {
	if pos > r.far {
		r.far = pos
		if r.track {
			r.expected = append(r.expected[:0], id)
		}
	} else if pos == r.far && r.track {
		r.expected = append(r.expected, id)
	}
}

// predictMiss records a pruned node's FIRST set at pos: every terminal in
// it was expected there.
func (r *Run) predictMiss(pos int, first Bits) {
	if !r.track || pos < r.far {
		r.far = max(r.far, pos)
		return
	}
	for w, word := range first {
		for ; word != 0; word &= word - 1 {
			r.fail(pos, int32(w<<6|bits.TrailingZeros64(word)))
		}
	}
}

// getScratch borrows the next free result list; putScratch returns it
// (with any capacity growth) in LIFO order.
func (r *Run) getScratch() []result {
	if r.scratchN == len(r.scratch) {
		r.scratch = append(r.scratch, make([]result, 0, 8))
	}
	s := r.scratch[r.scratchN][:0]
	r.scratchN++
	return s
}

// putScratch returns the most recently borrowed result list.
func (r *Run) putScratch(s []result) {
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

// leafForest returns the single-leaf forest for the token at pos, or nil
// when the pass is not materialising trees.
func (r *Run) leafForest(pos int) []*Tree {
	if !r.buildTrees {
		return nil
	}
	t := r.trees.alloc()
	t.Token = &r.toks[pos]
	return append(r.forests.alloc(1), t)
}

// nodeForest wraps children under a node labelled label, or nil off the
// tree path.
func (r *Run) nodeForest(label string, children []*Tree) []*Tree {
	if !r.buildTrees {
		return nil
	}
	t := r.trees.alloc()
	t.Label = label
	t.Children = children
	return append(r.forests.alloc(1), t)
}

// merge concatenates two forests without copying when either side is
// empty. Forests are never mutated after construction, so sharing is safe.
func (r *Run) merge(a, b []*Tree) []*Tree {
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

// hasEnd reports whether some result in rs ends at end.
func hasEnd(rs []result, end int) bool {
	for _, r := range rs {
		if r.end == end {
			return true
		}
	}
	return false
}

// sortByEndDesc orders results longest-first with an allocation-free
// insertion sort (lists are tiny, and end positions are distinct).
func sortByEndDesc(rs []result) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].end > rs[j-1].end; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
