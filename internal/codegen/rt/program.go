package rt

// Op is the operator of a Program node.
type Op uint8

// The node operators, one per grammar expression form.
const (
	OpTok    Op = iota // match the token whose id is Arg
	OpNT               // derive production Arg
	OpSeq              // derive Kids in order
	OpChoice           // derive one of Kids, tried in order
	OpOpt              // derive Kids[0] or nothing
	OpStar             // derive Kids[0] zero or more times
	OpPlus             // derive Kids[0] one or more times
)

// Node is one expression node of a Program.
type Node struct {
	Op Op
	// Arg is the token id (OpTok) or the production index (OpNT).
	Arg int32
	// Kids index Program.Nodes: sequence items, choice alternatives, or
	// the single body of an optional or repetition.
	Kids []int32
	// First is the node's FIRST set where a pass tests the lookahead
	// against it — on alternatives and on optional and repeated bodies.
	// Nil never prunes: the node derives the empty string, or prediction
	// is disabled.
	First Bits
}

// Program is a product grammar in flat, data-only form: every production
// compiled to expression nodes over the interned token ids the scanner
// stamps and the production indices the memo uses. One builder
// (internal/parser) makes it for both engines, and codegen prints it into
// each generated Parser, so every engine runs the same greedy pass and
// the same packrat pass (packrat.go) over the same program — as every
// ANTLR 4 parser is its runtime interpreting a serialized ATN.
type Program struct {
	Nodes []Node
	// Prods holds each production's top-level alternatives; its length is
	// the production count, which sizes the packrat memo.
	Prods [][]int32
	// Start is the start production's index.
	Start int32
	// Names labels each production, by index: the tree nodes it derives
	// carry its name.
	Names []string
	// Tokens names each terminal by its interned id: what a syntax error
	// says was expected.
	Tokens []string
}

// greedyBudget is the greedy pass's allowance of node visits per token
// (plus one). Typical statements spend 3–14 and long lists and deep
// nesting about 12, so a pass that spends 32 has lost its way among
// alternatives that share a prefix: it gives up and the packrat pass
// decides.
const greedyBudget = 32

// prove runs the greedy pass over the run's scan and reports whether it
// derives the whole input. The pass follows one path: at each production
// or choice the first alternative the lookahead predicts that succeeds,
// optionals and repetitions taken greedily, sequences never backtracked
// into. That path is a derivation, so a success is an accept the packrat
// pass would reach too; a failure proves nothing, and the packrat pass,
// which is complete, decides instead. The pass keeps no results, only a
// bitset of (production, position) pairs known to fail — exact, since
// the pass's answer depends on nothing else — and a budget of node
// visits that bounds its work on inputs it cannot follow.
func (r *Run) prove(pg *Program) bool {
	r.width = len(r.toks) + 1
	r.budget = greedyBudget * r.width
	words := (len(pg.Prods)*r.width + 63) >> 6
	if cap(r.fails) < words {
		r.fails = make([]uint64, words)
	} else {
		r.fails = r.fails[:words]
		clear(r.fails)
	}
	end, ok := r.derive(pg, pg.Start, 0)
	return ok && end == len(r.toks)
}

// derive runs production prod at pos: the first predicted alternative that
// succeeds, or a failure recorded in the bitset.
func (r *Run) derive(pg *Program, prod int32, pos int) (int, bool) {
	bit := int(prod)*r.width + pos
	word, mask := bit>>6, uint64(1)<<(bit&63)
	if r.fails[word]&mask != 0 {
		return 0, false
	}
	if end, ok := r.alt(pg, pg.Prods[prod], pos); ok {
		return end, true
	}
	r.fails[word] |= mask
	return 0, false
}

// alt returns the end of the first of alts that succeeds at pos.
func (r *Run) alt(pg *Program, alts []int32, pos int) (int, bool) {
	for _, a := range alts {
		if end, ok := r.try(pg, a, pos); ok {
			return end, true
		}
	}
	return 0, false
}

// try walks node n at pos unless the lookahead rules it out.
func (r *Run) try(pg *Program, n int32, pos int) (int, bool) {
	if f := pg.Nodes[n].First; f != nil && !f.has(r.id(pos)) {
		return 0, false
	}
	return r.walk(pg, n, pos)
}

// walk runs node n at pos, spending one unit of the visit budget.
func (r *Run) walk(pg *Program, n int32, pos int) (int, bool) {
	if r.budget--; r.budget < 0 {
		return 0, false
	}
	nd := &pg.Nodes[n]
	switch nd.Op {
	case OpTok:
		if r.id(pos) == nd.Arg {
			return pos + 1, true
		}
	case OpNT:
		return r.derive(pg, nd.Arg, pos)
	case OpSeq:
		for _, k := range nd.Kids {
			end, ok := r.walk(pg, k, pos)
			if !ok {
				return 0, false
			}
			pos = end
		}
		return pos, true
	case OpChoice:
		return r.alt(pg, nd.Kids, pos)
	case OpOpt:
		if end, ok := r.try(pg, nd.Kids[0], pos); ok {
			return end, true
		}
		return pos, true
	case OpStar, OpPlus:
		start := pos
		for {
			end, ok := r.try(pg, nd.Kids[0], pos)
			if !ok || end <= pos {
				break
			}
			pos = end
		}
		return pos, nd.Op == OpStar || pos > start
	}
	return 0, false
}
