package parser

import (
	"slices"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/grammar"
)

// The engine interprets the grammar's runtime program (rt.Program): every
// expression compiled once into a flat node carrying, where a pass tests
// the lookahead, its FIRST set as a bitset over the ids the scanner
// stamps on tokens (the grammar's referenced tokens, in order — the
// numbering codegen uses), with productions as indices, so prediction is
// a bitset test and memo keys are integers. compile is the one builder of
// that program: New runs on it, and codegen prints it into every
// generated parser (Program).

// program is the compiled grammar: the runtime program, plus what only
// the interpreter's packrat pass needs, indexed by production or node.
type program struct {
	*rt.Program
	// names holds production names and toks terminal names by id, for
	// tree labels and expected sets (so the hot path never walks
	// g.Productions()).
	names, toks []string
	// first names each pruned node's FIRST set: what it expected when
	// prediction skipped it.
	first [][]string
	// bodies parse a star or plus node's body as the runtime's repetition
	// body, built once per node.
	bodies []func(r *rt.Run, pos int, dst []rt.Result) []rt.Result
}

// Program compiles g to the runtime program both engines run, with FIRST
// sets over token ids that index refs.
func Program(g *grammar.Grammar, refs []string) *rt.Program {
	return compile(g, refs, true).Program
}

// compile converts every production of g, interning tokens by their index
// in refs. predict enables FIRST-set pruning: without it every First is
// nil, so neither pass prunes.
func compile(g *grammar.Grammar, refs []string, predict bool) *program {
	an := grammar.Analyze(g)
	tokenID := make(map[string]int32, len(refs))
	for i, t := range refs {
		tokenID[t] = int32(i)
	}
	prodIndex := make(map[string]int32, g.Len())
	for i, p := range g.Productions() {
		prodIndex[p.Name] = int32(i)
	}
	pr := &program{
		Program: &rt.Program{Prods: make([][]int32, g.Len())},
		names:   make([]string, g.Len()),
		toks:    refs,
	}
	words := max(1, (len(refs)+63)/64)
	// conv appends e's nodes and returns e's index. guarded marks the
	// nodes a pass predicts: alternatives and optional or repeated bodies.
	var conv func(e grammar.Expr, guarded bool) int32
	conv = func(e grammar.Expr, guarded bool) int32 {
		var n rt.Node
		var kids []grammar.Expr
		switch x := e.(type) {
		case grammar.Tok:
			n.Op, n.Arg = rt.OpTok, tokenID[x.Name]
		case grammar.NT:
			// Validate guarantees the production exists.
			n.Op, n.Arg = rt.OpNT, prodIndex[x.Name]
		case grammar.Seq:
			n.Op, kids = rt.OpSeq, x.Items
		case grammar.Choice:
			n.Op, kids = rt.OpChoice, x.Alts
		case grammar.Opt:
			n.Op, kids = rt.OpOpt, []grammar.Expr{x.Body}
		case grammar.Star:
			n.Op, kids = rt.OpStar, []grammar.Expr{x.Body}
		case grammar.Plus:
			n.Op, kids = rt.OpPlus, []grammar.Expr{x.Body}
		}
		for _, k := range kids {
			n.Kids = append(n.Kids, conv(k, n.Op != rt.OpSeq))
		}
		var first []string
		if guarded && predict {
			if nullable, fs := an.FirstOfExpr(e); !nullable {
				n.First = make(rt.Bits, words)
				for name := range fs {
					if id, ok := tokenID[name]; ok {
						n.First[id>>6] |= 1 << (uint32(id) & 63)
					}
					first = append(first, name)
				}
				slices.Sort(first)
			}
		}
		id := int32(len(pr.Nodes))
		pr.Nodes = append(pr.Nodes, n)
		pr.first = append(pr.first, first)
		return id
	}
	for i, p := range g.Productions() {
		pr.names[i] = p.Name
		for _, a := range p.Alternatives() {
			pr.Prods[i] = append(pr.Prods[i], conv(a, true))
		}
	}
	pr.Start = prodIndex[g.Start]
	pr.bodies = make([]func(*rt.Run, int, []rt.Result) []rt.Result, len(pr.Nodes))
	for i, n := range pr.Nodes {
		if n.Op == rt.OpStar || n.Op == rt.OpPlus {
			body := n.Kids[0]
			pr.bodies[i] = func(r *rt.Run, pos int, dst []rt.Result) []rt.Result {
				return pr.parseExpr(r, body, pos, dst)
			}
		}
	}
	return pr
}
