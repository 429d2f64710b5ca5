package parser

import (
	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/grammar"
)

// compile converts every production of g to the runtime program
// (rt.Program) both engines run, taking FIRST sets from an, the analysis
// grammar.Validate returned for g. Every expression is compiled once into
// a flat node carrying, where a pass tests the lookahead, its FIRST set as
// a bitset over the ids the scanner stamps on tokens — the index of each
// terminal in an.Tokens(), the grammar's referenced tokens (the numbering
// lexer.Tables uses, and the one the analysis's bitsets are over) — with
// productions as indices, so prediction is a bitset test and memo keys are
// integers. predict enables FIRST-set pruning: without it every First is
// nil, so neither pass prunes.
func compile(g *grammar.Grammar, an *grammar.Analysis, predict bool) *rt.Program {
	refs := an.Tokens()
	tokenID := make(map[string]int32, len(refs))
	for i, t := range refs {
		tokenID[t] = int32(i)
	}
	prodIndex := make(map[string]int32, g.Len())
	for i, p := range g.Productions() {
		prodIndex[p.Name] = int32(i)
	}
	pg := &rt.Program{
		Prods:  make([][]int32, g.Len()),
		Names:  make([]string, g.Len()),
		Tokens: refs,
	}
	words := max(1, (len(refs)+63)/64)
	// first is the set the next guarded node's FIRST is written into; a
	// nullable node leaves it to the next.
	var first rt.Bits
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
		if guarded && predict {
			if first == nil {
				first = make(rt.Bits, words)
			}
			if an.FirstInto(e, first) {
				clear(first)
			} else {
				n.First, first = first, nil
			}
		}
		pg.Nodes = append(pg.Nodes, n)
		return int32(len(pg.Nodes) - 1)
	}
	for i, p := range g.Productions() {
		pg.Names[i] = p.Name
		for _, a := range p.Alternatives() {
			pg.Prods[i] = append(pg.Prods[i], conv(a, true))
		}
	}
	pg.Start = prodIndex[g.Start]
	return pg
}
