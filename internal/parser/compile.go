package parser

import (
	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/grammar"
)

// The engine interprets a compiled form of the grammar: expression values
// are converted once into pointer nodes carrying their FIRST set as a
// bitset over the ids the scanner stamps on tokens (the grammar's
// referenced tokens, in order — the numbering codegen uses), and
// productions become indices, so prediction is a bitset test and memo
// keys are integers.

type ckind uint8

const (
	cTok ckind = iota
	cNT
	cSeq
	cChoice
	cOpt
	cStar
	cPlus
)

// cnode is one compiled expression node.
type cnode struct {
	kind ckind
	// name is the token or nonterminal name for cTok/cNT (kept for error
	// messages and the tracking pass).
	name string
	// id is the token id (cTok) or production index (cNT).
	id int32
	// items are sequence items, choice alternatives, or the single body of
	// opt/star/plus.
	items []*cnode
	// guard is the node's FIRST set, which prediction tests it against as
	// an alternative; nil when the node derives the empty string or
	// prediction is disabled, so it is never pruned.
	guard rt.Bits
	// first names the guard's tokens: what a pruned alternative expected.
	first []string
	// body parses items[0] as the runtime's repetition body (star/plus).
	body func(r *rt.Run, pos int, dst []rt.Result) []rt.Result
}

// program is the compiled grammar.
type program struct {
	// names holds production names, indexed by production id (so the hot
	// path never walks g.Productions()).
	names []string
	// alts holds each production's top-level alternatives.
	alts [][]*cnode
	// start is the start production's id.
	start int
}

// compile converts every production of g, interning tokens by their index
// in refs. predict enables FIRST-set pruning.
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
	pr := &program{names: make([]string, g.Len()), alts: make([][]*cnode, g.Len())}
	words := (len(refs) + 63) / 64
	var conv func(e grammar.Expr) *cnode
	conv = func(e grammar.Expr) *cnode {
		n := &cnode{}
		if nullable, first := an.FirstOfExpr(e); predict && !nullable {
			n.guard = make(rt.Bits, words)
			for name := range first {
				if id, ok := tokenID[name]; ok {
					n.guard[id>>6] |= 1 << (uint32(id) & 63)
				}
				n.first = append(n.first, name)
			}
		}
		switch x := e.(type) {
		case grammar.Tok:
			n.kind, n.name, n.id = cTok, x.Name, tokenID[x.Name]
		case grammar.NT:
			// Validate guarantees the production exists.
			n.kind, n.name, n.id = cNT, x.Name, prodIndex[x.Name]
		case grammar.Seq:
			n.kind = cSeq
			for _, it := range x.Items {
				n.items = append(n.items, conv(it))
			}
		case grammar.Choice:
			n.kind = cChoice
			for _, a := range x.Alts {
				n.items = append(n.items, conv(a))
			}
		case grammar.Opt:
			n.kind, n.items = cOpt, []*cnode{conv(x.Body)}
		case grammar.Star:
			n.kind, n.items = cStar, []*cnode{conv(x.Body)}
		case grammar.Plus:
			n.kind, n.items = cPlus, []*cnode{conv(x.Body)}
		}
		if n.kind == cStar || n.kind == cPlus {
			body := n.items[0]
			n.body = func(r *rt.Run, pos int, dst []rt.Result) []rt.Result {
				return pr.parseExpr(r, body, pos, dst)
			}
		}
		return n
	}
	for i, p := range g.Productions() {
		n := conv(p.Expr)
		pr.names[i] = p.Name
		if n.kind == cChoice {
			pr.alts[i] = n.items
		} else {
			pr.alts[i] = []*cnode{n}
		}
	}
	pr.start = int(prodIndex[g.Start])
	return pr
}
