package grammar

import (
	"fmt"
	"sort"
	"strings"
)

// Analysis holds the classic grammar analyses (nullable, FIRST, FOLLOW)
// computed for a grammar, plus structural diagnostics. The parse engine uses
// FIRST sets for LL prediction; the LL(1) conflict report documents where
// the composed grammar needs backtracking (ANTLR's syntactic predicates play
// this role in the paper's prototype).
type Analysis struct {
	g *Grammar

	// Nullable reports, per nonterminal, whether it derives the empty string.
	Nullable map[string]bool
	// First maps each nonterminal to the set of token names that can begin it.
	First map[string]map[string]bool
	// Follow maps each nonterminal to the set of token names that can follow it.
	// The special token name EOFToken marks end of input.
	Follow map[string]map[string]bool
}

// EOFToken is the pseudo-token used in FOLLOW sets for end of input.
const EOFToken = "<EOF>"

// Analyze computes nullable, FIRST and FOLLOW for g. Undefined nonterminals
// are treated as non-nullable with empty FIRST sets; Validate reports them.
func Analyze(g *Grammar) *Analysis {
	a := &Analysis{
		g:        g,
		Nullable: map[string]bool{},
		First:    map[string]map[string]bool{},
		Follow:   map[string]map[string]bool{},
	}
	for _, p := range g.Productions() {
		a.First[p.Name] = map[string]bool{}
		a.Follow[p.Name] = map[string]bool{}
	}
	// Fixed point for nullable + FIRST.
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			n, f := a.exprFirst(p.Expr)
			if n && !a.Nullable[p.Name] {
				a.Nullable[p.Name] = true
				changed = true
			}
			for t := range f {
				if !a.First[p.Name][t] {
					a.First[p.Name][t] = true
					changed = true
				}
			}
		}
	}
	// Fixed point for FOLLOW.
	if g.Start != "" && a.Follow[g.Start] != nil {
		a.Follow[g.Start][EOFToken] = true
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			if a.followExpr(p.Expr, a.Follow[p.Name]) {
				changed = true
			}
		}
	}
	return a
}

// exprFirst returns (nullable, FIRST) for an expression under the current
// fixed-point state.
func (a *Analysis) exprFirst(e Expr) (bool, map[string]bool) {
	first := map[string]bool{}
	switch x := e.(type) {
	case Tok:
		first[x.Name] = true
		return false, first
	case NT:
		for t := range a.First[x.Name] {
			first[t] = true
		}
		return a.Nullable[x.Name], first
	case Seq:
		nullable := true
		for _, it := range x.Items {
			n, f := a.exprFirst(it)
			if nullable {
				for t := range f {
					first[t] = true
				}
			}
			if !n {
				nullable = false
			}
		}
		return nullable, first
	case Choice:
		nullable := false
		for _, alt := range x.Alts {
			n, f := a.exprFirst(alt)
			nullable = nullable || n
			for t := range f {
				first[t] = true
			}
		}
		return nullable, first
	case Opt:
		_, f := a.exprFirst(x.Body)
		return true, f
	case Star:
		_, f := a.exprFirst(x.Body)
		return true, f
	case Plus:
		n, f := a.exprFirst(x.Body)
		return n, f
	}
	return false, first
}

// followExpr propagates FOLLOW information through expression e, where
// follow is the set that can follow e as a whole. Returns true if any
// FOLLOW set grew.
func (a *Analysis) followExpr(e Expr, follow map[string]bool) bool {
	changed := false
	switch x := e.(type) {
	case NT:
		dst := a.Follow[x.Name]
		if dst == nil {
			return false
		}
		for t := range follow {
			if !dst[t] {
				dst[t] = true
				changed = true
			}
		}
	case Seq:
		// Walk right to left, maintaining the set that can follow item i.
		cur := follow
		for i := len(x.Items) - 1; i >= 0; i-- {
			it := x.Items[i]
			if a.followExpr(it, cur) {
				changed = true
			}
			n, f := a.exprFirst(it)
			if n {
				merged := map[string]bool{}
				for t := range cur {
					merged[t] = true
				}
				for t := range f {
					merged[t] = true
				}
				cur = merged
			} else {
				cur = f
			}
		}
	case Choice:
		for _, alt := range x.Alts {
			if a.followExpr(alt, follow) {
				changed = true
			}
		}
	case Opt:
		if a.followExpr(x.Body, follow) {
			changed = true
		}
	case Star, Plus:
		var body Expr
		if s, ok := x.(Star); ok {
			body = s.Body
		} else {
			body = x.(Plus).Body
		}
		// The body can be followed by its own FIRST (next iteration) or by
		// whatever follows the repetition.
		_, f := a.exprFirst(body)
		merged := map[string]bool{}
		for t := range follow {
			merged[t] = true
		}
		for t := range f {
			merged[t] = true
		}
		if a.followExpr(body, merged) {
			changed = true
		}
	}
	return changed
}

// FirstOfExpr exposes FIRST/nullable computation for arbitrary expressions
// (used by the parse engine for prediction at choice points).
func (a *Analysis) FirstOfExpr(e Expr) (nullable bool, first map[string]bool) {
	return a.exprFirst(e)
}

// LL1Conflict describes a production where LL(1) prediction is ambiguous:
// two alternatives share a lookahead token, or a nullable alternative's
// FOLLOW overlaps another's FIRST. The engine resolves these with ordered
// backtracking.
type LL1Conflict struct {
	Production string
	Tokens     []string // the overlapping lookahead tokens, sorted
}

// String formats the conflict for diagnostics.
func (c LL1Conflict) String() string {
	return fmt.Sprintf("%s: lookahead overlap on {%s}", c.Production, strings.Join(c.Tokens, ", "))
}

// LL1Conflicts reports all productions whose top-level alternatives are not
// LL(1)-distinguishable.
func (a *Analysis) LL1Conflicts() []LL1Conflict {
	var out []LL1Conflict
	for _, p := range a.g.Productions() {
		alts := p.Alternatives()
		if len(alts) < 2 {
			continue
		}
		overlap := map[string]bool{}
		seen := map[string]bool{}
		for _, alt := range alts {
			n, f := a.exprFirst(alt)
			if n {
				for t := range a.Follow[p.Name] {
					f[t] = true
				}
			}
			for t := range f {
				if seen[t] {
					overlap[t] = true
				}
				seen[t] = true
			}
		}
		if len(overlap) > 0 {
			out = append(out, LL1Conflict{Production: p.Name, Tokens: sortedKeys(overlap)})
		}
	}
	return out
}

// LeftRecursive returns the nonterminals involved in (possibly indirect)
// left recursion, sorted. The backtracking engine cannot terminate on
// left-recursive productions, so Validate rejects them; the SQL:2003
// decomposition uses repetition groups instead (as LL grammars must).
func LeftRecursive(g *Grammar) []string {
	return Analyze(g).leftRecursive()
}

// leftRecursive is LeftRecursive over the analysed grammar.
func (a *Analysis) leftRecursive() []string {
	// leftEdges[A] = set of nonterminals that can appear leftmost in A.
	leftEdges := map[string]map[string]bool{}
	for _, p := range a.g.Productions() {
		set := map[string]bool{}
		collectLeftmost(a, p.Expr, set)
		leftEdges[p.Name] = set
	}
	// A is left-recursive if A is reachable from A via leftEdges.
	var out []string
	for name := range leftEdges {
		if reachable(leftEdges, name, name, map[string]bool{}) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// collectLeftmost adds to set every nonterminal that can occur at the start
// of a derivation of e.
func collectLeftmost(a *Analysis, e Expr, set map[string]bool) {
	switch x := e.(type) {
	case NT:
		set[x.Name] = true
	case Seq:
		for _, it := range x.Items {
			collectLeftmost(a, it, set)
			if n, _ := a.exprFirst(it); !n {
				return // later items cannot be leftmost
			}
		}
	case Choice:
		for _, alt := range x.Alts {
			collectLeftmost(a, alt, set)
		}
	case Opt:
		collectLeftmost(a, x.Body, set)
	case Star:
		collectLeftmost(a, x.Body, set)
	case Plus:
		collectLeftmost(a, x.Body, set)
	}
}

func reachable(edges map[string]map[string]bool, from, to string, seen map[string]bool) bool {
	for next := range edges[from] {
		if next == to {
			return true
		}
		if seen[next] {
			continue
		}
		seen[next] = true
		if reachable(edges, next, to, seen) {
			return true
		}
	}
	return false
}

// ValidationError aggregates the problems found by Validate.
type ValidationError struct {
	Grammar    string
	Undefined  []string // referenced but undefined nonterminals
	Unreached  []string // defined but unreachable from the start symbol
	LeftRec    []string // left-recursive nonterminals
	MissingTok []string // tokens referenced by the grammar but absent from the token set
}

// Error implements error.
func (e *ValidationError) Error() string {
	var parts []string
	if len(e.Undefined) > 0 {
		parts = append(parts, "undefined nonterminals: "+strings.Join(e.Undefined, ", "))
	}
	if len(e.LeftRec) > 0 {
		parts = append(parts, "left-recursive: "+strings.Join(e.LeftRec, ", "))
	}
	if len(e.MissingTok) > 0 {
		parts = append(parts, "undefined tokens: "+strings.Join(e.MissingTok, ", "))
	}
	if len(e.Unreached) > 0 {
		parts = append(parts, "unreachable: "+strings.Join(e.Unreached, ", "))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("grammar %s: valid", e.Grammar)
	}
	return fmt.Sprintf("grammar %s: %s", e.Grammar, strings.Join(parts, "; "))
}

// Validate checks that a composed grammar is self-contained and parseable:
// no undefined nonterminals, no left recursion, and (if tokens is non-nil)
// every referenced terminal defined in the token set. Unreachable
// productions are recorded but do not make the grammar invalid — composition
// may legitimately carry helper rules that a particular product does not use.
// When the grammar is valid it returns g's analysis, the one it found left
// recursion with, so a build computes nullable, FIRST and FOLLOW once.
func Validate(g *Grammar, tokens *TokenSet) (*Analysis, error) {
	an := Analyze(g)
	ve := &ValidationError{Grammar: g.Name}
	ve.Undefined = g.UndefinedNonterminals()
	ve.LeftRec = an.leftRecursive()
	if tokens != nil {
		for _, t := range g.ReferencedTokens() {
			if !tokens.Has(t) {
				ve.MissingTok = append(ve.MissingTok, t)
			}
		}
	}
	ve.Unreached = Unreachable(g)
	if len(ve.Undefined) == 0 && len(ve.LeftRec) == 0 && len(ve.MissingTok) == 0 {
		return an, nil
	}
	return nil, ve
}

// Unreachable returns productions not reachable from the start symbol, sorted.
func Unreachable(g *Grammar) []string {
	if g.Start == "" {
		return nil
	}
	seen := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		p := g.Production(name)
		if p == nil {
			return
		}
		walkExpr(p.Expr, func(e Expr) {
			if n, ok := e.(NT); ok && !seen[n.Name] {
				visit(n.Name)
			}
		})
	}
	visit(g.Start)
	var out []string
	for _, p := range g.Productions() {
		if !seen[p.Name] {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}
