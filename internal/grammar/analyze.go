package grammar

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Analysis holds the grammar analyses a parser build needs: which
// nonterminals derive the empty string (nullable) and which tokens can
// begin each one (FIRST). The parse engine predicts with FIRST sets; the
// LL(1) conflict report, which also reads FOLLOW, documents where the
// composed grammar needs backtracking (ANTLR's syntactic predicates play
// this role in the paper's prototype).
//
// Every token set is a bitset over Tokens, the grammar's referenced tokens
// in sorted order: bit i is Tokens()[i]. That is the numbering lexer.Tables
// gives the scanner's token ids and parser.compile gives the prediction
// sets, so a FIRST set reaches the compiled program without conversion.
// Nullable and FIRST are computed once, by fixpoints that allocate nothing
// per expression visited. FOLLOW is computed only when LL1Conflicts or
// Follow first asks for it: no parser build reads it. An Analysis is safe
// for concurrent use.
type Analysis struct {
	g      *Grammar
	tokens []string
	tokID  map[string]int
	prodID map[string]int // index of each production in g.Productions()

	nullable []bool   // per production
	words    int      // words per FIRST set: max(1, ⌈len(tokens)/64⌉)
	first    []uint64 // per production, words each

	followOnce  sync.Once
	followWords int      // ⌈(len(tokens)+1)/64⌉: bit len(tokens) is end of input
	follow      []uint64 // per production, followWords each
}

// EOFToken is the pseudo-token used in FOLLOW sets for end of input.
const EOFToken = "<EOF>"

// Analyze computes nullable and FIRST for g. Undefined nonterminals are
// treated as non-nullable with empty FIRST sets; Validate reports them.
func Analyze(g *Grammar) *Analysis {
	a := newAnalysis(g)
	a.computeFirst()
	return a
}

// newAnalysis numbers g's tokens and productions and computes nullable,
// all that finding left recursion needs.
func newAnalysis(g *Grammar) *Analysis {
	prods := g.Productions()
	a := &Analysis{
		g:        g,
		tokens:   g.ReferencedTokens(),
		prodID:   make(map[string]int, len(prods)),
		nullable: make([]bool, len(prods)),
	}
	a.tokID = make(map[string]int, len(a.tokens))
	for i, t := range a.tokens {
		a.tokID[t] = i
	}
	for i, p := range prods {
		a.prodID[p.Name] = i
	}
	for changed := true; changed; {
		changed = false
		for i, p := range prods {
			if !a.nullable[i] && a.nullableExpr(p.Expr) {
				a.nullable[i] = true
				changed = true
			}
		}
	}
	return a
}

// nullableExpr reports whether e derives the empty string under the
// nullable flags computed so far.
func (a *Analysis) nullableExpr(e Expr) bool {
	switch x := e.(type) {
	case NT:
		id, ok := a.prodID[x.Name]
		return ok && a.nullable[id]
	case Seq:
		for _, it := range x.Items {
			if !a.nullableExpr(it) {
				return false
			}
		}
		return true
	case Choice:
		for _, alt := range x.Alts {
			if a.nullableExpr(alt) {
				return true
			}
		}
		return false
	case Opt, Star:
		return true
	case Plus:
		return a.nullableExpr(x.Body)
	}
	return false
}

// computeFirst runs the FIRST fixpoint over the final nullable flags,
// growing each production's set in place.
func (a *Analysis) computeFirst() {
	prods := a.g.Productions()
	a.words = max(1, (len(a.tokens)+63)/64)
	a.first = make([]uint64, len(prods)*a.words)
	before := make([]uint64, a.words)
	// Productions are composed top-down, so FIRST sets flow from the last
	// toward the first: visiting them in reverse settles most in one pass.
	for changed := true; changed; {
		changed = false
		for i := len(prods) - 1; i >= 0; i-- {
			set := a.firstOf(i)
			copy(before, set)
			a.FirstInto(prods[i].Expr, set)
			if !slices.Equal(before, set) {
				changed = true
			}
		}
	}
}

func (a *Analysis) firstOf(id int) []uint64 { return a.first[id*a.words : (id+1)*a.words] }

// Tokens returns the grammar's referenced tokens, sorted: the meaning of
// each bit of the analysis's token sets. Callers must not mutate it.
func (a *Analysis) Tokens() []string { return a.tokens }

// FirstInto adds FIRST(e) to set, a bitset over Tokens at least
// max(1, ⌈len(Tokens)/64⌉) words long, and reports whether e derives the
// empty string.
func (a *Analysis) FirstInto(e Expr, set []uint64) (nullable bool) {
	switch x := e.(type) {
	case Tok:
		id := a.tokID[x.Name]
		set[id>>6] |= 1 << (id & 63)
		return false
	case NT:
		id, ok := a.prodID[x.Name]
		if !ok {
			return false
		}
		for i, w := range a.firstOf(id) {
			set[i] |= w
		}
		return a.nullable[id]
	case Seq:
		for _, it := range x.Items {
			if !a.FirstInto(it, set) {
				return false
			}
		}
		return true
	case Choice:
		for _, alt := range x.Alts {
			if a.FirstInto(alt, set) {
				nullable = true
			}
		}
		return nullable
	case Opt:
		a.FirstInto(x.Body, set)
		return true
	case Star:
		a.FirstInto(x.Body, set)
		return true
	case Plus:
		return a.FirstInto(x.Body, set)
	}
	return false
}

// Nullable reports whether the named production derives the empty string.
func (a *Analysis) Nullable(name string) bool {
	id, ok := a.prodID[name]
	return ok && a.nullable[id]
}

// First returns the tokens that can begin the named production, sorted.
func (a *Analysis) First(name string) []string {
	id, ok := a.prodID[name]
	if !ok {
		return nil
	}
	return a.names(a.firstOf(id))
}

// Follow returns the tokens that can follow the named production, sorted;
// EOFToken stands for end of input.
func (a *Analysis) Follow(name string) []string {
	id, ok := a.prodID[name]
	if !ok {
		return nil
	}
	a.followOnce.Do(a.computeFollow)
	return a.names(a.followOf(id))
}

// names lists the tokens of set, sorted by name.
func (a *Analysis) names(set []uint64) []string {
	var out []string
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			id := i<<6 + bits.TrailingZeros64(w)
			if id == len(a.tokens) {
				out = append(out, EOFToken)
			} else {
				out = append(out, a.tokens[id])
			}
		}
	}
	sort.Strings(out)
	return out
}

func (a *Analysis) followOf(id int) []uint64 {
	return a.follow[id*a.followWords : (id+1)*a.followWords]
}

// computeFollow runs the FOLLOW fixpoint. The start symbol is followed by
// end of input.
func (a *Analysis) computeFollow() {
	prods := a.g.Productions()
	a.followWords = len(a.tokens)/64 + 1
	a.follow = make([]uint64, len(prods)*a.followWords)
	if id, ok := a.prodID[a.g.Start]; ok {
		eof := len(a.tokens)
		a.followOf(id)[eof>>6] |= 1 << (eof & 63)
	}
	for changed := true; changed; {
		changed = false
		for i, p := range prods {
			if a.followExpr(p.Expr, a.followOf(i)) {
				changed = true
			}
		}
	}
}

// followExpr adds follow, the set that can follow e as a whole, to the
// FOLLOW sets of the nonterminals that can end e, and recurses. It
// reports whether any FOLLOW set grew. Only LL1Conflicts and Follow run
// it, so it allocates its scratch sets per visit.
func (a *Analysis) followExpr(e Expr, follow []uint64) bool {
	changed := false
	switch x := e.(type) {
	case NT:
		if id, ok := a.prodID[x.Name]; ok {
			dst := a.followOf(id)
			for i, w := range follow {
				if dst[i]|w != dst[i] {
					dst[i] |= w
					changed = true
				}
			}
		}
	case Seq:
		// Walk right to left, keeping the set that can follow item i.
		cur := slices.Clone(follow)
		for i := len(x.Items) - 1; i >= 0; i-- {
			it := x.Items[i]
			if a.followExpr(it, cur) {
				changed = true
			}
			if !a.nullableExpr(it) {
				clear(cur)
			}
			a.FirstInto(it, cur)
		}
	case Choice:
		for _, alt := range x.Alts {
			if a.followExpr(alt, follow) {
				changed = true
			}
		}
	case Opt:
		changed = a.followExpr(x.Body, follow)
	case Star:
		changed = a.followRepeat(x.Body, follow)
	case Plus:
		changed = a.followRepeat(x.Body, follow)
	}
	return changed
}

// followRepeat propagates follow into a repeated body, which can also be
// followed by its own FIRST (the next iteration).
func (a *Analysis) followRepeat(body Expr, follow []uint64) bool {
	merged := slices.Clone(follow)
	a.FirstInto(body, merged)
	return a.followExpr(body, merged)
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
// LL(1)-distinguishable. It computes FOLLOW the first time it is called.
func (a *Analysis) LL1Conflicts() []LL1Conflict {
	a.followOnce.Do(a.computeFollow)
	n := a.followWords
	seen, overlap, cur := make([]uint64, n), make([]uint64, n), make([]uint64, n)
	var out []LL1Conflict
	for i, p := range a.g.Productions() {
		alts := p.Alternatives()
		if len(alts) < 2 {
			continue
		}
		clear(seen)
		clear(overlap)
		overlaps := false
		for _, alt := range alts {
			clear(cur)
			if a.FirstInto(alt, cur) {
				for k, w := range a.followOf(i) {
					cur[k] |= w
				}
			}
			for k, w := range cur {
				if o := seen[k] & w; o != 0 {
					overlap[k] |= o
					overlaps = true
				}
				seen[k] |= w
			}
		}
		if overlaps {
			out = append(out, LL1Conflict{Production: p.Name, Tokens: a.names(overlap)})
		}
	}
	return out
}

// LeftRecursive returns the nonterminals involved in (possibly indirect)
// left recursion, sorted. The backtracking engine cannot terminate on
// left-recursive productions, so Validate rejects them; the SQL:2003
// decomposition uses repetition groups instead (as LL grammars must).
func LeftRecursive(g *Grammar) []string {
	return newAnalysis(g).leftRecursive()
}

// leftRecursive finds left recursion from nullable alone: A is
// left-recursive if A can reach itself through the nonterminals that can
// occur leftmost in a derivation.
func (a *Analysis) leftRecursive() []string {
	prods := a.g.Productions()
	edges := make([][]int, len(prods))
	for i, p := range prods {
		edges[i] = a.leftmost(p.Expr, nil)
	}
	var out []string
	seen := make([]int, len(prods))
	for i, p := range prods {
		if reaches(edges, i, i, seen, i+1) {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	return out
}

// leftmost appends to out the productions that can occur at the start of
// a derivation of e.
func (a *Analysis) leftmost(e Expr, out []int) []int {
	switch x := e.(type) {
	case NT:
		if id, ok := a.prodID[x.Name]; ok {
			out = append(out, id)
		}
	case Seq:
		for _, it := range x.Items {
			out = a.leftmost(it, out)
			if !a.nullableExpr(it) {
				break // later items cannot be leftmost
			}
		}
	case Choice:
		for _, alt := range x.Alts {
			out = a.leftmost(alt, out)
		}
	case Opt:
		out = a.leftmost(x.Body, out)
	case Star:
		out = a.leftmost(x.Body, out)
	case Plus:
		out = a.leftmost(x.Body, out)
	}
	return out
}

// reaches reports whether to is reachable from from along edges; seen
// marks visited productions with stamp.
func reaches(edges [][]int, from, to int, seen []int, stamp int) bool {
	for _, next := range edges[from] {
		if next == to {
			return true
		}
		if seen[next] != stamp {
			seen[next] = stamp
			if reaches(edges, next, to, seen, stamp) {
				return true
			}
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
// Left recursion is found from nullable alone; when the grammar is valid
// Validate computes FIRST and returns the analysis, so a build analyses its
// grammar once.
func Validate(g *Grammar, tokens *TokenSet) (*Analysis, error) {
	an := newAnalysis(g)
	ve := &ValidationError{Grammar: g.Name}
	ve.Undefined = g.UndefinedNonterminals()
	ve.LeftRec = an.leftRecursive()
	if tokens != nil {
		for _, t := range an.tokens {
			if !tokens.Has(t) {
				ve.MissingTok = append(ve.MissingTok, t)
			}
		}
	}
	if len(ve.Undefined) == 0 && len(ve.LeftRec) == 0 && len(ve.MissingTok) == 0 {
		an.computeFirst()
		return an, nil
	}
	ve.Unreached = Unreachable(g)
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
