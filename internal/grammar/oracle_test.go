package grammar_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"sqlspl/internal/configure"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/feature"
	"sqlspl/internal/grammar"
	"sqlspl/internal/sql2003"
)

// oracle is the reference grammar analysis: the textbook fixpoints over
// one fresh map per expression visited, as straightforward as they can be
// written. The package's analysis must compute the same nullable, FIRST
// and FOLLOW sets, LL(1) conflicts and left-recursive nonterminals.
type oracle struct {
	g        *grammar.Grammar
	nullable map[string]bool
	first    map[string]map[string]bool
	follow   map[string]map[string]bool
}

// analyzeOracle computes nullable and FIRST for g, and FOLLOW when
// withFollow is set.
func analyzeOracle(g *grammar.Grammar, withFollow bool) *oracle {
	o := &oracle{g: g, nullable: map[string]bool{}, first: map[string]map[string]bool{}, follow: map[string]map[string]bool{}}
	for _, p := range g.Productions() {
		o.first[p.Name] = map[string]bool{}
		o.follow[p.Name] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			n, f := o.exprFirst(p.Expr)
			if n && !o.nullable[p.Name] {
				o.nullable[p.Name] = true
				changed = true
			}
			for t := range f {
				if !o.first[p.Name][t] {
					o.first[p.Name][t] = true
					changed = true
				}
			}
		}
	}
	if !withFollow {
		return o
	}
	if g.Start != "" && o.follow[g.Start] != nil {
		o.follow[g.Start][grammar.EOFToken] = true
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.Productions() {
			if o.followExpr(p.Expr, o.follow[p.Name]) {
				changed = true
			}
		}
	}
	return o
}

func (o *oracle) exprFirst(e grammar.Expr) (bool, map[string]bool) {
	first := map[string]bool{}
	switch x := e.(type) {
	case grammar.Tok:
		first[x.Name] = true
		return false, first
	case grammar.NT:
		for t := range o.first[x.Name] {
			first[t] = true
		}
		return o.nullable[x.Name], first
	case grammar.Seq:
		nullable := true
		for _, it := range x.Items {
			n, f := o.exprFirst(it)
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
	case grammar.Choice:
		nullable := false
		for _, alt := range x.Alts {
			n, f := o.exprFirst(alt)
			nullable = nullable || n
			for t := range f {
				first[t] = true
			}
		}
		return nullable, first
	case grammar.Opt:
		_, f := o.exprFirst(x.Body)
		return true, f
	case grammar.Star:
		_, f := o.exprFirst(x.Body)
		return true, f
	case grammar.Plus:
		return o.exprFirst(x.Body)
	}
	return false, first
}

func union(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for t := range a {
		out[t] = true
	}
	for t := range b {
		out[t] = true
	}
	return out
}

func (o *oracle) followExpr(e grammar.Expr, follow map[string]bool) bool {
	changed := false
	switch x := e.(type) {
	case grammar.NT:
		dst := o.follow[x.Name]
		if dst == nil {
			return false
		}
		for t := range follow {
			if !dst[t] {
				dst[t] = true
				changed = true
			}
		}
	case grammar.Seq:
		cur := follow
		for i := len(x.Items) - 1; i >= 0; i-- {
			it := x.Items[i]
			if o.followExpr(it, cur) {
				changed = true
			}
			n, f := o.exprFirst(it)
			if n {
				cur = union(cur, f)
			} else {
				cur = f
			}
		}
	case grammar.Choice:
		for _, alt := range x.Alts {
			if o.followExpr(alt, follow) {
				changed = true
			}
		}
	case grammar.Opt:
		changed = o.followExpr(x.Body, follow)
	case grammar.Star:
		_, f := o.exprFirst(x.Body)
		changed = o.followExpr(x.Body, union(follow, f))
	case grammar.Plus:
		_, f := o.exprFirst(x.Body)
		changed = o.followExpr(x.Body, union(follow, f))
	}
	return changed
}

func (o *oracle) ll1Conflicts() []grammar.LL1Conflict {
	var out []grammar.LL1Conflict
	for _, p := range o.g.Productions() {
		alts := p.Alternatives()
		if len(alts) < 2 {
			continue
		}
		overlap := map[string]bool{}
		seen := map[string]bool{}
		for _, alt := range alts {
			n, f := o.exprFirst(alt)
			if n {
				f = union(f, o.follow[p.Name])
			}
			for t := range f {
				if seen[t] {
					overlap[t] = true
				}
				seen[t] = true
			}
		}
		if len(overlap) > 0 {
			out = append(out, grammar.LL1Conflict{Production: p.Name, Tokens: keys(overlap)})
		}
	}
	return out
}

func (o *oracle) leftRecursive() []string {
	leftEdges := map[string]map[string]bool{}
	var collect func(e grammar.Expr, set map[string]bool)
	collect = func(e grammar.Expr, set map[string]bool) {
		switch x := e.(type) {
		case grammar.NT:
			set[x.Name] = true
		case grammar.Seq:
			for _, it := range x.Items {
				collect(it, set)
				if n, _ := o.exprFirst(it); !n {
					return
				}
			}
		case grammar.Choice:
			for _, alt := range x.Alts {
				collect(alt, set)
			}
		case grammar.Opt:
			collect(x.Body, set)
		case grammar.Star:
			collect(x.Body, set)
		case grammar.Plus:
			collect(x.Body, set)
		}
	}
	for _, p := range o.g.Productions() {
		set := map[string]bool{}
		collect(p.Expr, set)
		leftEdges[p.Name] = set
	}
	var reachable func(from, to string, seen map[string]bool) bool
	reachable = func(from, to string, seen map[string]bool) bool {
		for next := range leftEdges[from] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if reachable(next, to, seen) {
					return true
				}
			}
		}
		return false
	}
	var out []string
	for name := range leftEdges {
		if reachable(name, name, map[string]bool{}) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sets reads a per-production view of the analysis under test as sets.
func sets(g *grammar.Grammar, view func(name string) []string) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, p := range g.Productions() {
		out[p.Name] = map[string]bool{}
		for _, t := range view(p.Name) {
			out[p.Name][t] = true
		}
	}
	return out
}

// sameNullableFirst reports the first production whose nullable flag or
// FIRST set differs between an and the reference o.
func sameNullableFirst(an *grammar.Analysis, o *oracle) error {
	first := sets(o.g, an.First)
	for _, p := range o.g.Productions() {
		if got, want := an.Nullable(p.Name), o.nullable[p.Name]; got != want {
			return fmt.Errorf("nullable(%s) = %v, reference %v", p.Name, got, want)
		}
		if got, want := first[p.Name], o.first[p.Name]; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("FIRST(%s) = %v, reference %v", p.Name, keys(got), keys(want))
		}
	}
	return nil
}

// checkOracle holds every analysis of g to the reference: nullable,
// FIRST, FOLLOW, LL(1) conflicts and left recursion.
func checkOracle(t *testing.T, g *grammar.Grammar) {
	t.Helper()
	o := analyzeOracle(g, true)
	an := grammar.Analyze(g)
	if err := sameNullableFirst(an, o); err != nil {
		t.Errorf("%s: %v", g.Name, err)
	}
	follow := sets(g, an.Follow)
	for _, p := range g.Productions() {
		if got, want := follow[p.Name], o.follow[p.Name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: FOLLOW(%s) = %v, reference %v", g.Name, p.Name, keys(got), keys(want))
		}
	}
	if got, want := an.LL1Conflicts(), o.ll1Conflicts(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: LL1Conflicts = %v, reference %v", g.Name, got, want)
	}
	if got, want := grammar.LeftRecursive(g), o.leftRecursive(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: LeftRecursive = %v, reference %v", g.Name, got, want)
	}
}

// oracleGrammars extend the unit-test grammars with the shapes the
// fixpoints have to get right: nullable alternatives whose FOLLOW meets
// another alternative's FIRST, end of input in a conflict, repetitions of
// nullable bodies, a production that ends in itself, and references to
// undefined nonterminals.
var oracleGrammars = []string{
	`grammar o ; s : a B | B ; a : ( X )* | Y ;`,
	`grammar o ; s : ( A )? | ( B )* ;`,
	`grammar o ; s : ( a )+ C ; a : ( B )? | D a ;`,
	`grammar o ; s : X s | X ;`,
	`grammar o ; s : a ( b )* ; a : undefined A | ( B )? ; b : a C | ;`,
	`grammar o ; s : a b c D ; a : ( A )? ; b : ( B a )* ; c : a | b ;`,
	`grammar o ; s : ( ( A | ( B )? ) ( C )* )+ s2 ; s2 : ( s )? E ;`,
}

func TestAnalysisMatchesOracleUnitGrammars(t *testing.T) {
	for i, src := range append(append([]string{}, grammar.UnitTestGrammars...), oracleGrammars...) {
		g, err := grammar.ParseGrammar(src)
		if err != nil {
			t.Fatalf("grammar %d: %v", i, err)
		}
		checkOracle(t, g)
	}
}

func TestAnalysisMatchesOraclePresets(t *testing.T) {
	for _, name := range dialect.Names() {
		p, err := dialect.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, p.Grammar)
	}
}

// TestAnalysisMatchesOracleSampledProducts draws solver-sampled supersets
// of core the way TestGreedySoundSampledProducts (internal/codegen/rt)
// does, and twice as many.
func TestAnalysisMatchesOracleSampledProducts(t *testing.T) {
	base, err := dialect.Build(dialect.Core)
	if err != nil {
		t.Fatal(err)
	}
	m := sql2003.MustModel()
	sa, err := configure.New(m).NewSampler(7, 0.25, base.Config.Names()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		cfg, err := sa.Next()
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Build(m, sql2003.Registry{}, cfg, core.Options{
			Product: fmt.Sprintf("core+sampled-%d", i),
			Start:   base.Grammar.Start,
		})
		if err != nil {
			t.Fatalf("build sampled product %d: %v", i, err)
		}
		checkOracle(t, p.Grammar)
	}
}

// FuzzAnalysis composes arbitrary feature selections, decoded from the
// fuzz bytes as FuzzCompose (internal/sql2003) decodes them, and holds the
// analysis of every product that builds — the one grammar.Validate
// returns to the parser build — to the reference nullable and FIRST sets.
func FuzzAnalysis(f *testing.F) {
	m := sql2003.MustModel()
	names := m.FeatureNames()
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("query core-ish selection bytes"))
	all := make([]byte, 0, 64)
	for i := 0; i < 256; i += 4 {
		all = append(all, byte(i))
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, sel []byte) {
		if len(sel) > 120 {
			sel = sel[:120]
		}
		feats := make([]string, 0, len(sel))
		for _, b := range sel {
			feats = append(feats, names[int(b)%len(names)])
		}
		p, err := core.Build(m, sql2003.Registry{}, feature.NewConfig(feats...), core.Options{Product: "fuzzed"})
		if err != nil {
			return
		}
		an, err := grammar.Validate(p.Grammar, p.Tokens)
		if err != nil {
			t.Fatalf("selection %v: built product fails validation: %v", feats, err)
		}
		if err := sameNullableFirst(an, analyzeOracle(p.Grammar, false)); err != nil {
			t.Fatalf("selection %v: %v", feats, err)
		}
	})
}
