// Coverage and linearity of the greedy pass on both engines: the
// statements the serving workloads send, long select lists and deep
// nesting are proven by the greedy pass alone, which spends at most a
// fixed number of node visits per token, so accepting them costs linear
// time and no packrat memo.
package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/workload"
)

// provers returns a preset's greedy-only parsers, interpreted and
// generated: the runtime parser's tables with a packrat pass that accepts
// nothing, so Accepts on one reports whether the greedy pass alone proves
// the input.
func provers(t *testing.T, name dialect.Name) map[string]*rt.Parser {
	t.Helper()
	p, err := dialect.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*rt.Parser{"interpreted": greedyOnly(p.Parser.Parser)}
	for _, g := range engine.Registered() {
		if g.Preset == string(name) {
			out["generated"] = greedyOnly(g.Parser)
		}
	}
	if len(out) != 2 {
		t.Fatalf("%s: no generated parser registered", name)
	}
	return out
}

func greedyOnly(p *rt.Parser) *rt.Parser {
	return &rt.Parser{
		Keywords: p.Keywords, MaxKeywordLen: p.MaxKeywordLen, Puncts: p.Puncts,
		Classes: p.Classes, Displays: p.Displays, Prods: p.Prods, Start: p.Start,
		Program: p.Program,
		Root:    func(*rt.Run, int) []rt.Result { return nil },
	}
}

// longSelect is a select list of n columns.
func longSelect(n int) string {
	var b strings.Builder
	b.WriteString("SELECT c0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, ", c%d", i)
	}
	b.WriteString(" FROM t")
	return b.String()
}

// nested is a comparison against a literal inside depth parentheses.
func nested(depth int) string {
	return "SELECT a FROM t WHERE b = " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
}

// TestGreedyProvesWorkloads: every workload statement the engines accept
// is proven by the greedy pass, on every preset and both engines.
func TestGreedyProvesWorkloads(t *testing.T) {
	for _, name := range dialect.Names() {
		gen, _ := enginePair(t, name)
		queries, _ := workload.ForDialect(string(name), 1, 2000)
		for kind, prover := range provers(t, name) {
			accepted, proved := 0, 0
			for _, q := range queries {
				if !gen.Accepts(q) {
					continue
				}
				accepted++
				if prover.Accepts(q) {
					proved++
				} else if accepted-proved <= 3 {
					t.Errorf("%s/%s: greedy pass does not prove %q", name, kind, q)
				}
			}
			if accepted == 0 || proved != accepted {
				t.Errorf("%s/%s: greedy pass proved %d of %d accepted statements", name, kind, proved, accepted)
			}
		}
	}
}

// TestLongAcceptAllocationBudget: a warm Check of an accepted 1,000-column
// select allocates nothing on core and full, on both engines — the greedy
// pass proves it, so the packrat memo (prods × tokens slots, beyond what a
// pooled run retains) is never built.
func TestLongAcceptAllocationBudget(t *testing.T) {
	q := longSelect(1000)
	for _, name := range []dialect.Name{dialect.Core, dialect.Full} {
		for kind, prover := range provers(t, name) {
			if !prover.Accepts(q) {
				t.Errorf("%s/%s: greedy pass does not prove a 1,000-column select", name, kind)
			}
		}
		if raceEnabled {
			continue
		}
		gen, interp := enginePair(t, name)
		for kind, eng := range map[string]engine.Engine{"generated": gen, "interpreted": interp} {
			for i := 0; i < 3; i++ {
				if err := eng.Check(q); err != nil {
					t.Fatalf("%s/%s: %v", name, kind, err)
				}
			}
			if allocs := testing.AllocsPerRun(20, func() { eng.Check(q) }); allocs != 0 {
				t.Errorf("%s/%s: warm Check of a 1,000-column select allocates %.1f allocs/op, want 0", name, kind, allocs)
			}
		}
	}
}

// TestGreedyProvesDeepNesting: a comparison inside 1,000 nested
// parentheses is proven on both engines of every preset.
func TestGreedyProvesDeepNesting(t *testing.T) {
	q := nested(1000)
	for _, name := range dialect.Names() {
		for kind, prover := range provers(t, name) {
			if !prover.Accepts(q) {
				t.Errorf("%s/%s: greedy pass does not prove 1,000 nested parentheses", name, kind)
			}
		}
	}
}
