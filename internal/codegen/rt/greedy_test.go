// The greedy pass may only ever prove what the packrat pass accepts: these
// tests hold it to that on every preset, over the interpreted program and
// the generated one, and on solver-sampled products, and pin that both
// engines carry the same program.
// They also pin its coverage and linearity: the statements the serving
// workloads send, long select lists and deep nesting are proven by the
// greedy pass alone, which spends at most a fixed number of node visits
// per token, so accepting them costs linear time and no packrat memo.
package rt_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/configure"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/sentence"
	"sqlspl/internal/sql2003"
	"sqlspl/internal/workload"

	// Link the pregenerated preset parsers under test.
	_ "sqlspl/internal/engine/generated"
)

// subject is one preset's runtime parser on one engine.
type subject struct {
	name   string
	parser *rt.Parser
}

// subjects returns every preset's interpreted and generated parsers, and
// fails when the two do not carry the same program and keyword table.
func subjects(t testing.TB) []subject {
	t.Helper()
	generated := map[string]*rt.Parser{}
	for _, g := range engine.Registered() {
		generated[g.Preset] = g.Parser
	}
	var out []subject
	for _, name := range dialect.Names() {
		p, err := dialect.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		interp, gen := p.Parser.Parser, generated[string(name)]
		if gen == nil {
			t.Fatalf("%s: no generated parser registered", name)
		}
		if !reflect.DeepEqual(gen.Program, interp.Program) {
			t.Fatalf("%s: the generated parser's program differs from the interpreter's", name)
		}
		if !reflect.DeepEqual(gen.Keywords, interp.Keywords) {
			t.Fatalf("%s: the generated parser's keyword table differs from the interpreter's", name)
		}
		out = append(out,
			subject{string(name) + "/interpreted", interp},
			subject{string(name) + "/generated", gen})
	}
	return out
}

// checkSound asserts the two properties on one input: a greedy proof
// implies packrat acceptance, and Check's verdict is the packrat verdict.
// It reports whether the greedy pass proved the input, and the node
// visits per token the pass spent.
func checkSound(t *testing.T, s subject, src string) (proved bool, perToken float64) {
	t.Helper()
	proved, visits := s.parser.Greedy(src)
	accepted := s.parser.Packrat(src)
	if proved && !accepted {
		t.Errorf("%s: greedy pass proves what the packrat pass rejects: %q", s.name, src)
	}
	toks, err := s.parser.ScanFrom(src, 0, 1, 1, 0, nil)
	if err != nil || len(toks) == 0 {
		return proved, 0 // Check accepts empty input whatever the grammar says
	}
	if checked := s.parser.Check(src) == nil; checked != accepted {
		t.Errorf("%s: Check verdict %v, packrat verdict %v: %q", s.name, checked, accepted, src)
	}
	return proved, float64(visits) / float64(len(toks))
}

// swapTokens swaps two adjacent space-separated words of s at a position
// chosen by seed: a near miss the greedy pass must not prove by accident.
func swapTokens(s string, seed int) string {
	w := strings.Fields(s)
	if len(w) < 2 {
		return s
	}
	i := seed % (len(w) - 1)
	w[i], w[i+1] = w[i+1], w[i]
	return strings.Join(w, " ")
}

// TestGreedySound runs the soundness properties over each preset's
// workload, grammar-derived sentences and their token-swapped near
// misses, and logs (-v) how many inputs the greedy pass proves and the
// node visits per token it spends on them.
func TestGreedySound(t *testing.T) {
	for _, s := range subjects(t) {
		preset, _, _ := strings.Cut(s.name, "/")
		queries, _ := workload.ForDialect(preset, 1, 500)
		p, err := dialect.Build(dialect.Name(preset))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := sentence.New(p.Grammar, p.Tokens, sentence.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sentences := gen.Generate(500)
		corpora := map[string][]string{"workload": queries, "sentences": sentences}
		for i, q := range sentences {
			corpora["swapped"] = append(corpora["swapped"], swapTokens(q, i))
		}
		for _, c := range []string{"workload", "sentences", "swapped"} {
			var perToken []float64
			for _, q := range corpora[c] {
				if proved, v := checkSound(t, s, q); proved {
					perToken = append(perToken, v)
				}
			}
			slices.Sort(perToken)
			if n := len(perToken); n > 0 {
				t.Logf("%s %s: greedy pass proved %d/%d, visits per token p50 %.1f, max %.1f",
					s.name, c, n, len(corpora[c]), perToken[n/2], perToken[n-1])
			}
		}
	}
}

// TestGreedySoundSampledProducts holds the greedy pass to the soundness
// properties beyond the six presets: six solver-sampled supersets of core,
// each built rooted at core's start symbol as sqlgen -sample builds them,
// over 200 grammar-derived sentences and their token-swapped near misses.
func TestGreedySoundSampledProducts(t *testing.T) {
	base, err := dialect.Build(dialect.Core)
	if err != nil {
		t.Fatal(err)
	}
	m := sql2003.MustModel()
	sa, err := configure.New(m).NewSampler(7, 0.25, base.Config.Names()...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		cfg, err := sa.Next()
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.Build(m, sql2003.Registry{}, cfg, core.Options{
			Product: fmt.Sprintf("core+sampled-%d", i),
			Start:   base.Grammar.Start,
		})
		if err != nil {
			t.Fatalf("build sampled product %d (%d features): %v", i, cfg.Len(), err)
		}
		gen, err := sentence.New(p.Grammar, p.Tokens, sentence.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := subject{p.Name, p.Parser.Parser}
		proved := 0
		for j, q := range gen.Generate(200) {
			if ok, _ := checkSound(t, s, q); ok {
				proved++
			}
			checkSound(t, s, swapTokens(q, j))
		}
		t.Logf("%s (%d features): greedy pass proved %d/200 sentences", s.name, cfg.Len(), proved)
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
	for _, s := range subjects(t) {
		preset, _, _ := strings.Cut(s.name, "/")
		queries, _ := workload.ForDialect(preset, 1, 2000)
		accepted, proved := 0, 0
		for _, q := range queries {
			if !s.parser.Accepts(q) {
				continue
			}
			accepted++
			if ok, _ := s.parser.Greedy(q); ok {
				proved++
			} else if accepted-proved <= 3 {
				t.Errorf("%s: greedy pass does not prove %q", s.name, q)
			}
		}
		if accepted == 0 || proved != accepted {
			t.Errorf("%s: greedy pass proved %d of %d accepted statements", s.name, proved, accepted)
		}
	}
}

// TestGreedyProvesLongSelect: an accepted 1,000-column select is proven
// on core and full, on both engines — so the packrat memo (prods × tokens
// slots, beyond what a pooled run retains) is never built for it; the
// allocation half of this property is pinned in internal/engine.
func TestGreedyProvesLongSelect(t *testing.T) {
	q := longSelect(1000)
	for _, s := range subjects(t) {
		if preset, _, _ := strings.Cut(s.name, "/"); preset != string(dialect.Core) && preset != string(dialect.Full) {
			continue
		}
		if ok, _ := s.parser.Greedy(q); !ok {
			t.Errorf("%s: greedy pass does not prove a 1,000-column select", s.name)
		}
	}
}

// TestGreedyProvesDeepNesting: a comparison inside 1,000 nested
// parentheses is proven on both engines of every preset.
func TestGreedyProvesDeepNesting(t *testing.T) {
	q := nested(1000)
	for _, s := range subjects(t) {
		if ok, _ := s.parser.Greedy(q); !ok {
			t.Errorf("%s: greedy pass does not prove 1,000 nested parentheses", s.name)
		}
	}
}

// FuzzGreedySound holds every preset's greedy pass, on both engines, to
// the soundness properties under arbitrary input.
func FuzzGreedySound(f *testing.F) {
	p, err := dialect.Build(dialect.Core)
	if err != nil {
		f.Fatal(err)
	}
	gen, err := sentence.New(p.Grammar, p.Tokens, sentence.Options{Seed: 5, MaxDepth: 9})
	if err != nil {
		f.Fatal(err)
	}
	for i, s := range gen.Generate(24) {
		f.Add(s)
		f.Add(swapTokens(s, i))
	}
	for _, s := range []string{
		"", "SELECT a FROM t", "SELECT a, b, c FROM t WHERE (((a))) = 1",
		"SELECT a FROM t WHERE CURRENT OF c", "((((((((((a", "SELECT FROM t",
	} {
		f.Add(s)
	}
	var subs []subject
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			t.Skip("oversized input")
		}
		if subs == nil {
			subs = subjects(t)
		}
		for _, s := range subs {
			checkSound(t, s, src)
		}
	})
}
