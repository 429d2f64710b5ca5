package feature_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sqlspl/internal/configure"
	"sqlspl/internal/dialect"
	"sqlspl/internal/feature"
	"sqlspl/internal/sql2003"
)

// referenceSequence is the insertion-sort Kahn walk Sequence used before
// its ready list became a heap, kept as the reference the heap is pinned
// against: same order, same requires-cycle error text.
func referenceSequence(m *feature.Model, c *feature.Config) ([]string, error) {
	var base []string
	pos := map[string]int{}
	for _, d := range m.Diagrams {
		d.WalkFeatures(func(f *feature.Feature) {
			if c.Has(f.Name) {
				pos[f.Name] = len(base)
				base = append(base, f.Name)
			}
		})
	}
	succ := map[string][]string{}
	indeg := map[string]int{}
	for _, name := range base {
		indeg[name] = 0
	}
	for _, name := range base {
		f := m.Feature(name)
		if f == nil || f.Parent() == nil {
			continue
		}
		if _, ok := pos[f.Parent().Name]; ok {
			succ[f.Parent().Name] = append(succ[f.Parent().Name], name)
			indeg[name]++
		}
	}
	for _, con := range m.Constraints {
		if con.Kind != feature.Requires {
			continue
		}
		if _, okA := pos[con.A]; !okA {
			continue
		}
		if _, okB := pos[con.B]; !okB {
			continue
		}
		succ[con.B] = append(succ[con.B], con.A)
		indeg[con.A]++
	}
	ready := make([]string, 0, len(base))
	for _, name := range base {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	sortByPos := func(names []string) {
		for i := 1; i < len(names); i++ {
			for j := i; j > 0 && pos[names[j]] < pos[names[j-1]]; j-- {
				names[j], names[j-1] = names[j-1], names[j]
			}
		}
	}
	sortByPos(ready)
	out := make([]string, 0, len(base))
	for len(ready) > 0 {
		name := ready[0]
		ready = ready[1:]
		out = append(out, name)
		for _, next := range succ[name] {
			indeg[next]--
			if indeg[next] == 0 {
				ready = append(ready, next)
			}
		}
		sortByPos(ready)
	}
	if len(out) != len(base) {
		var stuck []string
		for name, d := range indeg {
			if d > 0 {
				stuck = append(stuck, name)
			}
		}
		sortByPos(stuck)
		return nil, fmt.Errorf("requires cycle among selected features: %v", stuck)
	}
	return out, nil
}

// sameSequence fails unless Sequence and the reference agree on c: the
// same order, or the same error text.
func sameSequence(t *testing.T, what string, m *feature.Model, c *feature.Config) {
	t.Helper()
	got, gerr := m.Sequence(c)
	want, werr := referenceSequence(m, c)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: Sequence error %v, reference %v", what, gerr, werr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Sequence\n  %v\nreference\n  %v", what, got, want)
	}
}

// TestSequenceMatchesReference holds Sequence to the reference on the six
// presets, on 240 solver-sampled configurations of the SQL:2003 model, and
// on random small models whose requires constraints often form cycles.
func TestSequenceMatchesReference(t *testing.T) {
	m := sql2003.MustModel()
	for _, name := range dialect.Names() {
		feats, err := dialect.Features(name)
		if err != nil {
			t.Fatal(err)
		}
		sameSequence(t, string(name), m, m.Close(feature.NewConfig(feats...)))
	}
	sol := configure.New(m)
	for seed := int64(0); seed < 240; seed++ {
		sa, err := sol.NewSampler(seed, []float64{0.1, 0.35, 0.7, 1}[seed%4])
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := sa.Next()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameSequence(t, fmt.Sprintf("sample %d", seed), m, cfg)
	}
	cycles := 0
	for seed := int64(0); seed < 200; seed++ {
		m, cfg := randomRequiresModel(t, rand.New(rand.NewSource(seed)))
		if _, err := m.Sequence(cfg); err != nil {
			cycles++
		}
		sameSequence(t, fmt.Sprintf("random model %d", seed), m, cfg)
	}
	if cycles < 20 {
		t.Errorf("only %d of 200 random models have a requires cycle", cycles)
	}
}

// randomRequiresModel builds a one-diagram model of 12 features in a
// random tree under feature f0, with random requires constraints among
// them, and a configuration selecting a random subset.
func randomRequiresModel(t *testing.T, rng *rand.Rand) (*feature.Model, *feature.Config) {
	t.Helper()
	const n = 12
	nodes := make([]*feature.Feature, n)
	kids := make([][]*feature.Feature, n)
	parent := make([]int, n)
	for i := 1; i < n; i++ {
		parent[i] = rng.Intn(i)
	}
	for i := n - 1; i >= 0; i-- {
		// Children were appended in descending order; restore declaration
		// order so the tree reads f0, f1, ... in pre-order where it can.
		for l, r := 0, len(kids[i])-1; l < r; l, r = l+1, r-1 {
			kids[i][l], kids[i][r] = kids[i][r], kids[i][l]
		}
		nodes[i] = feature.New(fmt.Sprintf("f%d", i), kids[i]...)
		if i > 0 {
			kids[parent[i]] = append(kids[parent[i]], nodes[i].MarkOptional())
		}
	}
	var cons []feature.Constraint
	for k := rng.Intn(8); k > 0; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			cons = append(cons, feature.Constraint{Kind: feature.Requires,
				A: fmt.Sprintf("f%d", a), B: fmt.Sprintf("f%d", b)})
		}
	}
	m, err := feature.NewModel("random", []*feature.Diagram{feature.NewDiagram("f0", "", nodes[0])}, cons)
	if err != nil {
		t.Fatal(err)
	}
	cfg := feature.NewConfig()
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 {
			cfg.Select(fmt.Sprintf("f%d", i))
		}
	}
	return m, cfg
}
