package feature_test

import (
	"math/big"
	"testing"

	"sqlspl/internal/configure"
	"sqlspl/internal/feature"
)

// The feature model's sampler and product counter live in the
// configuration solver; these tests hold them to the properties the model
// promises, on analysisModel and on small diagrams with known counts.

// sample draws one configuration from a fresh solver sampler.
func sample(t *testing.T, m *feature.Model, seed int64, p float64, must ...string) *feature.Config {
	t.Helper()
	sa, err := configure.New(m).NewSampler(seed, p, must...)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	cfg, err := sa.Next()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return cfg
}

func TestCountProducts(t *testing.T) {
	for _, c := range []struct {
		root *feature.Feature
		want int64
	}{
		// Figure 1's Set Quantifier subtree: optional alternative {ALL,
		// DISTINCT} → 3 instances of that subtree (absent, ALL, DISTINCT)
		// for a parent with just this child.
		{feature.New("root",
			feature.New("set_quantifier", feature.New("all"), feature.New("distinct")).MarkOptional().GroupAlt(),
		), 3},
		// Or group of two: 3 non-empty subsets.
		{feature.New("root", feature.New("a"), feature.New("b")).GroupOr(), 3},
		// Two independent optionals: 4.
		{feature.New("root", feature.New("a").MarkOptional(), feature.New("b").MarkOptional()), 4},
	} {
		m, err := feature.NewModel("m", []*feature.Diagram{feature.NewDiagram("d", "", c.root)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		spaces := configure.New(m).Space()
		if len(spaces) != 1 || !spaces[0].Exact || spaces[0].Products.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("%s: space %+v, want exactly %d products", c.root.Children[0].Name, spaces, c.want)
		}
	}
}

func TestSampleValid(t *testing.T) {
	m := feature.AnalysisModel(t)
	for seed := int64(0); seed < 50; seed++ {
		if err := m.Validate(sample(t, m, seed, 0.7)); err != nil {
			t.Errorf("seed %d: sampled config invalid: %v", seed, err)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	m := feature.AnalysisModel(t)
	if a, b := sample(t, m, 7, 0.7), sample(t, m, 7, 0.7); a.String() != b.String() {
		t.Errorf("same seed differs: %v vs %v", a, b)
	}
}

func TestSampleMust(t *testing.T) {
	m := feature.AnalysisModel(t)
	for seed := int64(0); seed < 20; seed++ {
		cfg := sample(t, m, seed, 0, "needs_g1")
		if !cfg.Has("needs_g1") || !cfg.Has("g1") {
			t.Errorf("seed %d: must-feature or its requirement missing: %v", seed, cfg)
		}
		if err := m.Validate(cfg); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestSampleVariety(t *testing.T) {
	m := feature.AnalysisModel(t)
	seen := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		seen[sample(t, m, seed, 0.7).String()] = true
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct configurations in 40 samples", len(seen))
	}
}
