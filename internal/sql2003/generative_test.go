package sql2003

import (
	"strings"
	"testing"

	"sqlspl/internal/configure"
	"sqlspl/internal/core"
	"sqlspl/internal/feature"
)

// sample draws one configuration from a fresh solver sampler seeded with
// seed: p is the probability of including each diagram must does not
// force.
func sample(t *testing.T, sol *configure.Solver, seed int64, p float64, must ...string) *feature.Config {
	t.Helper()
	sa, err := sol.NewSampler(seed, p, must...)
	if err != nil {
		t.Fatalf("seed %d: sampler: %v", seed, err)
	}
	cfg, err := sa.Next()
	if err != nil {
		t.Fatalf("seed %d: sample: %v", seed, err)
	}
	return cfg
}

// TestModelHasNoDeadFeatures: every feature of the SQL:2003 model is
// selectable in some product.
func TestModelHasNoDeadFeatures(t *testing.T) {
	m := MustModel()
	if dead := m.DeadFeatures(); len(dead) != 0 {
		t.Errorf("dead features: %v", dead)
	}
}

// TestSampledConfigurationsBuild is the generative whole-pipeline test:
// every solver-sampled valid configuration of the model must compose into
// a valid grammar and yield a working parser. It exercises feature
// combinations no hand-written dialect covers (the product-line promise:
// all valid products work, not just the curated ones).
func TestSampledConfigurationsBuild(t *testing.T) {
	m := MustModel()
	sol := configure.New(m)
	seeds := int64(60)
	if testing.Short() {
		seeds = 10
	}
	built := 0
	for seed := int64(0); seed < seeds; seed++ {
		cfg := sample(t, sol, seed, 0.35)
		product, err := core.Build(m, Registry{}, cfg, core.Options{Product: "sampled"})
		if err != nil {
			if strings.Contains(err.Error(), "contributes no grammar units") {
				continue // an empty selection is legitimately unbuildable
			}
			t.Errorf("seed %d (%d features): %v", seed, cfg.Len(), err)
			continue
		}
		built++
		// The parser must behave sanely: reject garbage, accept nothing
		// from an empty string unless the grammar is nullable.
		if product.Accepts("§§ nonsense £") {
			t.Errorf("seed %d: product accepts garbage", seed)
		}
	}
	if built < int(seeds)/2 {
		t.Errorf("only %d/%d sampled configurations built", built, seeds)
	}
	t.Logf("built %d/%d sampled products", built, seeds)
}

// TestSampledQueryProducts samples configurations forced to include the
// worked-example query core, and checks each accepts the baseline query.
func TestSampledQueryProducts(t *testing.T) {
	m := MustModel()
	sol := configure.New(m)
	mustHave := []string{
		"sql_script", "query_statement_f", "query_expression",
		"query_specification", "select_list", "select_columns", "derived_column",
		"table_expression", "from",
		"value_expression", "identifier_chain", "literal", "numeric_literal",
	}
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(100); seed < 100+seeds; seed++ {
		cfg := sample(t, sol, seed, 0.15, mustHave...)
		product, err := core.Build(m, Registry{}, cfg, core.Options{Product: "sampled-query"})
		if err != nil {
			t.Errorf("seed %d (%d features): %v", seed, cfg.Len(), err)
			continue
		}
		if !product.Accepts("SELECT a FROM t") {
			_, perr := product.Parse("SELECT a FROM t")
			t.Errorf("seed %d: baseline query rejected: %v", seed, perr)
		}
	}
}
