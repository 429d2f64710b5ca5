package core_test

import (
	"runtime"
	"testing"

	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/feature"
	"sqlspl/internal/sql2003"
)

// TestBuildAllocationBudget bounds what one product build allocates: a
// cold start builds six presets and every new custom selection builds
// one, so a build that computes more than the parser needs (or computes
// it over a fresh map per expression) shows up here. Each build is
// measured three times after a warm-up build, which parses the units
// the registry then caches, and the least of the three is held to the
// budget.
func TestBuildAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	m := sql2003.MustModel()
	for _, c := range []struct {
		name   dialect.Name
		budget uint64 // bytes
	}{
		{dialect.Core, 3 << 20},
		{dialect.Full, 8 << 20},
	} {
		feats, err := dialect.Features(c.name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := feature.NewConfig(feats...)
		build := func() {
			if _, err := core.Build(m, sql2003.Registry{}, cfg, core.Options{Product: string(c.name)}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		build()
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			build()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: one build allocates %.2f MB (budget %.0f MB)", c.name, float64(least)/(1<<20), float64(c.budget)/(1<<20))
		if least > c.budget {
			t.Errorf("%s: one build allocates %d bytes, budget %d", c.name, least, c.budget)
		}
	}
}
