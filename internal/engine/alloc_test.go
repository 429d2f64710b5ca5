// Allocation budgets for the generated parsers, mirroring
// the interpreter's budgets in internal/parser/alloc_test.go: regressions
// fail plain `go test`, not just bench-smoke. Race builds skip — the
// detector's instrumentation allocates on its own.
package engine_test

import (
	"testing"

	"sqlspl/internal/dialect"
)

// warmQueries is one in-dialect query per preset, shared by the Check and
// Parse budget tests.
var warmQueries = map[string]string{
	"minimal":   "SELECT a FROM t WHERE b = 1",
	"tinysql":   "SELECT nodeid, light FROM sensors SAMPLE PERIOD 1024",
	"scql":      "SELECT balance FROM purses WHERE id = 1",
	"core":      "SELECT a, b FROM t JOIN u ON a = b WHERE c = 1 ORDER BY a",
	"warehouse": "SELECT region, SUM(amount) FROM sales GROUP BY ROLLUP (region)",
	"full":      "SELECT a FROM t WHERE b = 1 GROUP BY a HAVING COUNT(a) > 1",
}

// TestGeneratedParseAllocationBudget pins the tree path: the runtime
// builds the seam's Tree nodes and child lists directly in slabs that hand
// off with the returned tree, so a warm Parse costs only the chunks that
// back the tree and its token buffer — not the hundreds of allocations a
// per-node copy would cost. Budgets are measured steady-state values plus
// 2.
func TestGeneratedParseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	budgets := map[string]float64{
		"minimal":   8,
		"tinysql":   9,
		"scql":      8,
		"core":      10,
		"warehouse": 9,
		"full":      10,
	}
	for _, name := range dialect.Names() {
		gen, _ := enginePair(t, name)
		q, ok := warmQueries[string(name)]
		if !ok {
			t.Fatalf("no warm query for preset %s", name)
		}
		budget, ok := budgets[string(name)]
		if !ok {
			t.Fatalf("no Parse budget for preset %s", name)
		}
		if _, err := gen.Parse(q); err != nil {
			t.Fatalf("%s: warm query rejected: %v", name, err)
		}
		for i := 0; i < 5; i++ {
			gen.Parse(q) // warm the run pool and slab spares
		}
		if allocs := testing.AllocsPerRun(300, func() {
			if _, err := gen.Parse(q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); allocs > budget {
			t.Errorf("%s: generated Parse allocates %.1f allocs/op, budget %.0f", name, allocs, budget)
		}
	}
}
