// The allocation half of the greedy pass's linearity: the runtime's own
// tests (internal/codegen/rt) pin that the greedy pass proves long select
// lists on both engines; here a warm Check of one costs no allocation.
package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
)

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

// TestLongAcceptAllocationBudget: a warm Check of an accepted 1,000-column
// select allocates nothing on core and full, on both engines — the greedy
// pass proves it, so the packrat memo (prods × tokens slots, beyond what a
// pooled run retains) is never built.
func TestLongAcceptAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	q := longSelect(1000)
	for _, name := range []dialect.Name{dialect.Core, dialect.Full} {
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
