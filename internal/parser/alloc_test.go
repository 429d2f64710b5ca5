package parser

import (
	"testing"
)

// The zero-allocation contract of the warm serving path: once a parser's
// run pool has warmed up, Accepts must not allocate per query. The budget
// is explicit and absolute — a regression that reintroduces a map, a
// closure or a per-node heap Tree shows up here, not just as a slow creep
// in the benchmarks.

func TestAcceptsAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := miniParser(t, Options{})
	queries := []string{
		"SELECT name FROM users",
		"SELECT DISTINCT name FROM users WHERE id = 7",
		"SELECT name FROM users WHERE name = 'x'",
	}
	// Warm up: first calls grow the pooled memo, slabs and token buffer.
	for i := 0; i < 5; i++ {
		for _, q := range queries {
			if !p.Accepts(q) {
				t.Fatalf("warmup rejected %q", q)
			}
		}
	}
	const budget = 0 // per Accepts call, averaged over the runs
	avg := testing.AllocsPerRun(200, func() {
		for _, q := range queries {
			if !p.Accepts(q) {
				t.Fatalf("rejected %q", q)
			}
		}
	}) / float64(len(queries))
	if avg > budget {
		t.Errorf("warm Accepts allocates %.2f/query, budget %d", avg, budget)
	}
}

// Check's accept path shares Accepts' zero-allocation property; only a
// reject pays for the syntax error its tracked pass builds.
func TestCheckAcceptAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := miniParser(t, Options{})
	const q = "SELECT DISTINCT name FROM users WHERE id = 7"
	for i := 0; i < 5; i++ {
		if err := p.Check(q); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := p.Check(q); err != nil {
			t.Fatalf("Check: %v", err)
		}
	})
	if avg > 0 {
		t.Errorf("warm Check (accept) allocates %.2f/query, budget 0", avg)
	}
}

// TestTreeOutlivesPooledRun pins the slab-handoff contract: a tree returned
// by Parse must stay intact while the same parser keeps parsing (and its
// pooled run-state keeps recycling chunks underneath).
func TestTreeOutlivesPooledRun(t *testing.T) {
	p := miniParser(t, Options{})
	tree, err := p.Parse("SELECT DISTINCT name FROM users WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	want := tree.Dump()
	wantText := tree.Text()

	// Churn the pool: successful and failing parses, accepts and checks,
	// all reusing (and re-zeroing) the recycled run-state.
	for i := 0; i < 50; i++ {
		if _, err := p.Parse("SELECT name FROM users"); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Parse("SELECT FROM"); err == nil {
			t.Fatal("expected syntax error")
		}
		if !p.Accepts("SELECT name FROM users WHERE name = 'x'") {
			t.Fatal("accept failed")
		}
		_ = p.Check("FROM FROM FROM")
	}

	if got := tree.Dump(); got != want {
		t.Errorf("tree mutated after pooled-run reuse:\nbefore:\n%s\nafter:\n%s", want, got)
	}
	if got := tree.Text(); got != wantText {
		t.Errorf("tree text mutated: %q -> %q", wantText, got)
	}
}
