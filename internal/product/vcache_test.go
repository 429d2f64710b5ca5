package product

import (
	"fmt"
	"sync"
	"testing"

	"sqlspl/internal/core"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
)

func testEngine(t *testing.T, product string, features []string) engine.Engine {
	t.Helper()
	_, eng, err := newTestCatalog(t).Resolve(feature.NewConfig(features...), core.Options{Product: product})
	if err != nil {
		t.Fatalf("Resolve(%s): %v", product, err)
	}
	return eng
}

func TestVerdictCacheHitSharesResult(t *testing.T) {
	eng := testEngine(t, "minimal", minimalFeatures)
	vc := NewVerdictCache(64)

	good := vc.Verdict(eng, "SELECT a FROM t")
	if !good.OK() || good.Diags != nil {
		t.Fatalf("accepted statement: %+v", good)
	}
	if again := vc.Verdict(eng, "SELECT a FROM t"); again != good {
		t.Fatal("hit did not return the shared cached verdict")
	}

	bad := vc.Verdict(eng, "SELECT FROM WHERE")
	if bad.OK() || len(bad.Diags) == 0 {
		t.Fatalf("rejected statement cached without diagnostics: %+v", bad)
	}
	if bad.Err.Error() != eng.Check("SELECT FROM WHERE").Error() {
		t.Fatal("cached Err differs from a direct Check")
	}
	if again := vc.Verdict(eng, "SELECT FROM WHERE"); again != bad {
		t.Fatal("rejected verdict not shared on hit")
	}

	st := vc.Stats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 misses + 2 hits", st)
	}
}

// Identical statement bytes under different fingerprints must not share
// an entry — the coherence half of the cache key.
func TestVerdictCacheFingerprintIsolation(t *testing.T) {
	full := testEngine(t, "mini-full", minimalFeatures)
	// A scaled-down selection without WHERE support rejects what the full
	// one accepts; serving either the other's verdict would be corruption.
	var noWhere []string
	for _, f := range minimalFeatures {
		if f != "where" {
			noWhere = append(noWhere, f)
		}
	}
	slim := testEngine(t, "mini-nowhere", noWhere)

	const q = "SELECT a FROM t WHERE a = 1"
	vc := NewVerdictCache(64)
	if v := vc.Verdict(full, q); !v.OK() {
		t.Fatalf("full dialect rejected %q: %v", q, v.Err)
	}
	if v := vc.Verdict(slim, q); v.OK() {
		t.Fatal("scaled-down dialect served the full dialect's cached acceptance")
	}
	if st := vc.Stats(); st.Misses != 2 {
		t.Fatalf("stats = %+v, want two distinct entries", st)
	}
}

// The acceptance criterion for E12: a warmed Verdict call allocates
// nothing.
func TestVerdictHitZeroAlloc(t *testing.T) {
	eng := testEngine(t, "minimal", minimalFeatures)
	vc := NewVerdictCache(1024)
	queries := make([]string, 32)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT c%d FROM t%d WHERE id = %d", i, i, i)
		vc.Verdict(eng, queries[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		q := queries[i&31]
		i++
		if !vc.Verdict(eng, q).OK() {
			t.Fatal("warmed statement rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Verdict allocates %v per op, want 0", allocs)
	}
}

func TestVerdictCacheConcurrent(t *testing.T) {
	eng := testEngine(t, "minimal", minimalFeatures)
	vc := NewVerdictCache(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("SELECT c%d FROM t", (g+i)%16)
				if !vc.Verdict(eng, q).OK() {
					t.Errorf("rejected %q", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := vc.Stats()
	if st.Misses > 16 {
		t.Fatalf("%d misses for 16 distinct statements (singleflight broken?)", st.Misses)
	}
	if st.Hits+st.Misses+st.Shared != 8*200 {
		t.Fatalf("counter sum %d != 1600: %+v", st.Hits+st.Misses+st.Shared, st)
	}
}
