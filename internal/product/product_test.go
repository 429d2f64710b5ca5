package product

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlspl/internal/compose"
	"sqlspl/internal/core"
	"sqlspl/internal/feature"
	"sqlspl/internal/parser"
	"sqlspl/internal/sql2003"
	"sqlspl/internal/workload"
)

// minimalFeatures mirrors the paper's worked example (dialect.Minimal);
// spelled out here to keep the package free of a dialect dependency.
var minimalFeatures = []string{
	"query_specification", "select_list", "select_columns", "derived_column",
	"table_expression", "from", "where",
	"set_quantifier", "quantifier_all", "quantifier_distinct",
	"search_condition", "predicate", "comparison", "op_equals",
	"value_expression", "identifier_chain", "literal", "numeric_literal", "string_literal",
}

func newTestCatalog(t *testing.T) *Catalog {
	t.Helper()
	return NewCatalog(sql2003.MustModel(), sql2003.Registry{})
}

func TestFingerprintCanonical(t *testing.T) {
	a := feature.NewConfig("where", "from", "table_expression")
	b := feature.NewConfig("table_expression", "where", "from")
	if Fingerprint(a, core.Options{}) != Fingerprint(b, core.Options{}) {
		t.Error("fingerprint depends on selection order")
	}
	c := feature.NewConfig("where", "from")
	if Fingerprint(a, core.Options{}) == Fingerprint(c, core.Options{}) {
		t.Error("different selections share a fingerprint")
	}
	if Fingerprint(a, core.Options{}) == Fingerprint(a, core.Options{NoErasure: true}) {
		t.Error("artifact-relevant option ignored by fingerprint")
	}
	if Fingerprint(a, core.Options{}) != Fingerprint(a, core.Options{Trace: func(string, ...any) {}}) {
		t.Error("Trace must not shape the fingerprint")
	}
}

func TestGetCachesIdenticalSelections(t *testing.T) {
	cat := newTestCatalog(t)
	cfg := feature.NewConfig(minimalFeatures...)
	p1, err := cat.Get(cfg, core.Options{Product: "minimal"})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cat.Get(cfg, core.Options{Product: "minimal"})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("identical selections built twice")
	}
	m := cat.Stats()
	if m.Misses != 1 || m.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", m)
	}
	if !p1.Accepts("SELECT a FROM t WHERE b = 1") {
		t.Error("cached product does not parse its dialect")
	}
}

func TestGetDistinguishesOptions(t *testing.T) {
	cat := newTestCatalog(t)
	cfg := feature.NewConfig(minimalFeatures...)
	p1, err := cat.Get(cfg, core.Options{Product: "a"})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cat.Get(cfg, core.Options{Product: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("different product names share one cache entry")
	}
	if cat.Len() != 2 {
		t.Errorf("Len = %d, want 2", cat.Len())
	}
}

// TestGetHonoursEachDiagnosticCap: two requests that differ only in the
// diagnostic cap get distinct products, and each product's statement
// recovery stops at its own cap.
func TestGetHonoursEachDiagnosticCap(t *testing.T) {
	cat := newTestCatalog(t)
	cfg := feature.NewConfig(minimalFeatures...)
	wide, err := cat.Get(cfg, core.Options{Parser: parser.Options{MaxDiagnostics: 100}})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := cat.Get(cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if wide == capped {
		t.Fatal("requests with different diagnostic caps share one product")
	}
	script := strings.Repeat("SELECT FROM t; ", 40)
	if n := len(wide.Diagnose(script)); n != 40 {
		t.Errorf("cap 100: %d diagnostics for 40 failing statements, want 40", n)
	}
	// The default cap, plus the TooManyErrors sentinel.
	if n := len(capped.Diagnose(script)); n != parser.DefaultMaxDiagnostics+1 {
		t.Errorf("default cap: %d diagnostics, want %d", n, parser.DefaultMaxDiagnostics+1)
	}
}

func TestGetClonesConfig(t *testing.T) {
	cat := newTestCatalog(t)
	cfg := feature.NewConfig(minimalFeatures...)
	p1, err := cat.Get(cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's config must not corrupt the cached product.
	cfg.Deselect("where")
	p2, err := cat.Get(feature.NewConfig(minimalFeatures...), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache miss after caller mutated its config")
	}
	if !p1.Config.Has("where") {
		t.Error("cached product's config was mutated through the caller's reference")
	}
}

func TestGetCachesFailures(t *testing.T) {
	cat := newTestCatalog(t)
	// An invalid selection: quantifier_all and quantifier_distinct are an
	// alternative group, but selecting a lone child with no concept root
	// fails validation.
	bad := feature.NewConfig("quantifier_all")
	if _, err := cat.Get(bad, core.Options{NoAutoClose: true}); err == nil {
		t.Fatal("invalid selection built successfully")
	}
	if _, err := cat.Get(bad, core.Options{NoAutoClose: true}); err == nil {
		t.Fatal("cached failure turned into success")
	}
	m := cat.Stats()
	if m.Misses != 1 {
		t.Errorf("failure rebuilt: %d misses", m.Misses)
	}
}

func TestConcurrentGetSingleflight(t *testing.T) {
	cat := newTestCatalog(t)
	const goroutines = 16
	products := make([]*core.Product, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := feature.NewConfig(minimalFeatures...)
			products[g], errs[g] = cat.Get(cfg, core.Options{Product: "minimal"})
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if products[g] != products[0] {
			t.Fatal("concurrent gets returned distinct products")
		}
	}
	m := cat.Stats()
	if m.Misses != 1 {
		t.Errorf("%d builds for one selection under concurrency", m.Misses)
	}
	if m.Hits+m.Shared != goroutines-1 {
		t.Errorf("metrics = %+v, want hits+shared = %d", m, goroutines-1)
	}
}

func TestStatsSnapshot(t *testing.T) {
	cat := newTestCatalog(t)
	if s := cat.Stats(); s != (Stats{}) {
		t.Errorf("fresh catalog stats = %+v, want zero", s)
	}
	cfg := feature.NewConfig(minimalFeatures...)
	if _, err := cat.Get(cfg, core.Options{Product: "minimal"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Get(cfg, core.Options{Product: "minimal"}); err != nil {
		t.Fatal(err)
	}
	s := cat.Stats()
	if s.Misses != 1 || s.Hits != 1 || s.Shared != 0 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit", s)
	}
	if s.Entries != 1 {
		t.Errorf("Entries = %d, want 1", s.Entries)
	}
	if s.InFlight != 0 {
		t.Errorf("InFlight = %d, want 0 after builds settle", s.InFlight)
	}
}

func TestLookup(t *testing.T) {
	cat := newTestCatalog(t)
	cfg := feature.NewConfig(minimalFeatures...)
	if _, _, ok := cat.LookupSelection(NewSelection(cfg, core.Options{})); ok {
		t.Error("LookupSelection hit on an empty catalog")
	}
	want, err := cat.Get(cfg, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok := cat.LookupSelection(NewSelection(cfg, core.Options{}))
	if !ok || got != want {
		t.Error("LookupSelection missed a cached product")
	}
}

// TestSelectionSharesSlot: a pre-fingerprinted selection keys the same
// slot as its (cfg, opts) request, is immune to later mutation of the
// caller's config, and LookupSelection reads the slot without counting.
func TestSelectionSharesSlot(t *testing.T) {
	cat := newTestCatalog(t)
	cfg := feature.NewConfig(minimalFeatures...)
	opts := core.Options{Product: "minimal"}
	sel := NewSelection(cfg, opts)
	cfg.Deselect("where")
	if got, want := sel.Fingerprint(), Fingerprint(feature.NewConfig(minimalFeatures...), opts); got != want {
		t.Fatalf("selection fingerprint %s, want %s", got, want)
	}
	if !sel.Config().Has("where") {
		t.Error("selection shares the caller's config")
	}
	if _, _, ok := cat.LookupSelection(sel); ok {
		t.Error("LookupSelection hit on an empty catalog")
	}
	p, eng, err := cat.ResolveSelection(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cat.Get(feature.NewConfig(minimalFeatures...), opts); err != nil || got != p {
		t.Errorf("Get after ResolveSelection = %p, %v; want the same product %p", got, err, p)
	}
	before := cat.Stats()
	lp, leng, ok := cat.LookupSelection(sel)
	if !ok || lp != p || leng.Info() != eng.Info() {
		t.Errorf("LookupSelection = %p, %+v, %v; want the resolved slot", lp, leng, ok)
	}
	if after := cat.Stats(); after != before {
		t.Errorf("LookupSelection moved the counters: %+v -> %+v", before, after)
	}
	if before.Misses != 1 || before.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss and 1 hit", before)
	}
}

// TestCatalogBound: more distinct selections than catalogCapacity keep at
// most catalogCapacity slots, cached failures included; every lookup is
// counted once and every slot dropped is counted as an eviction; and a
// preset resolved afterwards still parses its workload.
func TestCatalogBound(t *testing.T) {
	cat := newTestCatalog(t)
	var lookups uint64
	for i := 0; i < 2*catalogCapacity; i++ {
		// An unknown feature fails validation: the slot is a cached failure.
		cfg := feature.NewConfig(append([]string{fmt.Sprintf("unknown_%d", i)}, minimalFeatures...)...)
		for j := 0; j < 2; j++ {
			if _, err := cat.Get(cfg, core.Options{}); err == nil {
				t.Fatalf("selection %d built", i)
			}
			lookups++
		}
		s := cat.Stats()
		if s.Entries > catalogCapacity {
			t.Fatalf("after %d selections: %d entries, capacity %d", i+1, s.Entries, catalogCapacity)
		}
		if s.Misses-s.Evictions != uint64(s.Entries) {
			t.Fatalf("after %d selections: misses %d - evictions %d != entries %d", i+1, s.Misses, s.Evictions, s.Entries)
		}
		if s.Hits+s.Misses+s.Shared != lookups {
			t.Fatalf("after %d selections: hits+misses+shared = %d, want %d lookups", i+1, s.Hits+s.Misses+s.Shared, lookups)
		}
	}
	if s := cat.Stats(); s.Evictions == 0 {
		t.Errorf("no eviction after %d selections: %+v", 2*catalogCapacity, s)
	}
	_, eng, err := cat.Resolve(feature.NewConfig(minimalFeatures...), core.Options{Product: "minimal"})
	if err != nil {
		t.Fatal(err)
	}
	queries, _ := workload.ForDialect("minimal", 1, 50)
	for _, q := range queries {
		if err := eng.Check(q); err != nil {
			t.Errorf("minimal rejects its workload statement %q: %v", q, err)
		}
	}
}

// panicSource is a unit source whose every Unit call panics once release
// is closed; the first call closes entered, so a test can tell that a
// build is in flight and let other resolves join it.
type panicSource struct {
	entered, release chan struct{}
	once             sync.Once
}

func (s *panicSource) Unit(string) (compose.Unit, error) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	panic("unit source failure")
}

// goResolve runs one Resolve of cfg on its own goroutine and sends on
// done whether it panicked. Callers bound their wait on done, so a
// resolve blocked on a wedged slot fails the test instead of hanging it.
func goResolve(cat *Catalog, cfg *feature.Config, done chan<- bool) {
	go func() {
		panicked := true
		defer func() {
			recover()
			done <- panicked
		}()
		cat.Resolve(cfg, core.Options{Product: "minimal"})
		panicked = false
	}()
}

// TestPanickingBuildReleasesWaiters: a build that panics must not wedge
// its slot. The resolves that joined it and the next resolve of the same
// selection each return or panic, no build is left in flight, and the
// failed slot is not kept.
func TestPanickingBuildReleasesWaiters(t *testing.T) {
	src := &panicSource{entered: make(chan struct{}), release: make(chan struct{})}
	cat := NewCatalog(sql2003.MustModel(), src)
	cfg := feature.NewConfig(minimalFeatures...)
	const joiners = 3
	done := make(chan bool, joiners+1)
	goResolve(cat, cfg, done)
	<-src.entered
	for i := 0; i < joiners; i++ {
		goResolve(cat, cfg, done)
	}
	for deadline := time.Now().Add(10 * time.Second); cat.Stats().Shared < joiners; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d resolves joined the build", cat.Stats().Shared, joiners)
		}
		runtime.Gosched()
	}
	close(src.release)
	timeout := time.After(10 * time.Second)
	for i := 0; i < joiners+1; i++ {
		select {
		case panicked := <-done:
			if !panicked {
				t.Error("a resolve of a panicking build returned without panicking")
			}
		case <-timeout:
			t.Fatalf("%d of %d resolves still blocked on the panicked build", joiners+1-i, joiners+1)
		}
	}
	goResolve(cat, cfg, done)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a resolve after the panicked build is still blocked")
	}
	if s := cat.Stats(); s.InFlight != 0 || s.Entries != 0 {
		t.Errorf("stats = %+v, want no build in flight and the failed slot gone", s)
	}
}

func TestDefaultCatalogIsShared(t *testing.T) {
	if Default() != Default() {
		t.Error("Default returned distinct catalogs")
	}
}

// TestWarmServingPathAllocationBudget pins the end-to-end serving
// contract: a catalog-cached product's verdict path (Accepts/Check) must
// not allocate per query once the parser's pooled run-state has warmed up.
// This is the same budget internal/parser enforces, asserted here through
// the catalog so a regression anywhere on the product path (cache lookup
// included) is caught.
func TestWarmServingPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cat := newTestCatalog(t)
	cfg := feature.NewConfig(minimalFeatures...)
	opts := core.Options{Product: "minimal"}
	queries := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT a FROM t WHERE b = 1",
		"SELECT a FROM t WHERE b = 'x'",
	}
	warm, err := cat.Get(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for _, q := range queries {
			if !warm.Accepts(q) {
				t.Fatalf("warmup rejected %q", q)
			}
		}
	}
	// The parse calls themselves: zero allocations.
	avg := testing.AllocsPerRun(200, func() {
		for _, q := range queries {
			if !warm.Accepts(q) {
				t.Fatalf("rejected %q", q)
			}
			if err := warm.Check(q); err != nil {
				t.Fatalf("Check(%q): %v", q, err)
			}
		}
	})
	if avg > 0 {
		t.Errorf("warm product parse path allocates %.2f per round, budget 0", avg)
	}

	// The catalog lookup in front of them: bounded by the fingerprint
	// canonicalisation (sorted name slice, hash, hex key), independent of
	// query count. The budget is deliberately explicit so an accidental
	// rebuild (or a cache miss regression) fails loudly.
	const lookupBudget = 60
	lookup := testing.AllocsPerRun(200, func() {
		p, err := cat.Get(cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p != warm {
			t.Fatal("cache returned a different product")
		}
	})
	if lookup > lookupBudget {
		t.Errorf("warm catalog lookup allocates %.2f, budget %d", lookup, lookupBudget)
	}

	// A pre-fingerprinted selection skips the canonicalisation entirely.
	sel := NewSelection(cfg, opts)
	if resolve := testing.AllocsPerRun(200, func() {
		if p, _, err := cat.ResolveSelection(sel); err != nil || p != warm {
			t.Fatalf("ResolveSelection = %p, %v; want the cached product", p, err)
		}
	}); resolve != 0 {
		t.Errorf("warm selection resolve allocates %.2f, budget 0", resolve)
	}
}
