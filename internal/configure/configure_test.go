package configure

import (
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sqlspl/internal/feature"
	"sqlspl/internal/sql2003"
)

// testModel mirrors feature's analysisModel: an Or group, an Alternative
// group, mandatory chains, plus requires/excludes constraints including
// the dead feature hates_g1.
func testModel(t *testing.T) *feature.Model {
	t.Helper()
	d1 := feature.NewDiagram("q", "",
		feature.New("root",
			feature.New("mand1",
				feature.New("mand2"),
				feature.New("opt1").MarkOptional(),
			),
			feature.New("group",
				feature.New("g1"),
				feature.New("g2"),
			).GroupOr().MarkOptional(),
			feature.New("alt",
				feature.New("a1"),
				feature.New("a2"),
			).GroupAlt(),
		),
	)
	d2 := feature.NewDiagram("other", "",
		feature.New("other_root",
			feature.New("needs_g1").MarkOptional(),
			feature.New("hates_g1").MarkOptional(),
		),
	)
	m, err := feature.NewModel("cm", []*feature.Diagram{d1, d2}, []feature.Constraint{
		{Kind: feature.Requires, A: "needs_g1", B: "g1"},
		{Kind: feature.Requires, A: "hates_g1", B: "g1"},
		{Kind: feature.Excludes, A: "hates_g1", B: "g1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompleteAddsMinimalRemainder(t *testing.T) {
	s := New(testModel(t))
	comp, conflict, err := s.Complete(Request{Require: []string{"root"}})
	if err != nil || conflict != nil {
		t.Fatalf("err=%v conflict=%v", err, conflict)
	}
	if err := s.Model().Validate(comp.Config); err != nil {
		t.Fatalf("completed config invalid: %v", err)
	}
	wantAdded := []string{"a1", "alt", "mand1", "mand2"}
	if !reflect.DeepEqual(comp.Added, wantAdded) {
		t.Errorf("added %v, want %v", comp.Added, wantAdded)
	}
	if comp.Config.Has("group") || comp.Config.Has("opt1") {
		t.Errorf("completion added optional features it did not need: %v", comp.Config)
	}
}

func TestCompleteIdempotent(t *testing.T) {
	s := New(testModel(t))
	first, conflict, err := s.Complete(Request{Require: []string{"needs_g1"}})
	if err != nil || conflict != nil {
		t.Fatalf("err=%v conflict=%v", err, conflict)
	}
	again, conflict, err := s.Complete(Request{Require: first.Config.Names()})
	if err != nil || conflict != nil {
		t.Fatalf("err=%v conflict=%v", err, conflict)
	}
	if len(again.Added) != 0 {
		t.Errorf("re-completing a complete config added %v", again.Added)
	}
	if first.Config.String() != again.Config.String() {
		t.Errorf("completion not idempotent: %v vs %v", first.Config, again.Config)
	}
}

func TestCompleteUnknownFeature(t *testing.T) {
	s := New(testModel(t))
	if _, _, err := s.Complete(Request{Require: []string{"nope"}}); err == nil {
		t.Error("unknown feature should be an error")
	}
}

func TestExplainFeasibleIsNil(t *testing.T) {
	s := New(testModel(t))
	conflict, err := s.Explain(Request{Require: []string{"root", "g2"}})
	if err != nil {
		t.Fatal(err)
	}
	if conflict != nil {
		t.Errorf("feasible request explained as conflict: %v", conflict)
	}
}

func TestExplainMinimalConflict(t *testing.T) {
	s := New(testModel(t))
	// root and opt1 are innocent bystanders; the real conflict is
	// needs_g1 (which requires g1) against forbid g1.
	conflict, err := s.Explain(Request{
		Require: []string{"root", "opt1", "needs_g1"},
		Forbid:  []string{"g1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("want conflict")
	}
	wantDecisions := []string{"require:needs_g1", "forbid:g1"}
	if !reflect.DeepEqual(conflict.Decisions, wantDecisions) {
		t.Errorf("decisions %v, want %v", conflict.Decisions, wantDecisions)
	}
	found := false
	for _, con := range conflict.Constraints {
		if con == "needs_g1 requires g1" {
			found = true
		}
	}
	if !found {
		t.Errorf("constraints %v missing 'needs_g1 requires g1'", conflict.Constraints)
	}
	if !strings.Contains(conflict.Relaxation, "forbid:g1") {
		t.Errorf("relaxation should prefer dropping the forbid atom: %q", conflict.Relaxation)
	}
}

func TestExplainNamesExcludes(t *testing.T) {
	s := New(testModel(t))
	conflict, err := s.Explain(Request{Require: []string{"hates_g1"}})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("want conflict: hates_g1 is dead")
	}
	if !reflect.DeepEqual(conflict.Decisions, []string{"require:hates_g1"}) {
		t.Errorf("decisions %v, want the single dead feature", conflict.Decisions)
	}
	found := false
	for _, con := range conflict.Constraints {
		if con == "hates_g1 excludes g1" {
			found = true
		}
	}
	if !found {
		t.Errorf("constraints %v missing 'hates_g1 excludes g1'", conflict.Constraints)
	}
}

func TestExplainMinimalityEveryDrop(t *testing.T) {
	s := New(testModel(t))
	conflict, err := s.Explain(Request{
		Require: []string{"needs_g1", "hates_g1", "root"},
		Forbid:  []string{"g2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("want conflict")
	}
	// Irreducibility: removing any single decision restores feasibility.
	for skip := range conflict.Decisions {
		var req Request
		for i, dec := range conflict.Decisions {
			if i == skip {
				continue
			}
			name := strings.SplitN(dec, ":", 2)[1]
			if strings.HasPrefix(dec, "forbid:") {
				req.Forbid = append(req.Forbid, name)
			} else {
				req.Require = append(req.Require, name)
			}
		}
		sub, err := s.Explain(req)
		if err != nil {
			t.Fatal(err)
		}
		if sub != nil {
			t.Errorf("dropping %s still conflicts: %v", conflict.Decisions[skip], sub)
		}
	}
}

func TestDeadAgreement(t *testing.T) {
	m := testModel(t)
	s := New(m)
	// Cross-pin the two solver entry points: a feature is dead iff
	// Complete({f}) conflicts.
	var viaComplete []string
	for _, name := range m.FeatureNames() {
		_, conflict, err := s.Complete(Request{Require: []string{name}})
		if err != nil {
			t.Fatal(err)
		}
		if conflict != nil {
			viaComplete = append(viaComplete, name)
		}
	}
	if !reflect.DeepEqual(viaComplete, m.DeadFeatures()) {
		t.Errorf("Complete-dead %v != DeadFeatures %v", viaComplete, m.DeadFeatures())
	}
}

// bruteCount enumerates every subset of the diagram's features and counts
// the ones Validate accepts with the root selected — the ground truth the
// DP and the enumerator are checked against.
func bruteCount(t *testing.T, m *feature.Model, d *feature.Diagram) int64 {
	t.Helper()
	var names []string
	d.WalkFeatures(func(f *feature.Feature) { names = append(names, f.Name) })
	if len(names) > 20 {
		t.Fatalf("diagram %s too large to brute-force", d.Name)
	}
	// Only constraints inside this diagram apply: build a reduced model.
	var intra []feature.Constraint
	for _, con := range m.Constraints {
		if m.DiagramOf(con.A) == d && m.DiagramOf(con.B) == d {
			intra = append(intra, con)
		}
	}
	sub, err := feature.NewModel("brute", []*feature.Diagram{d}, intra)
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	for mask := 0; mask < 1<<len(names); mask++ {
		cfg := feature.NewConfig()
		for i, n := range names {
			if mask&(1<<i) != 0 {
				cfg.Select(n)
			}
		}
		if !cfg.Has(d.Root.Name) {
			continue
		}
		if sub.Validate(cfg) == nil {
			count++
		}
	}
	return count
}

func TestSpaceMatchesBruteForce(t *testing.T) {
	// A model with an intra-diagram constraint so the enumerate-and-filter
	// path is exercised alongside the pure DP path.
	d := feature.NewDiagram("cd", "",
		feature.New("croot",
			feature.New("x").MarkOptional(),
			feature.New("y").MarkOptional(),
			feature.New("grp",
				feature.New("p"),
				feature.New("q"),
			).GroupOr().MarkOptional(),
		),
	)
	m, err := feature.NewModel("cnt", []*feature.Diagram{d}, []feature.Constraint{
		{Kind: feature.Requires, A: "x", B: "y"},
		{Kind: feature.Excludes, A: "p", B: "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	spaces := s.Space()
	if len(spaces) != 1 {
		t.Fatalf("want 1 diagram, got %d", len(spaces))
	}
	if !spaces[0].Exact {
		t.Fatalf("small constrained diagram should count exactly: %+v", spaces[0])
	}
	want := bruteCount(t, m, d)
	if spaces[0].Products.Cmp(big.NewInt(want)) != 0 {
		t.Errorf("space %s, brute force %d", spaces[0].Products, want)
	}
	// The enumerator agrees and each config passes validation.
	configs, complete, err := s.Enumerate("cd", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !complete {
		t.Error("enumeration should be complete under a large limit")
	}
	if int64(len(configs)) != want {
		t.Errorf("enumerated %d configs, want %d", len(configs), want)
	}
	for _, names := range configs {
		cfg := feature.NewConfig(names...)
		if err := m.Validate(cfg); err != nil {
			t.Errorf("enumerated config invalid: %v (%v)", err, names)
		}
	}
}

// countProducts is the closed-form product count of a diagram that has no
// intra-diagram constraints: the uint64 counter the feature package had
// before the solver became the only one, kept as an oracle that, unlike
// bruteCount, reaches diagrams of real size.
func countProducts(f *feature.Feature) uint64 {
	if len(f.Children) == 0 {
		return 1
	}
	switch f.Group {
	case feature.Or:
		// Any non-empty subset of children, each child configured.
		total := uint64(1)
		for _, ch := range f.Children {
			total *= countProducts(ch) + 1
		}
		return total - 1
	case feature.Alternative:
		var total uint64
		for _, ch := range f.Children {
			total += countProducts(ch)
		}
		return total
	}
	total := uint64(1)
	for _, ch := range f.Children {
		ways := countProducts(ch)
		if ch.Optional {
			ways++ // or leave it out
		}
		total *= ways
	}
	return total
}

// TestSpaceUnconstrainedMatchesCountProducts holds the DP to countProducts
// on every diagram without intra-diagram constraints: testModel's two,
// whose constraints all cross diagrams, and those of the SQL:2003 model.
func TestSpaceUnconstrainedMatchesCountProducts(t *testing.T) {
	checked := 0
	for _, m := range []*feature.Model{testModel(t), sql2003.MustModel()} {
		constrained := map[*feature.Diagram]bool{}
		for _, con := range m.Constraints {
			if d := m.DiagramOf(con.A); d == m.DiagramOf(con.B) {
				constrained[d] = true
			}
		}
		for i, ds := range New(m).Space() {
			d := m.Diagrams[i]
			if d.Name != ds.Diagram {
				t.Fatalf("space %d is %s, diagram %d is %s", i, ds.Diagram, i, d.Name)
			}
			if constrained[d] {
				continue
			}
			if !ds.Exact {
				t.Errorf("%s: expected exact count", ds.Diagram)
			}
			if want := countProducts(d.Root); !ds.Products.IsUint64() || ds.Products.Uint64() != want {
				t.Errorf("%s: %s products, countProducts says %d", ds.Diagram, ds.Products, want)
			}
			checked++
		}
	}
	t.Logf("checked %d unconstrained diagrams", checked)
}

func TestEnumerateClips(t *testing.T) {
	s := New(testModel(t))
	configs, complete, err := s.Enumerate("q", 2)
	if err != nil {
		t.Fatal(err)
	}
	if complete {
		t.Error("limit 2 should clip diagram q")
	}
	if len(configs) != 2 {
		t.Errorf("got %d configs, want 2", len(configs))
	}
}

func TestSampleValidAndDeterministic(t *testing.T) {
	s := New(testModel(t))
	a, err := s.NewSampler(11, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewSampler(11, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		ca, err := a.Next()
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		cb, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ca.String() != cb.String() {
			t.Fatalf("draw %d differs across identical samplers", i)
		}
		if err := s.Model().Validate(ca); err != nil {
			t.Errorf("draw %d invalid: %v", i, err)
		}
		seen[ca.String()] = true
	}
	if len(seen) < 5 {
		t.Errorf("only %d distinct configs in 40 draws", len(seen))
	}
}

func TestSampleHonorsMust(t *testing.T) {
	s := New(testModel(t))
	sa, err := s.NewSampler(3, 0, "needs_g1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		cfg, err := sa.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !cfg.Has("needs_g1") || !cfg.Has("g1") {
			t.Errorf("draw %d dropped must-feature or its requirement: %v", i, cfg)
		}
		if err := s.Model().Validate(cfg); err != nil {
			t.Errorf("draw %d invalid: %v", i, err)
		}
	}
}

// CachedComplete must agree with Complete on both branches, answer
// repeats from the memo, and share results safely under concurrency.
func TestCachedComplete(t *testing.T) {
	s := New(testModel(t))
	req := Request{Require: []string{"needs_g1"}}
	c1, conf, err := s.CachedComplete(req)
	if err != nil || conf != nil || c1 == nil {
		t.Fatalf("CachedComplete: %v %v %v", c1, conf, err)
	}
	direct, _, err := s.Complete(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c1.Config.Names(), direct.Config.Names(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cached completion %v differs from direct %v", got, want)
	}
	c2, _, err := s.CachedComplete(Request{Require: []string{"needs_g1"}})
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("repeat request did not hit the memo")
	}
	st := s.CompletionCacheStats()
	if st.Misses != 1 || st.Hits < 1 {
		t.Fatalf("cache stats = %+v", st)
	}

	// Conflicts are memoized too.
	bad := Request{Require: []string{"hates_g1"}}
	_, conf1, err := s.CachedComplete(bad)
	if err != nil || conf1 == nil {
		t.Fatalf("conflict branch: %v %v", conf1, err)
	}
	_, conf2, _ := s.CachedComplete(bad)
	if conf2 != conf1 {
		t.Fatal("conflict not shared on repeat")
	}

	// Unknown names stay request errors and never enter the cache.
	if _, _, err := s.CachedComplete(Request{Require: []string{"no_such_feature"}}); err == nil {
		t.Fatal("unknown feature accepted")
	}
	if st := s.CompletionCacheStats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if c, _, err := s.CachedComplete(req); err != nil || c != c1 {
					t.Errorf("concurrent CachedComplete: %v %v", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
