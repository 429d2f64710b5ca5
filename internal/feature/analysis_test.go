package feature

import (
	"reflect"
	"sort"
	"testing"
)

func analysisModel(t *testing.T) *Model {
	t.Helper()
	d1 := NewDiagram("q", "",
		New("root",
			New("mand1",
				New("mand2"),
				New("opt1").MarkOptional(),
			),
			New("group",
				New("g1"),
				New("g2"),
			).GroupOr().MarkOptional(),
			New("alt",
				New("a1"),
				New("a2"),
			).GroupAlt(),
			New("solo_group",
				New("only_child"),
			).GroupOr(),
		),
	)
	d2 := NewDiagram("other", "",
		New("other_root",
			New("needs_g1").MarkOptional(),
			New("hates_g1").MarkOptional(),
		),
	)
	m, err := NewModel("am", []*Diagram{d1, d2}, []Constraint{
		{Kind: Requires, A: "needs_g1", B: "g1"},
		{Kind: Requires, A: "hates_g1", B: "g1"},
		{Kind: Excludes, A: "hates_g1", B: "g1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeadFeatures(t *testing.T) {
	m := analysisModel(t)
	dead := m.DeadFeatures()
	if len(dead) != 1 || dead[0] != "hates_g1" {
		t.Errorf("dead = %v, want [hates_g1]", dead)
	}
}

// closureDeadFeatures is the pre-solver DeadFeatures implementation, kept
// here as the reference the solver-backed definition is pinned against: a
// feature was reported dead only when its mechanical requires-closure
// tripped an excludes constraint.
func closureDeadFeatures(m *Model) []string {
	var dead []string
	for _, name := range m.FeatureNames() {
		closed := m.Close(NewConfig(name))
		for _, con := range m.Constraints {
			if con.Kind == Excludes && closed.Has(con.A) && closed.Has(con.B) {
				dead = append(dead, name)
				break
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// TestDeadFeaturesPinnedAgainstClosureCheck pins the solver-backed
// DeadFeatures against the old closure check: every closure-dead feature
// must stay dead under the exact definition, and on analysisModel the two
// agree exactly.
func TestDeadFeaturesPinnedAgainstClosureCheck(t *testing.T) {
	m := analysisModel(t)
	oldDead := closureDeadFeatures(m)
	newDead := m.DeadFeatures()
	if !reflect.DeepEqual(oldDead, newDead) {
		t.Errorf("closure dead %v != solver dead %v on analysisModel", oldDead, newDead)
	}
	exact := map[string]bool{}
	for _, d := range newDead {
		exact[d] = true
	}
	for _, d := range oldDead {
		if !exact[d] {
			t.Errorf("closure-dead %s not reported dead by the solver", d)
		}
	}
}

// TestDeadFeaturesCatchesGroupDeaths shows why the solver definition is
// strictly stronger: a feature requiring both children of an alternative
// group is dead, but its closure trips no excludes constraint, so the old
// check missed it.
func TestDeadFeaturesCatchesGroupDeaths(t *testing.T) {
	d1 := NewDiagram("alt", "",
		New("alt_root",
			New("x1"),
			New("x2"),
		).GroupAlt(),
	)
	d2 := NewDiagram("wants", "",
		New("wants_root",
			New("wants_both").MarkOptional(),
		),
	)
	m, err := NewModel("group-death", []*Diagram{d1, d2}, []Constraint{
		{Kind: Requires, A: "wants_both", B: "x1"},
		{Kind: Requires, A: "wants_both", B: "x2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := closureDeadFeatures(m); len(got) != 0 {
		t.Fatalf("closure check unexpectedly reports %v dead", got)
	}
	dead := m.DeadFeatures()
	if len(dead) != 1 || dead[0] != "wants_both" {
		t.Errorf("dead = %v, want [wants_both]", dead)
	}
}
