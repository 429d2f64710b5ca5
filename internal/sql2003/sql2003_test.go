package sql2003

import (
	"math/big"
	"testing"

	"sqlspl/internal/configure"
	"sqlspl/internal/feature"
	"sqlspl/internal/grammar"
)

func TestAllUnitsParse(t *testing.T) {
	reg := Registry{}
	for _, name := range UnitNames() {
		u, err := reg.Unit(name)
		if err != nil {
			t.Errorf("unit %s: %v", name, err)
			continue
		}
		if u.Grammar == nil && u.Tokens == nil {
			t.Errorf("unit %s is empty", name)
		}
	}
}

func TestUnknownUnit(t *testing.T) {
	if _, err := (Registry{}).Unit("no_such_unit"); err == nil {
		t.Error("unknown unit must fail")
	}
}

func TestUnitsReturnClones(t *testing.T) {
	reg := Registry{}
	u1, err := reg.Unit("query_specification")
	if err != nil {
		t.Fatal(err)
	}
	if err := u1.Grammar.Replace("query_specification", grammar.Tok{Name: "X"}); err != nil {
		t.Fatal(err)
	}
	u2, _ := reg.Unit("query_specification")
	if grammar.Equal(u2.Grammar.Production("query_specification").Expr, grammar.Tok{Name: "X"}) {
		t.Error("Unit returned shared grammar state")
	}
}

func TestModelBuilds(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatalf("Model: %v", err)
	}
	if m.Name != "sql2003" {
		t.Errorf("model name = %q", m.Name)
	}
}

// TestInventoryCounts reproduces the paper's reported decomposition size
// (experiment E3): "Overall 40 feature diagrams are obtained for SQL
// Foundation with more than 500 features."
func TestInventoryCounts(t *testing.T) {
	m := MustModel()
	if got := len(m.Diagrams); got < 40 {
		t.Errorf("diagrams = %d, want >= 40 (paper reports 40)", got)
	}
	if got := m.FeatureCount(); got <= 500 {
		t.Errorf("features = %d, want > 500 (paper reports more than 500)", got)
	}
	t.Logf("inventory: %d diagrams, %d features, %d grammar/token units",
		len(m.Diagrams), m.FeatureCount(), len(UnitNames()))
}

// TestEveryProvidedUnitExists checks the feature -> unit wiring.
func TestEveryProvidedUnitExists(t *testing.T) {
	m := MustModel()
	reg := Registry{}
	for _, d := range m.Diagrams {
		d.WalkFeatures(func(f *feature.Feature) {
			for _, u := range f.Units {
				if _, err := reg.Unit(u); err != nil {
					t.Errorf("feature %s: %v", f.Name, err)
				}
			}
		})
	}
}

// TestEveryUnitIsReachable checks no registered unit is orphaned (unused by
// any feature) — orphans indicate a wiring bug or dead decomposition work.
func TestEveryUnitIsReachable(t *testing.T) {
	m := MustModel()
	used := map[string]bool{}
	for _, d := range m.Diagrams {
		d.WalkFeatures(func(f *feature.Feature) {
			for _, u := range f.Units {
				used[u] = true
			}
		})
	}
	for _, name := range UnitNames() {
		if !used[name] {
			t.Errorf("unit %s is not provided by any feature", name)
		}
	}
}

// TestFigure1Structure reproduces paper Figure 1 (experiment E1): the Query
// Specification feature diagram.
func TestFigure1Structure(t *testing.T) {
	m := MustModel()
	d := m.DiagramOf("query_specification")
	if d == nil || d.Name != "query_specification" {
		t.Fatal("query_specification diagram missing")
	}

	sq := m.Feature("set_quantifier")
	if sq == nil || !sq.Optional {
		t.Fatal("Set Quantifier must be an optional feature")
	}
	if len(sq.Children) != 2 {
		t.Fatalf("Set Quantifier children = %d, want ALL and DISTINCT", len(sq.Children))
	}
	names := map[string]bool{}
	for _, c := range sq.Children {
		names[c.Name] = true
	}
	if !names["quantifier_all"] || !names["quantifier_distinct"] {
		t.Errorf("Set Quantifier children = %v", sq.Children)
	}

	sl := m.Feature("select_list")
	if sl == nil || sl.Optional {
		t.Fatal("Select List must be mandatory")
	}
	if sl.Group != feature.Or {
		t.Errorf("Select List group = %v, want choice between Asterisk and Select Sublist", sl.Group)
	}
	sc := m.Feature("select_columns")
	if sc == nil || sc.CardMin != 1 || sc.CardMax != -1 {
		t.Errorf("Select Sublist cardinality = %v, want [1..*]", sc.CardinalityString())
	}
	if m.Feature("derived_column") == nil {
		t.Error("Derived Column feature missing")
	}
	if m.Feature("alias_as_keyword") == nil {
		t.Error("AS feature missing (Figure 1 shows AS under Derived Column)")
	}
}

// TestFigure2Structure reproduces paper Figure 2 (experiment E2): the Table
// Expression feature diagram — From mandatory; Where, Group By, Having,
// Window optional.
func TestFigure2Structure(t *testing.T) {
	m := MustModel()
	te := m.Feature("table_expression")
	if te == nil {
		t.Fatal("table_expression feature missing")
	}
	from := m.Feature("from")
	if from == nil || from.Optional || from.Parent() != te {
		t.Error("From must be a mandatory child of Table Expression")
	}
	for _, name := range []string{"where", "group_by", "having", "window"} {
		f := m.Feature(name)
		if f == nil {
			t.Errorf("feature %s missing", name)
			continue
		}
		if !f.Optional {
			t.Errorf("%s must be optional (Figure 2)", name)
		}
		if f.Parent() != te {
			t.Errorf("%s must be a child of Table Expression", name)
		}
	}
}

// TestVariabilityCounts: every diagram must actually contribute variability
// or structure; and the headline diagrams offer multiple products.
func TestVariabilityCounts(t *testing.T) {
	want := map[string]int64{"query_specification": 8, "table_expression": 16}
	for _, ds := range configure.New(MustModel()).Space() {
		if least, ok := want[ds.Diagram]; ok && ds.Products.Cmp(big.NewInt(least)) < 0 {
			t.Errorf("%s products = %s, want >= %d", ds.Diagram, ds.Products, least)
		}
	}
}
