package feature

import (
	"strings"
	"testing"
	"testing/quick"
)

// figure1Model builds the paper's Figure 1 + Figure 2 shapes:
// Query Specification with optional alternative-grouped Set Quantifier
// (ALL | DISTINCT), mandatory Select List (Asterisk | Select Sublist[1..*]),
// mandatory Table Expression with mandatory From and optional Where,
// Group By, Having, Window.
func figure1Model(t *testing.T) *Model {
	t.Helper()
	qs := NewDiagram("query_specification", "SELECT statement",
		New("query_specification",
			New("set_quantifier",
				New("all"),
				New("distinct"),
			).MarkOptional().GroupAlt(),
			New("select_list",
				New("asterisk"),
				New("select_sublist",
					New("derived_column",
						New("as_keyword").MarkOptional(),
					),
				).Cardinality(1, -1),
			).GroupAlt(),
		),
	)
	te := NewDiagram("table_expression", "FROM/WHERE/GROUP BY/HAVING/WINDOW",
		New("table_expression",
			New("from"),
			New("where").MarkOptional(),
			New("group_by").MarkOptional(),
			New("having").MarkOptional(),
			New("window").MarkOptional(),
		),
	)
	m, err := NewModel("figure1", []*Diagram{qs, te}, []Constraint{
		{Kind: Requires, A: "query_specification", B: "table_expression"},
		{Kind: Requires, A: "having", B: "group_by"},
		{Kind: Excludes, A: "asterisk", B: "select_sublist"},
	})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func minimalConfig() *Config {
	return NewConfig(
		"query_specification", "select_list", "select_sublist", "derived_column",
		"table_expression", "from",
	)
}

func TestModelConstruction(t *testing.T) {
	m := figure1Model(t)
	if m.FeatureCount() != 15 {
		t.Errorf("FeatureCount = %d, want 15", m.FeatureCount())
	}
	f := m.Feature("where")
	if f == nil || !f.Optional {
		t.Fatalf("where = %+v", f)
	}
	if f.Parent() == nil || f.Parent().Name != "table_expression" {
		t.Errorf("where parent = %v", f.Parent())
	}
	if d := m.DiagramOf("distinct"); d == nil || d.Name != "query_specification" {
		t.Errorf("DiagramOf(distinct) = %v", d)
	}
	sl := m.Feature("select_sublist")
	if got := sl.CardinalityString(); got != "[1..*]" {
		t.Errorf("cardinality = %q", got)
	}
}

func TestModelRejectsDuplicates(t *testing.T) {
	d1 := NewDiagram("a", "", New("x"))
	d2 := NewDiagram("b", "", New("x"))
	if _, err := NewModel("m", []*Diagram{d1, d2}, nil); err == nil {
		t.Error("duplicate feature names accepted")
	}
}

func TestModelRejectsUnknownConstraint(t *testing.T) {
	d := NewDiagram("a", "", New("x"))
	if _, err := NewModel("m", []*Diagram{d}, []Constraint{{Kind: Requires, A: "x", B: "ghost"}}); err == nil {
		t.Error("constraint on unknown feature accepted")
	}
}

func TestValidateMinimalInstance(t *testing.T) {
	m := figure1Model(t)
	if err := m.Validate(minimalConfig()); err != nil {
		t.Errorf("paper's minimal instance invalid: %v", err)
	}
}

func TestValidateParentRule(t *testing.T) {
	m := figure1Model(t)
	c := minimalConfig()
	c.Select("distinct") // without set_quantifier parent
	err := m.Validate(c)
	if err == nil || !strings.Contains(err.Error(), "parent") {
		t.Errorf("parent violation not reported: %v", err)
	}
}

func TestValidateMandatoryRule(t *testing.T) {
	m := figure1Model(t)
	c := minimalConfig()
	c.Deselect("from") // mandatory under table_expression
	err := m.Validate(c)
	if err == nil || !strings.Contains(err.Error(), "mandatory") {
		t.Errorf("mandatory violation not reported: %v", err)
	}
}

func TestValidateAlternativeRule(t *testing.T) {
	m := figure1Model(t)

	// Zero children of an alternative group.
	c := minimalConfig()
	c.Select("set_quantifier")
	if err := m.Validate(c); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("empty alternative not reported: %v", err)
	}

	// Two children of an alternative group.
	c = minimalConfig()
	c.Select("set_quantifier", "all", "distinct")
	if err := m.Validate(c); err == nil || !strings.Contains(err.Error(), "exactly one") {
		t.Errorf("double alternative not reported: %v", err)
	}

	// Exactly one is fine.
	c = minimalConfig()
	c.Select("set_quantifier", "distinct")
	if err := m.Validate(c); err != nil {
		t.Errorf("valid alternative rejected: %v", err)
	}
}

func TestValidateOrRule(t *testing.T) {
	d := NewDiagram("d", "", New("root", New("a"), New("b")).GroupOr())
	m, err := NewModel("m", []*Diagram{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(NewConfig("root")); err == nil {
		t.Error("empty or-group accepted")
	}
	if err := m.Validate(NewConfig("root", "a")); err != nil {
		t.Errorf("one-of or-group rejected: %v", err)
	}
	if err := m.Validate(NewConfig("root", "a", "b")); err != nil {
		t.Errorf("both-of or-group rejected: %v", err)
	}
}

func TestValidateConstraints(t *testing.T) {
	m := figure1Model(t)

	// having requires group_by
	c := minimalConfig()
	c.Select("having")
	if err := m.Validate(c); err == nil || !strings.Contains(err.Error(), "requires group_by") {
		t.Errorf("requires violation not reported: %v", err)
	}

	// asterisk excludes select_sublist
	c = NewConfig("query_specification", "select_list", "asterisk", "select_sublist",
		"derived_column", "table_expression", "from")
	err := m.Validate(c)
	if err == nil || !strings.Contains(err.Error(), "excludes") {
		t.Errorf("excludes violation not reported: %v", err)
	}
}

func TestValidateUnknownFeature(t *testing.T) {
	m := figure1Model(t)
	c := minimalConfig()
	c.Select("antigravity")
	if err := m.Validate(c); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown feature not reported: %v", err)
	}
}

func TestClose(t *testing.T) {
	m := figure1Model(t)
	// Selecting only the leaf 'where' should pull in its ancestors, the
	// mandatory 'from', the required table_expression, etc.
	c := m.Close(NewConfig("where", "query_specification", "select_list", "asterisk"))
	for _, want := range []string{"table_expression", "from", "where"} {
		if !c.Has(want) {
			t.Errorf("Close missing %s: %v", want, c.Names())
		}
	}
	// Close does not pick alternatives: select_list's group choice remains
	// the user's, but here asterisk was given, so validation passes.
	if err := m.Validate(c); err != nil {
		t.Errorf("closed config invalid: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	m := figure1Model(t)
	c1 := m.Close(NewConfig("having", "query_specification", "select_list", "asterisk"))
	c2 := m.Close(c1)
	if c1.String() != c2.String() {
		t.Errorf("Close not idempotent: %v vs %v", c1, c2)
	}
}

func TestSequencePreOrder(t *testing.T) {
	m := figure1Model(t)
	c := minimalConfig()
	c.Select("set_quantifier", "distinct", "where")
	order, err := m.Sequence(c)
	if err != nil {
		t.Fatal(err)
	}
	idx := map[string]int{}
	for i, n := range order {
		idx[n] = i
	}
	// Parents before children: base specifications before extensions.
	pairs := [][2]string{
		{"query_specification", "set_quantifier"},
		{"set_quantifier", "distinct"},
		{"select_list", "select_sublist"},
		{"table_expression", "where"},
		{"table_expression", "from"},
	}
	for _, p := range pairs {
		if idx[p[0]] >= idx[p[1]] {
			t.Errorf("%s must precede %s in %v", p[0], p[1], order)
		}
	}
	if len(order) != c.Len() {
		t.Errorf("sequence covers %d of %d features", len(order), c.Len())
	}
}

func TestSequenceRequiresEdges(t *testing.T) {
	// A requires B where B is later in diagram order: topo sort must move
	// B ahead of A.
	d := NewDiagram("d", "", New("root", New("a"), New("b")))
	m, err := NewModel("m", []*Diagram{d}, []Constraint{{Kind: Requires, A: "a", B: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	order, err := m.Sequence(NewConfig("root", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if !(order[0] == "root" && order[1] == "b" && order[2] == "a") {
		t.Errorf("order = %v, want [root b a]", order)
	}
}

func TestSequenceCycle(t *testing.T) {
	d := NewDiagram("d", "", New("root", New("a"), New("b")))
	m, err := NewModel("m", []*Diagram{d}, []Constraint{
		{Kind: Requires, A: "a", B: "b"},
		{Kind: Requires, A: "b", B: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sequence(NewConfig("root", "a", "b")); err == nil {
		t.Error("requires cycle not reported")
	}
}

func TestUnitSequence(t *testing.T) {
	d := NewDiagram("d", "",
		New("root",
			New("a").Provide("unit1", "shared"),
			New("b").Provide("unit2", "shared"),
		).Provide("base"),
	)
	m, err := NewModel("m", []*Diagram{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	order, err := m.Sequence(NewConfig("root", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	units := m.UnitSequence(order)
	want := "base unit1 shared unit2"
	if got := strings.Join(units, " "); got != want {
		t.Errorf("units = %q, want %q", got, want)
	}
}

func TestConfigBasics(t *testing.T) {
	c := NewConfig("b", "a")
	if c.Len() != 2 || !c.Has("a") || c.Has("z") {
		t.Errorf("config state wrong: %v", c)
	}
	if got := c.String(); got != "{a, b}" {
		t.Errorf("String = %q", got)
	}
	c.Deselect("a")
	if c.Has("a") || c.Len() != 1 {
		t.Error("Deselect failed")
	}
	clone := c.Clone()
	clone.Select("x")
	if c.Has("x") {
		t.Error("Clone shares state")
	}
}

// TestQuickCloseMakesParentsSelected: for random selections over the model,
// Close always yields a configuration with no parent violations.
func TestQuickCloseMakesParentsSelected(t *testing.T) {
	m := figure1Model(t)
	names := m.FeatureNames()
	f := func(mask uint16) bool {
		c := NewConfig()
		for i, n := range names {
			if mask&(1<<(i%16)) != 0 && i < 16 {
				c.Select(n)
			}
		}
		closed := m.Close(c)
		for _, n := range closed.Names() {
			f := m.Feature(n)
			if f == nil {
				continue
			}
			if f.Parent() != nil && !closed.Has(f.Parent().Name) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickValidatePassesAfterFullClose: a valid config stays valid after
// Close (Close never breaks validity).
func TestQuickValidatePassesAfterFullClose(t *testing.T) {
	m := figure1Model(t)
	base := minimalConfig()
	optionals := []string{"where", "group_by", "window"}
	f := func(mask uint8) bool {
		c := base.Clone()
		for i, n := range optionals {
			if mask&(1<<i) != 0 {
				c.Select(n)
			}
		}
		if m.Validate(c) != nil {
			return true // not valid before close; out of scope
		}
		return m.Validate(m.Close(c)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupKindAndConstraintStrings(t *testing.T) {
	if And.String() != "and" || Or.String() != "or" || Alternative.String() != "alternative" {
		t.Error("GroupKind strings wrong")
	}
	c := Constraint{Kind: Requires, A: "a", B: "b"}
	if c.String() != "a requires b" {
		t.Errorf("Constraint.String = %q", c.String())
	}
}
