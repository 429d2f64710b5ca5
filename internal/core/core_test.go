package core

import (
	"errors"
	"strings"
	"testing"

	"sqlspl/internal/feature"
	"sqlspl/internal/grammar"
	"sqlspl/internal/sql2003"
)

func minimalSelection() *feature.Config {
	return feature.NewConfig(
		"query_specification", "select_list", "select_columns", "derived_column",
		"table_expression", "from", "where",
		"set_quantifier", "quantifier_all", "quantifier_distinct",
		"search_condition", "predicate", "comparison", "op_equals",
		"value_expression", "identifier_chain", "literal", "numeric_literal", "string_literal",
	)
}

func buildMinimal(t *testing.T, opts Options) *Product {
	t.Helper()
	m := sql2003.MustModel()
	p, err := Build(m, sql2003.Registry{}, minimalSelection(), opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// TestWorkedExample reproduces the paper's Section 3.2 result (experiment
// E4): "composing the sub-grammars for the Query Specification feature …,
// the optional Set Quantifier feature … and the optional Where feature of
// the Table Expression feature … gives a grammar which can essentially
// parse a SELECT statement with a single column from a single table with
// optional set quantifier (DISTINCT or ALL) and optional where clause."
func TestWorkedExample(t *testing.T) {
	p := buildMinimal(t, Options{Product: "worked-example"})

	if p.Grammar.Start != "query_specification" {
		t.Errorf("start symbol = %q, want query_specification", p.Grammar.Start)
	}

	accept := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT a FROM t",
		"SELECT ALL a FROM t",
		"SELECT a FROM t WHERE b = 1",
		"SELECT DISTINCT a FROM t WHERE b = 'x'",
		"SELECT a FROM sensors WHERE temp = 42",
	}
	reject := []string{
		"SELECT a, b FROM t",          // multiple columns not selected
		"SELECT * FROM t",             // asterisk not selected
		"SELECT a FROM t, u",          // multiple tables not selected
		"SELECT a AS x FROM t",        // column alias not selected
		"SELECT a",                    // FROM is mandatory
		"SELECT a FROM t GROUP BY a",  // GROUP BY not selected
		"SELECT a FROM t ORDER BY a",  // ORDER BY not selected
		"SELECT a FROM t WHERE b < 1", // only op_equals selected
	}
	for _, q := range accept {
		if !p.Accepts(q) {
			_, err := p.Parse(q)
			t.Errorf("in-dialect query rejected: %q: %v", q, err)
		}
	}
	for _, q := range reject {
		if p.Accepts(q) {
			t.Errorf("out-of-dialect query accepted: %q", q)
		}
	}
}

func TestWorkedExampleKeywords(t *testing.T) {
	// Only the selected features' keywords are reserved: GROUP, ORDER, JOIN
	// etc. remain ordinary identifiers in the minimal product.
	p := buildMinimal(t, Options{})
	kw := strings.Join(p.Tokens.Keywords(), " ")
	for _, want := range []string{"SELECT", "FROM", "WHERE", "DISTINCT", "ALL"} {
		if !strings.Contains(kw, want) {
			t.Errorf("keywords missing %s: %s", want, kw)
		}
	}
	for _, no := range []string{"GROUP", "ORDER", "JOIN", "INSERT", "CREATE"} {
		if strings.Contains(kw, no) {
			t.Errorf("keyword %s must not be reserved in the minimal product", no)
		}
	}
	if !p.Accepts("SELECT insert FROM t") {
		t.Error("unreserved word INSERT unusable as identifier")
	}
}

func TestBuildValidatesConfiguration(t *testing.T) {
	m := sql2003.MustModel()
	// comparison or-group left empty after closure: invalid.
	cfg := minimalSelection()
	cfg.Deselect("op_equals")
	if _, err := Build(m, sql2003.Registry{}, cfg, Options{}); err == nil {
		t.Error("empty comparison group accepted")
	}
	// Unknown feature: invalid.
	cfg = minimalSelection()
	cfg.Select("no_such_feature")
	if _, err := Build(m, sql2003.Registry{}, cfg, Options{}); err == nil {
		t.Error("unknown feature accepted")
	}
}

func TestAutoCloseAddsDependencies(t *testing.T) {
	p := buildMinimal(t, Options{})
	// The where feature requires search_condition -> predicate -> ... all
	// present in the explicit selection; closure adds mandatory info nodes
	// like table_reference.
	for _, want := range []string{"table_reference", "table_primary", "single_statement"} {
		if strings.HasPrefix(want, "single") {
			continue // not part of this selection's diagrams
		}
		if !p.Config.Has(want) {
			t.Errorf("closure missing %s", want)
		}
	}
}

func TestNoAutoCloseRejectsIncomplete(t *testing.T) {
	m := sql2003.MustModel()
	cfg := feature.NewConfig("where") // parentless fragment
	if _, err := Build(m, sql2003.Registry{}, cfg, Options{NoAutoClose: true}); err == nil {
		t.Error("incomplete configuration accepted with NoAutoClose")
	}
}

func TestErasureRecorded(t *testing.T) {
	p := buildMinimal(t, Options{})
	// group_by/having/window slots of table_expression must be erased.
	joined := strings.Join(p.Erased, "\n")
	for _, want := range []string{"group_by_clause", "having_clause", "window_clause"} {
		if !strings.Contains(joined, want) {
			t.Errorf("erasure log missing %s:\n%s", want, joined)
		}
	}
}

func TestNoErasureFailsOnPartialSelection(t *testing.T) {
	m := sql2003.MustModel()
	_, err := Build(m, sql2003.Registry{}, minimalSelection(), Options{NoErasure: true})
	if err == nil {
		t.Fatal("partial selection must fail validation without erasure")
	}
	if want := "composed grammar: grammar product: "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not start with %q", err, want)
	}
	var ve *grammar.ValidationError
	if !errors.As(err, &ve) {
		t.Errorf("error %v does not unwrap to *grammar.ValidationError", err)
	}
}

func TestStartOverride(t *testing.T) {
	p := buildMinimal(t, Options{Start: "search_condition"})
	if !p.Parser.Accepts("a = 1") {
		t.Error("start override did not take effect")
	}
	m := sql2003.MustModel()
	if _, err := Build(m, sql2003.Registry{}, minimalSelection(), Options{Start: "nonexistent"}); err == nil {
		t.Error("bogus start symbol accepted")
	}
}

func TestSequenceParentsFirst(t *testing.T) {
	p := buildMinimal(t, Options{})
	idx := map[string]int{}
	for i, f := range p.Sequence {
		idx[f] = i
	}
	if idx["query_specification"] > idx["set_quantifier"] {
		t.Error("base feature must compose before its extension")
	}
	if idx["table_expression"] > idx["where"] {
		t.Error("table_expression must compose before where")
	}
}

func TestStats(t *testing.T) {
	p := buildMinimal(t, Options{})
	s := p.Stats()
	if s.Productions == 0 || s.Tokens == 0 || s.Keywords == 0 {
		t.Errorf("stats empty: %+v", s)
	}
	if s.Features != p.Config.Len() {
		t.Errorf("feature count mismatch: %d vs %d", s.Features, p.Config.Len())
	}
}

func TestUnreachablePruning(t *testing.T) {
	pruned := buildMinimal(t, Options{})
	kept := buildMinimal(t, Options{KeepUnreachable: true})
	if pruned.Grammar.Len() >= kept.Grammar.Len() {
		t.Errorf("pruning did not shrink the grammar: %d vs %d",
			pruned.Grammar.Len(), kept.Grammar.Len())
	}
	// column_name arrives with the identifier unit but nothing in the
	// minimal product reaches it (no aliases, no column lists).
	if pruned.Grammar.Production("column_name") != nil {
		t.Error("unreachable column_name survived pruning")
	}
	if kept.Grammar.Production("column_name") == nil {
		t.Error("KeepUnreachable dropped column_name")
	}
	// Pruning must not change the language.
	for _, q := range []string{"SELECT a FROM t", "SELECT a FROM t WHERE b = 1", "SELECT a, b FROM t"} {
		if pruned.Accepts(q) != kept.Accepts(q) {
			t.Errorf("pruning changed the language on %q", q)
		}
	}
}

func TestEmptySelection(t *testing.T) {
	m := sql2003.MustModel()
	if _, err := Build(m, sql2003.Registry{}, feature.NewConfig(), Options{}); err == nil {
		t.Error("empty selection accepted")
	}
}

func TestDiagnoseRecoversPerStatement(t *testing.T) {
	p := buildMinimal(t, Options{Product: "diagnose"})
	if diags := p.Diagnose("SELECT a FROM t"); len(diags) != 0 {
		t.Errorf("Diagnose(valid) = %v, want none", diags)
	}
	// minimal has no SEMICOLON token: the ';' is a scan diagnostic, and
	// recovery still reaches the broken second statement.
	diags := p.Diagnose("SELECT a FROM t ; SELECT FROM u")
	if len(diags) != 2 {
		t.Fatalf("Diagnose = %v, want 2 diagnostics", diags)
	}
}

func TestEmptyInputIsCleanScript(t *testing.T) {
	p := buildMinimal(t, Options{Product: "empty-input"})
	for _, src := range []string{"", "  \n", "-- nothing here\n"} {
		tree, err := p.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if len(tree.Children) != 0 {
			t.Errorf("Parse(%q) tree has %d children, want 0", src, len(tree.Children))
		}
		if err := p.Check(src); err != nil {
			t.Errorf("Check(%q): %v", src, err)
		}
		if diags := p.Diagnose(src); len(diags) != 0 {
			t.Errorf("Diagnose(%q) = %v, want none", src, diags)
		}
	}
}
