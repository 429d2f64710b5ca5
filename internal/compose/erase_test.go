package compose

import (
	"slices"
	"strings"
	"testing"

	"sqlspl/internal/grammar"
)

func TestEraseOptionalSlot(t *testing.T) {
	g := g(t, `
grammar t ;
table_expression : from_clause ( where_clause )? ( group_by_clause )? ;
from_clause : FROM IDENTIFIER ;
where_clause : WHERE IDENTIFIER ;
`)
	erased := EraseUndefined(g)
	if len(erased) != 1 || !strings.Contains(erased[0], "group_by_clause") {
		t.Fatalf("erased = %v", erased)
	}
	want := grammar.SeqOf(
		grammar.NT{Name: "from_clause"},
		grammar.Opt{Body: grammar.NT{Name: "where_clause"}},
	)
	if !grammar.Equal(g.Production("table_expression").Expr, want) {
		t.Errorf("table_expression = %s", g.Production("table_expression").Expr)
	}
	if _, err := grammar.Validate(g, nil); err != nil {
		t.Errorf("erased grammar invalid: %v", err)
	}
}

func TestEraseStarSlot(t *testing.T) {
	g := g(t, `
grammar t ;
s : A ( tail )* ;
`)
	erased := EraseUndefined(g)
	if len(erased) != 1 {
		t.Fatalf("erased = %v", erased)
	}
	if !grammar.Equal(g.Production("s").Expr, grammar.Tok{Name: "A"}) {
		t.Errorf("s = %s", g.Production("s").Expr)
	}
}

func TestEraseKeepsMandatoryUndefined(t *testing.T) {
	g := g(t, `
grammar t ;
s : A missing B ;
`)
	erased := EraseUndefined(g)
	if len(erased) != 0 {
		t.Fatalf("mandatory reference erased: %v", erased)
	}
	if _, err := grammar.Validate(g, nil); err == nil {
		t.Error("mandatory undefined reference must remain a validation error")
	}
}

func TestEraseChoiceAlternative(t *testing.T) {
	g := g(t, `
grammar t ;
s : A | missing B | C ;
`)
	erased := EraseUndefined(g)
	if len(erased) != 1 {
		t.Fatalf("erased = %v", erased)
	}
	alts := g.Production("s").Alternatives()
	if len(alts) != 2 {
		t.Errorf("s = %s, want 2 alternatives", g.Production("s").Expr)
	}
}

func TestEraseChoiceAllDeadIsMandatoryError(t *testing.T) {
	g := g(t, `
grammar t ;
s : missing1 | missing2 ;
ok : A ;
`)
	_ = EraseUndefined(g)
	if _, err := grammar.Validate(g, nil); err == nil {
		t.Error("fully dead choice must remain invalid")
	}
}

func TestEraseNestedOptionalInsideDefinedSlot(t *testing.T) {
	g := g(t, `
grammar t ;
s : a ;
a : B ( c ( d )? )? ;
c : C ;
`)
	_ = EraseUndefined(g)
	want := grammar.SeqOf(
		grammar.Tok{Name: "B"},
		grammar.Opt{Body: grammar.NT{Name: "c"}},
	)
	if !grammar.Equal(g.Production("a").Expr, want) {
		t.Errorf("a = %s", g.Production("a").Expr)
	}
}

func TestEraseOptionalChoiceAlternativeKeepsEpsilon(t *testing.T) {
	g := g(t, `
grammar t ;
s : ( ( missing )? | A ) B ;
`)
	_ = EraseUndefined(g)
	if _, err := grammar.Validate(g, nil); err != nil {
		t.Fatalf("erased grammar invalid: %v", err)
	}
	// "B" alone must still be derivable: the erased optional alternative
	// degenerates to epsilon.
	if first := grammar.Analyze(g).First("s"); !slices.Contains(first, "B") {
		t.Errorf("FIRST(s) = %v, must contain B", first)
	}
}

func TestEraseWholeProductionBecomesEpsilon(t *testing.T) {
	g := g(t, `
grammar t ;
s : ( missing )? ;
`)
	_ = EraseUndefined(g)
	seq, ok := g.Production("s").Expr.(grammar.Seq)
	if !ok || len(seq.Items) != 0 {
		t.Errorf("s = %s, want epsilon", g.Production("s").Expr)
	}
}

func TestEraseIdempotent(t *testing.T) {
	g1 := g(t, `
grammar t ;
s : A ( miss )? ( also_miss )* B ;
`)
	first := EraseUndefined(g1)
	second := EraseUndefined(g1)
	if len(first) != 2 || len(second) != 0 {
		t.Errorf("erase rounds: %v then %v", first, second)
	}
}
