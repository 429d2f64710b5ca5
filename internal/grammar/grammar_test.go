package grammar

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

const sampleGrammar = `
// Query Specification feature (paper Figure 1).
grammar query_specification ;

query_specification
    : SELECT set_quantifier? select_list table_expression
    ;

set_quantifier
    : DISTINCT
    | ALL
    ;

select_list
    : ASTERISK
    | select_sublist ( COMMA select_sublist )*
    ;

select_sublist
    : derived_column
    ;

derived_column
    : value_expression ( AS? column_name )?
    ;
`

func mustGrammar(t *testing.T, src string) *Grammar {
	t.Helper()
	g, err := ParseGrammar(src)
	if err != nil {
		t.Fatalf("ParseGrammar: %v", err)
	}
	return g
}

func TestParseGrammarBasics(t *testing.T) {
	g := mustGrammar(t, sampleGrammar)
	if g.Name != "query_specification" {
		t.Errorf("Name = %q, want query_specification", g.Name)
	}
	if g.Start != "query_specification" {
		t.Errorf("Start = %q, want query_specification", g.Start)
	}
	if g.Len() != 5 {
		t.Errorf("Len = %d, want 5", g.Len())
	}
	qs := g.Production("query_specification")
	if qs == nil {
		t.Fatal("missing query_specification production")
	}
	seq, ok := qs.Expr.(Seq)
	if !ok || len(seq.Items) != 4 {
		t.Fatalf("query_specification = %s, want 4-item sequence", qs.Expr)
	}
	if tok, ok := seq.Items[0].(Tok); !ok || tok.Name != "SELECT" {
		t.Errorf("first item = %v, want Tok SELECT", seq.Items[0])
	}
	if opt, ok := seq.Items[1].(Opt); !ok {
		t.Errorf("second item = %v, want Opt", seq.Items[1])
	} else if nt, ok := opt.Body.(NT); !ok || nt.Name != "set_quantifier" {
		t.Errorf("Opt body = %v, want NT set_quantifier", opt.Body)
	}
}

func TestParseGrammarChoicesAndRepetition(t *testing.T) {
	g := mustGrammar(t, sampleGrammar)
	sl := g.Production("select_list")
	alts := sl.Alternatives()
	if len(alts) != 2 {
		t.Fatalf("select_list alternatives = %d, want 2", len(alts))
	}
	seq, ok := alts[1].(Seq)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("second alternative = %s, want 2-item seq", alts[1])
	}
	star, ok := seq.Items[1].(Star)
	if !ok {
		t.Fatalf("want repetition, got %T", seq.Items[1])
	}
	inner, ok := star.Body.(Seq)
	if !ok || len(inner.Items) != 2 {
		t.Fatalf("repetition body = %s", star.Body)
	}
}

func TestParseGrammarBracketOptional(t *testing.T) {
	g := mustGrammar(t, `grammar x ; a : B [ C | D ] E ;`)
	seq := g.Production("a").Expr.(Seq)
	opt, ok := seq.Items[1].(Opt)
	if !ok {
		t.Fatalf("want Opt from brackets, got %T", seq.Items[1])
	}
	if _, ok := opt.Body.(Choice); !ok {
		t.Fatalf("want Choice inside Opt, got %T", opt.Body)
	}
}

func TestParseGrammarStartDirective(t *testing.T) {
	g := mustGrammar(t, `grammar x ; start b ; a : B ; b : C ;`)
	if g.Start != "b" {
		t.Errorf("Start = %q, want b", g.Start)
	}
}

func TestParseGrammarErrors(t *testing.T) {
	cases := []string{
		`grammar x ; a : B`,           // missing semicolon
		`grammar x ; a B ;`,           // missing colon
		`grammar x ; a : ( B ;`,       // unclosed group
		`grammar x ; a : B ; a : C ;`, // duplicate production
		`grammar x ;`,                 // no productions
	}
	for _, src := range cases {
		if _, err := ParseGrammar(src); err == nil {
			t.Errorf("ParseGrammar(%q): want error", src)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	g := mustGrammar(t, sampleGrammar)
	text := Format(g)
	g2, err := ParseGrammar(text)
	if err != nil {
		t.Fatalf("re-parse formatted grammar: %v\n%s", err, text)
	}
	if g2.Len() != g.Len() || g2.Start != g.Start {
		t.Fatalf("round trip changed shape: %d/%s vs %d/%s", g.Len(), g.Start, g2.Len(), g2.Start)
	}
	for _, p := range g.Productions() {
		q := g2.Production(p.Name)
		if q == nil {
			t.Fatalf("round trip lost production %s", p.Name)
		}
		if !Equal(p.Expr, q.Expr) {
			t.Errorf("production %s changed:\n  was  %s\n  now  %s", p.Name, p.Expr, q.Expr)
		}
	}
}

func TestReferencedSymbols(t *testing.T) {
	g := mustGrammar(t, sampleGrammar)
	toks := g.ReferencedTokens()
	want := []string{"ALL", "AS", "ASTERISK", "COMMA", "DISTINCT", "SELECT"}
	if strings.Join(toks, ",") != strings.Join(want, ",") {
		t.Errorf("ReferencedTokens = %v, want %v", toks, want)
	}
	undef := g.UndefinedNonterminals()
	want = []string{"column_name", "table_expression", "value_expression"}
	if strings.Join(undef, ",") != strings.Join(want, ",") {
		t.Errorf("UndefinedNonterminals = %v, want %v", undef, want)
	}
}

func TestEqual(t *testing.T) {
	a := SeqOf(Tok{"A"}, NT{"b"})
	b := SeqOf(Tok{"A"}, NT{"b"})
	c := SeqOf(Tok{"A"}, NT{"c"})
	if !Equal(a, b) {
		t.Error("identical sequences must be Equal")
	}
	if Equal(a, c) {
		t.Error("different sequences must not be Equal")
	}
	if Equal(Opt{Body: Tok{"A"}}, Star{Body: Tok{"A"}}) {
		t.Error("Opt and Star must differ")
	}
}

func TestContainsPaperExamples(t *testing.T) {
	B := NT{"b"}
	C := NT{"c"}
	comma := Tok{"COMMA"}

	cases := []struct {
		name string
		x, y Expr
		want bool
	}{
		{"BC contains B", SeqOf(B, C), B, true},
		{"B does not contain BC", B, SeqOf(B, C), false},
		{"B[C] contains B", SeqOf(B, Opt{Body: C}), B, true},
		{"[C]B contains B", SeqOf(Opt{Body: C}, B), B, true},
		{"complex list contains sublist", SeqOf(B, Star{Body: SeqOf(comma, B)}), B, true},
		{"sublist does not contain complex list", B, SeqOf(B, Star{Body: SeqOf(comma, B)}), false},
		{"B does not contain C", B, C, false},
		{"self-containment", SeqOf(B, C), SeqOf(B, C), true},
		{"order matters", SeqOf(C, B), SeqOf(B, C), false},
		{"structured optional atom", SeqOf(B, Opt{Body: C}, NT{"d"}), SeqOf(B, Opt{Body: C}), true},
	}
	for _, tc := range cases {
		if got := Contains(tc.x, tc.y); got != tc.want {
			t.Errorf("%s: Contains(%s, %s) = %v, want %v", tc.name, tc.x, tc.y, got, tc.want)
		}
	}
}

// TestQuickContainsProperties: containment is reflexive, consistent with
// Equal, and monotone under extension — the invariants the composition
// rules rest on.
func TestQuickContainsProperties(t *testing.T) {
	atoms := []Expr{Tok{Name: "A"}, Tok{Name: "B"}, NT{Name: "c"}, NT{Name: "d"}}
	buildSeq := func(seed uint32, n int) Expr {
		items := make([]Expr, 0, n)
		rng := seed
		for i := 0; i < n; i++ {
			rng = rng*1664525 + 1013904223
			it := atoms[int(rng>>16)%len(atoms)]
			if rng%5 == 0 {
				it = Opt{Body: it}
			}
			items = append(items, it)
		}
		return SeqOf(items...)
	}
	f := func(seed uint32) bool {
		x := buildSeq(seed, 1+int(seed%4))
		y := buildSeq(seed*7+1, 1+int(seed%3))
		// Reflexivity.
		if !Contains(x, x) {
			return false
		}
		// Equal implies mutual containment.
		if Equal(x, y) && (!Contains(x, y) || !Contains(y, x)) {
			return false
		}
		// Extending x with y on the right keeps x contained.
		extended := SeqOf(x, y)
		return Contains(extended, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeFirstFollow(t *testing.T) {
	g := mustGrammar(t, `
grammar t ;
s : a B ;
a : A | /* via optional */ ( C )? ;
`)
	an := Analyze(g)
	if !an.Nullable("a") {
		t.Error("a must be nullable")
	}
	if an.Nullable("s") {
		t.Error("s must not be nullable")
	}
	if got := an.First("s"); !slices.Equal(got, []string{"A", "B", "C"}) {
		t.Errorf("FIRST(s) = %v, want [A B C]", got)
	}
	if got := an.Follow("a"); !slices.Equal(got, []string{"B"}) {
		t.Errorf("FOLLOW(a) = %v, want [B]", got)
	}
	if got := an.Follow("s"); !slices.Equal(got, []string{EOFToken}) {
		t.Errorf("FOLLOW(s) = %v, want [%s]", got, EOFToken)
	}
}

func TestLL1Conflicts(t *testing.T) {
	g := mustGrammar(t, `
grammar t ;
s : A B | A C ;
u : X | Y ;
`)
	an := Analyze(g)
	conflicts := an.LL1Conflicts()
	if len(conflicts) != 1 || conflicts[0].Production != "s" {
		t.Fatalf("conflicts = %v, want one on s", conflicts)
	}
	if len(conflicts[0].Tokens) != 1 || conflicts[0].Tokens[0] != "A" {
		t.Errorf("conflict tokens = %v, want [A]", conflicts[0].Tokens)
	}
}

func TestLeftRecursionDetection(t *testing.T) {
	direct := mustGrammar(t, `grammar t ; e : e PLUS A | A ;`)
	if lr := LeftRecursive(direct); len(lr) != 1 || lr[0] != "e" {
		t.Errorf("direct left recursion: got %v", lr)
	}
	indirect := mustGrammar(t, `grammar t ; a : b X ; b : c Y | Z ; c : a W ;`)
	lr := LeftRecursive(indirect)
	if len(lr) != 3 {
		t.Errorf("indirect left recursion: got %v, want a,b,c", lr)
	}
	clean := mustGrammar(t, `grammar t ; e : A ( PLUS A )* ;`)
	if lr := LeftRecursive(clean); len(lr) != 0 {
		t.Errorf("repetition form flagged as left-recursive: %v", lr)
	}
	// Nullable leading item exposes left recursion through it.
	hidden := mustGrammar(t, `grammar t ; a : ( X )? a Y ;`)
	if lr := LeftRecursive(hidden); len(lr) != 1 || lr[0] != "a" {
		t.Errorf("hidden left recursion: got %v", lr)
	}
}

func TestValidate(t *testing.T) {
	g := mustGrammar(t, `grammar t ; s : a B ; a : A ;`)
	ts := NewTokenSet("t")
	for _, d := range []TokenDef{
		{Name: "A", Kind: Keyword, Text: "A"},
		{Name: "B", Kind: Keyword, Text: "B"},
	} {
		if err := ts.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Validate(g, ts); err != nil {
		t.Errorf("valid grammar rejected: %v", err)
	}

	bad := mustGrammar(t, `grammar t ; s : missing B ;`)
	_, err := Validate(bad, ts)
	if err == nil {
		t.Fatal("undefined nonterminal not reported")
	}
	ve, ok := err.(*ValidationError)
	if !ok || len(ve.Undefined) != 1 || ve.Undefined[0] != "missing" {
		t.Errorf("ValidationError = %v", err)
	}

	missTok := mustGrammar(t, `grammar t ; s : C ;`)
	if _, err := Validate(missTok, ts); err == nil {
		t.Error("missing token not reported")
	}
}

func TestUnreachable(t *testing.T) {
	g := mustGrammar(t, `grammar t ; s : a ; a : A ; orphan : B ;`)
	u := Unreachable(g)
	if len(u) != 1 || u[0] != "orphan" {
		t.Errorf("Unreachable = %v, want [orphan]", u)
	}
}

func TestSeqOfFlattening(t *testing.T) {
	e := SeqOf(SeqOf(Tok{"A"}, Tok{"B"}), Tok{"C"})
	seq, ok := e.(Seq)
	if !ok || len(seq.Items) != 3 {
		t.Fatalf("SeqOf did not flatten: %s", e)
	}
	single := SeqOf(Tok{"A"})
	if _, ok := single.(Tok); !ok {
		t.Errorf("single-item SeqOf should unwrap, got %T", single)
	}
}

func TestChoiceOfFlattening(t *testing.T) {
	e := ChoiceOf(ChoiceOf(Tok{"A"}, Tok{"B"}), Tok{"C"})
	c, ok := e.(Choice)
	if !ok || len(c.Alts) != 3 {
		t.Fatalf("ChoiceOf did not flatten: %s", e)
	}
}

func TestComputeStats(t *testing.T) {
	g := mustGrammar(t, sampleGrammar)
	s := ComputeStats(g)
	if s.Productions != 5 {
		t.Errorf("Productions = %d, want 5", s.Productions)
	}
	if s.Tokens != 6 {
		t.Errorf("Tokens = %d, want 6", s.Tokens)
	}
	if s.Alternatives < 7 {
		t.Errorf("Alternatives = %d, want >= 7", s.Alternatives)
	}
}

func TestGrammarMutators(t *testing.T) {
	g := mustGrammar(t, `grammar t ; s : A ; b : B ;`)
	if err := g.Replace("s", Tok{"C"}); err != nil {
		t.Fatal(err)
	}
	if !Equal(g.Production("s").Expr, Tok{"C"}) {
		t.Error("Replace did not take effect")
	}
	if err := g.Replace("nope", Tok{"C"}); err == nil {
		t.Error("Replace of unknown production must fail")
	}
	if err := g.Remove("s"); err != nil {
		t.Fatal(err)
	}
	if g.Start != "b" {
		t.Errorf("Start after removing old start = %q, want b", g.Start)
	}
	if err := g.Remove("s"); err == nil {
		t.Error("double Remove must fail")
	}
}

func TestClone(t *testing.T) {
	g := mustGrammar(t, `grammar t ; s : A ;`)
	c := g.Clone()
	if err := c.Replace("s", Tok{"B"}); err != nil {
		t.Fatal(err)
	}
	if Equal(g.Production("s").Expr, Tok{"B"}) {
		t.Error("Clone shares production state with original")
	}
}
