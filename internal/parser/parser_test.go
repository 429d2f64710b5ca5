package parser

import (
	"strings"
	"testing"
	"testing/quick"

	"sqlspl/internal/grammar"
	"sqlspl/internal/lexer"
)

// miniSelect is the paper's Section 3.2 worked example, already composed:
// SELECT with optional set quantifier, single-column select list, FROM with
// a single table reference, optional WHERE.
const miniSelectGrammar = `
grammar mini_select ;

query_specification
    : SELECT ( set_quantifier )? select_list table_expression
    ;
set_quantifier : DISTINCT | ALL ;
select_list : ASTERISK | IDENTIFIER ;
table_expression : from_clause ( where_clause )? ;
from_clause : FROM IDENTIFIER ;
where_clause : WHERE condition ;
condition : IDENTIFIER EQ literal ;
literal : INTEGER | STRING ;
`

const miniSelectTokens = `
tokens mini_select ;
SELECT   : 'SELECT' ;
DISTINCT : 'DISTINCT' ;
ALL      : 'ALL' ;
FROM     : 'FROM' ;
WHERE    : 'WHERE' ;
ASTERISK : '*' ;
EQ       : '=' ;
IDENTIFIER : <identifier> ;
INTEGER  : <integer> ;
STRING   : <string> ;
`

func buildParser(t *testing.T, gsrc, tsrc string, opts Options) *Parser {
	t.Helper()
	g, err := grammar.ParseGrammar(gsrc)
	if err != nil {
		t.Fatalf("ParseGrammar: %v", err)
	}
	ts, err := grammar.ParseTokens(tsrc)
	if err != nil {
		t.Fatalf("ParseTokens: %v", err)
	}
	p, err := New(g, ts, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func miniParser(t *testing.T, opts Options) *Parser {
	return buildParser(t, miniSelectGrammar, miniSelectTokens, opts)
}

func TestParseMinimalSelect(t *testing.T) {
	p := miniParser(t, Options{})
	tree, err := p.Parse("SELECT name FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if tree.Label != "query_specification" {
		t.Errorf("root = %q", tree.Label)
	}
	if tree.Find("from_clause") == nil {
		t.Error("missing from_clause node")
	}
	if tree.Find("where_clause") != nil {
		t.Error("unexpected where_clause node")
	}
}

func TestParseWorkedExampleMatrix(t *testing.T) {
	// The paper: the composed grammar "can essentially parse a SELECT
	// statement with a single column from a single table with optional set
	// quantifier (DISTINCT or ALL) and optional where clause."
	p := miniParser(t, Options{})
	accept := []string{
		"SELECT a FROM t",
		"SELECT * FROM t",
		"SELECT DISTINCT a FROM t",
		"SELECT ALL a FROM t",
		"SELECT a FROM t WHERE b = 1",
		"SELECT DISTINCT * FROM t WHERE b = 'x'",
		"select distinct a from t where b = 42",
	}
	reject := []string{
		"SELECT a, b FROM t",         // multi-column not composed
		"SELECT a FROM t, u",         // multi-table not composed
		"SELECT a",                   // FROM is mandatory
		"SELECT FROM t",              // empty select list
		"SELECT a FROM t GROUP BY a", // GROUP BY feature not composed
		"SELECT a FROM t WHERE",      // incomplete condition
		"SELECT DISTINCT ALL a FROM t",
		"",
	}
	for _, q := range accept {
		if !p.Accepts(q) {
			_, err := p.Parse(q)
			t.Errorf("rejected in-dialect query %q: %v", q, err)
		}
	}
	for _, q := range reject {
		if p.Accepts(q) {
			t.Errorf("accepted out-of-dialect query %q", q)
		}
	}
}

func TestParseTreeShape(t *testing.T) {
	p := miniParser(t, Options{})
	tree, err := p.Parse("SELECT DISTINCT a FROM t WHERE b = 1")
	if err != nil {
		t.Fatal(err)
	}
	sq := tree.Find("set_quantifier")
	if sq == nil || len(sq.Children) != 1 || sq.Children[0].Token.Name != "DISTINCT" {
		t.Errorf("set_quantifier subtree wrong: %v", sq)
	}
	wc := tree.Find("where_clause")
	if wc == nil {
		t.Fatal("missing where_clause")
	}
	cond := wc.Find("condition")
	if cond == nil {
		t.Fatal("missing condition")
	}
	if got := cond.Text(); got != "b = 1" {
		t.Errorf("condition text = %q", got)
	}
	leaves := tree.Leaves()
	if len(leaves) != 9 {
		t.Errorf("leaf count = %d, want 9", len(leaves))
	}
}

func TestSyntaxErrorPositionsAndExpectations(t *testing.T) {
	p := miniParser(t, Options{})
	_, err := p.Parse("SELECT a FRM t")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	// FRM scans as an identifier; failure is at the token after `a`... the
	// engine reports the farthest failure, which is at FRM expecting FROM.
	if se.Line != 1 {
		t.Errorf("error line = %d", se.Line)
	}
	if !contains(se.Expected, "FROM") {
		t.Errorf("expected set %v missing FROM", se.Expected)
	}
	if !strings.Contains(se.Error(), "syntax error") {
		t.Errorf("message = %q", se.Error())
	}
}

func TestErrorAtEndOfInput(t *testing.T) {
	p := miniParser(t, Options{})
	_, err := p.Parse("SELECT a FROM")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error = %v", err)
	}
	if se.Found != "end of input" {
		t.Errorf("Found = %q", se.Found)
	}
	if !contains(se.Expected, "IDENTIFIER") {
		t.Errorf("Expected = %v", se.Expected)
	}
}

func TestTrailingInputRejected(t *testing.T) {
	p := miniParser(t, Options{})
	if p.Accepts("SELECT a FROM t t t") {
		t.Error("trailing tokens accepted")
	}
}

func TestBacktrackingSharedPrefixChoices(t *testing.T) {
	// Composition's append rule creates alternatives with shared prefixes
	// (A: B | B C); LL(1) prediction cannot separate them, backtracking must.
	p := buildParser(t, `
grammar t ;
s : a EOFMARK ;
a : B | B C ;
`, `
tokens t ;
B : 'B' ; C : 'C' ; EOFMARK : '!' ;
`, Options{})
	for _, q := range []string{"B !", "B C !"} {
		if !p.Accepts(q) {
			t.Errorf("rejected %q", q)
		}
	}
}

func TestRepetition(t *testing.T) {
	p := buildParser(t, `
grammar t ;
list : IDENTIFIER ( COMMA IDENTIFIER )* ;
`, `
tokens t ; COMMA : ',' ; IDENTIFIER : <identifier> ;
`, Options{})
	for _, q := range []string{"a", "a, b", "a, b, c, d, e"} {
		if !p.Accepts(q) {
			t.Errorf("rejected %q", q)
		}
	}
	for _, q := range []string{"", ",", "a,", "a b"} {
		if p.Accepts(q) {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestPlusRepetition(t *testing.T) {
	p := buildParser(t, `grammar t ; s : ( A )+ ;`, `tokens t ; A : 'A' ;`, Options{})
	if p.Accepts("") {
		t.Error("Plus accepted empty input")
	}
	for _, q := range []string{"A", "A A A"} {
		if !p.Accepts(q) {
			t.Errorf("rejected %q", q)
		}
	}
}

func TestNullableProduction(t *testing.T) {
	p := buildParser(t, `
grammar t ;
s : opt B ;
opt : ( A )? ;
`, `tokens t ; A : 'A' ; B : 'B' ;`, Options{})
	for _, q := range []string{"B", "A B"} {
		if !p.Accepts(q) {
			t.Errorf("rejected %q", q)
		}
	}
}

func TestGreedyStarStillBacktracks(t *testing.T) {
	// (A)* followed by A: the star must not swallow the final A.
	p := buildParser(t, `grammar t ; s : ( A )* A B ;`, `tokens t ; A : 'A' ; B : 'B' ;`, Options{})
	for _, q := range []string{"A B", "A A A B"} {
		if !p.Accepts(q) {
			t.Errorf("rejected %q", q)
		}
	}
	if p.Accepts("B") {
		t.Error("accepted input missing mandatory A")
	}
}

func TestDisablePredictionEquivalent(t *testing.T) {
	fast := miniParser(t, Options{})
	slow := miniParser(t, Options{DisablePrediction: true})
	queries := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT * FROM t WHERE x = 3",
		"SELECT a, b FROM t",
		"SELECT a FROM",
		"nonsense",
	}
	for _, q := range queries {
		if fast.Accepts(q) != slow.Accepts(q) {
			t.Errorf("prediction changes outcome for %q", q)
		}
	}
}

func TestNewRejectsInvalidGrammar(t *testing.T) {
	g, _ := grammar.ParseGrammar(`grammar bad ; s : missing ;`)
	ts, _ := grammar.ParseTokens(`tokens bad ; A : 'A' ;`)
	if _, err := New(g, ts, Options{}); err == nil {
		t.Error("undefined nonterminal accepted")
	}
	lr, _ := grammar.ParseGrammar(`grammar bad ; s : s A | A ;`)
	if _, err := New(lr, ts, Options{}); err == nil {
		t.Error("left-recursive grammar accepted")
	}
}

// TestNewRejectsInvalidTokenSet: a token set the scanner cannot be built
// from fails New with the lexer's own error, so no parser — and no
// generated one — is ever built over it.
func TestNewRejectsInvalidTokenSet(t *testing.T) {
	for _, tc := range []struct{ name, grammar, tokens string }{
		{"unknown class", `grammar g ; s : X ;`, `tokens t ; X : <no_such_class> ;`},
		{"keyword bound twice", `grammar g ; s : A | B ;`, `tokens t ; A : 'GO' ; B : 'go' ;`},
		{"class bound twice", `grammar g ; s : I J ;`, `tokens t ; I : <identifier> ; J : <identifier> ;`},
	} {
		g := grammar.MustParseGrammar(tc.grammar)
		ts := grammar.MustParseTokens(tc.tokens)
		_, lexErr := lexer.New(ts)
		if lexErr == nil {
			t.Fatalf("%s: lexer accepted the token set", tc.name)
		}
		if _, err := New(g, ts, Options{}); err == nil || err.Error() != lexErr.Error() {
			t.Errorf("%s: New error = %v, want the lexer's %q", tc.name, err, lexErr)
		}
	}
}

func TestMaxTokens(t *testing.T) {
	p := buildParser(t, `grammar t ; s : ( A )+ ;`, `tokens t ; A : 'A' ;`, Options{MaxTokens: 3})
	if !p.Accepts("A A A") {
		t.Error("in-limit input rejected")
	}
	if p.Accepts("A A A A") {
		t.Error("over-limit input accepted")
	}
}

func TestFindAllOutermost(t *testing.T) {
	p := buildParser(t, `
grammar t ;
expr : term ( PLUS term )* ;
term : IDENTIFIER | LPAREN expr RPAREN ;
`, `
tokens t ; PLUS : '+' ; LPAREN : '(' ; RPAREN : ')' ; IDENTIFIER : <identifier> ;
`, Options{})
	tree, err := p.Parse("a + ( b + c )")
	if err != nil {
		t.Fatal(err)
	}
	terms := tree.FindAll("term")
	if len(terms) != 2 {
		t.Errorf("outermost terms = %d, want 2", len(terms))
	}
}

func TestDumpAndText(t *testing.T) {
	p := miniParser(t, Options{})
	tree, _ := p.Parse("SELECT a FROM t")
	d := tree.Dump()
	for _, want := range []string{"query_specification", "from_clause", "SELECT"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
	if tree.Text() != "SELECT a FROM t" {
		t.Errorf("Text = %q", tree.Text())
	}
}

// TestQuickListRoundTrip: generated comma lists of identifiers always parse,
// and corrupted ones never do.
func TestQuickListRoundTrip(t *testing.T) {
	p := buildParser(t, `
grammar t ;
list : IDENTIFIER ( COMMA IDENTIFIER )* ;
`, `tokens t ; COMMA : ',' ; IDENTIFIER : <identifier> ;`, Options{})
	f := func(n uint8) bool {
		k := int(n%20) + 1
		items := make([]string, k)
		for i := range items {
			items[i] = "c" + strings.Repeat("x", i%3+1)
		}
		good := strings.Join(items, ", ")
		if !p.Accepts(good) {
			return false
		}
		return !p.Accepts(good + ",")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPredictionAgreement: prediction pruning never changes the
// accept/reject decision on random token strings over the mini grammar.
func TestQuickPredictionAgreement(t *testing.T) {
	fast := miniParser(t, Options{})
	slow := miniParser(t, Options{DisablePrediction: true})
	words := []string{"SELECT", "DISTINCT", "ALL", "FROM", "WHERE", "*", "=", "tbl", "col", "7", "'s'"}
	f := func(seed uint64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % n
		}
		k := next(10) + 1
		parts := make([]string, k)
		for i := range parts {
			parts[i] = words[next(len(words))]
		}
		q := strings.Join(parts, " ")
		return fast.Accepts(q) == slow.Accepts(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}
