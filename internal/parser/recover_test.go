package parser

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sqlspl/internal/grammar"
	"sqlspl/internal/lexer"
)

// scriptGrammar is a small multi-statement dialect for recovery tests:
// statements separated by ';', with parenthesised values so the paren-depth
// guard is exercisable.
const scriptGrammar = `
grammar script ;

sql_script : statement ( SEMI statement )* ( SEMI )? ;
statement : SELECT value FROM IDENTIFIER ( WHERE IDENTIFIER EQ value )? ;
value : IDENTIFIER | INTEGER | STRING | LPAREN value RPAREN ;
`

const scriptTokens = `
tokens script ;
SELECT : 'SELECT' ;
FROM   : 'FROM' ;
WHERE  : 'WHERE' ;
SEMI   : ';' ;
LPAREN : '(' ;
RPAREN : ')' ;
EQ     : '=' ;
IDENTIFIER : <identifier> ;
INTEGER    : <integer> ;
STRING     : <string> ;
`

func scriptParser(t *testing.T, opts Options) *Parser {
	t.Helper()
	return buildParser(t, scriptGrammar, scriptTokens, opts)
}

// assertDiagInvariants checks the documented recovery contract: spans in
// bounds, sorted, and non-overlapping at statement granularity.
func assertDiagInvariants(t *testing.T, src string, diags []Diagnostic) {
	t.Helper()
	for i := range diags {
		d := &diags[i]
		if d.Span.Start < 0 || d.Span.End > len(src) || d.Span.End < d.Span.Start {
			t.Errorf("diag %d: span %+v out of bounds for %d-byte source", i, d.Span, len(src))
		}
		if d.Span.Line < 1 || d.Span.Col < 1 {
			t.Errorf("diag %d: non-positive position %d:%d", i, d.Span.Line, d.Span.Col)
		}
		if i > 0 && d.Span.Start < diags[i-1].Span.End {
			t.Errorf("diag %d overlaps previous: %+v after %+v", i, d.Span, diags[i-1].Span)
		}
	}
}

// Satellite regression: end-of-input used to be reported at the start of
// the last token; it must point just past it, and the message format is
// pinned.
func TestSyntaxErrorEndOfInputPosition(t *testing.T) {
	p := miniParser(t, Options{})
	err := p.Check("SELECT a FROM")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("Check: got %T (%v), want *SyntaxError", err, err)
	}
	if se.Line != 1 || se.Col != 14 {
		t.Errorf("position = %d:%d, want 1:14 (just past FROM)", se.Line, se.Col)
	}
	if se.Span.Start != 13 || se.Span.End != 13 {
		t.Errorf("span = %+v, want point at offset 13", se.Span)
	}
	const want = "syntax error at 1:14: unexpected end of input, expected one of: IDENTIFIER"
	if se.Error() != want {
		t.Errorf("message = %q, want %q", se.Error(), want)
	}

	// Multi-line input: the position is on the last line.
	err = p.Check("SELECT a\nFROM")
	se = err.(*SyntaxError)
	if se.Line != 2 || se.Col != 5 {
		t.Errorf("multiline position = %d:%d, want 2:5", se.Line, se.Col)
	}
}

func TestSyntaxErrorTokenSpan(t *testing.T) {
	p := miniParser(t, Options{})
	src := "SELECT a FROM t WHERE b junk"
	err := p.Check(src)
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("Check: got %T, want *SyntaxError", err)
	}
	off := strings.Index(src, "junk")
	if se.Span.Start != off || se.Span.End != off+len("junk") {
		t.Errorf("span = %+v, want [%d,%d)", se.Span, off, off+len("junk"))
	}
	if se.Col != off+1 {
		t.Errorf("col = %d, want %d", se.Col, off+1)
	}
}

// Satellite: expected sets are canonicalized — punctuation quoted, keyword
// spellings upper-cased, aliases for one spelling deduplicated, and names
// with no definition in the token set dropped.
func TestDisplayExpected(t *testing.T) {
	const tokens = `
tokens alias ;
LP     : '(' ;
LPAREN : '(' ;
AND    : 'and' ;
IDENTIFIER : <identifier> ;
`
	p := buildParser(t, `
grammar alias ;
s : LP IDENTIFIER | LPAREN AND IDENTIFIER ;
`, tokens, Options{})
	tables, err := lexer.Tables(grammar.MustParseTokens(tokens), nil)
	if err != nil {
		t.Fatal(err)
	}
	// displayExpected canonicalizes a raw expected set through the display
	// names lexer.Tables builds, as the runtime's tracked pass does.
	displayExpected := func(set map[string]bool) []string {
		var out []string
		for name := range set {
			if d, ok := tables.Displays[name]; ok {
				out = append(out, d)
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}

	cases := []struct {
		name string
		set  map[string]bool
		want []string
	}{
		{
			name: "aliases collapse, keywords upper-case",
			set:  map[string]bool{"LP": true, "LPAREN": true, "AND": true, "IDENTIFIER": true},
			want: []string{"'('", "AND", "IDENTIFIER"},
		},
		{
			name: "internal names are dropped",
			set:  map[string]bool{"LP": true, "some_erased_helper": true},
			want: []string{"'('"},
		},
		{
			name: "empty set",
			set:  nil,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := displayExpected(tc.set)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("displayExpected(%v) = %v, want %v", tc.set, got, tc.want)
			}
		})
	}

	// End to end: both aliases fail at position 0, one display name comes out.
	se := p.Check("x").(*SyntaxError)
	if fmt.Sprint(se.Expected) != fmt.Sprint([]string{"'('"}) {
		t.Errorf("Expected = %v, want ['(']", se.Expected)
	}
}

// Satellite: empty and whitespace/comment-only input is a clean "no
// statements" result for Parse and Check. Accepts deliberately stays
// strict — the accept/reject matrices pin language membership of "".
func TestEmptyInputCleanParse(t *testing.T) {
	p := miniParser(t, Options{})
	for _, src := range []string{"", "   \n\t ", "-- just a note\n", "/* block */ -- and line\n"} {
		tree, err := p.Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if tree.Label != "query_specification" || len(tree.Children) != 0 || tree.IsLeaf() {
			t.Errorf("Parse(%q) = %+v, want empty tree labelled with start symbol", src, tree)
		}
		if err := p.Check(src); err != nil {
			t.Errorf("Check(%q): %v", src, err)
		}
		if diags := p.ParseRecover(src); len(diags) != 0 {
			t.Errorf("ParseRecover(%q) = %v, want none", src, diags)
		}
		if p.Accepts(src) {
			t.Errorf("Accepts(%q) = true; empty input must stay strict on the verdict path", src)
		}
	}
}

func TestParseRecoverValid(t *testing.T) {
	p := scriptParser(t, Options{})
	for _, src := range []string{
		"SELECT a FROM t",
		"SELECT a FROM t;",
		"SELECT a FROM t; SELECT (b) FROM u WHERE c = 1;\nSELECT 'x;y' FROM v",
	} {
		if diags := p.ParseRecover(src); len(diags) != 0 {
			t.Errorf("ParseRecover(%q) = %v, want none", src, diags)
		}
	}
}

func TestParseRecoverMultipleStatements(t *testing.T) {
	p := scriptParser(t, Options{})
	src := "SELECT a FROM t;\nSELECT FROM t;\nSELECT b FROM u;\nSELECT c FROM;\nSELECT d FROM v"
	diags := p.ParseRecover(src)
	assertDiagInvariants(t, src, diags)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2", len(diags), diags)
	}
	if diags[0].Span.Line != 2 || diags[0].Span.Col != 8 {
		t.Errorf("diag 0 at %d:%d, want 2:8 (FROM in statement 2)", diags[0].Span.Line, diags[0].Span.Col)
	}
	if diags[0].Got != "FROM" {
		t.Errorf("diag 0 got %q, want FROM", diags[0].Got)
	}
	if diags[0].Hint != "statement skipped" {
		t.Errorf("diag 0 hint %q, want statement skipped", diags[0].Hint)
	}
	if diags[1].Span.Line != 4 || diags[1].Span.Col != 14 {
		t.Errorf("diag 1 at %d:%d, want 4:14 (';' in statement 4)", diags[1].Span.Line, diags[1].Span.Col)
	}
}

func TestParseRecoverParenDepthGuard(t *testing.T) {
	p := scriptParser(t, Options{})
	// The ';' inside the parentheses must not split: one broken statement,
	// one diagnostic, and the statement after the real boundary still parses.
	src := "SELECT ( a ; b ) FROM t ; SELECT q FROM u"
	diags := p.ParseRecover(src)
	assertDiagInvariants(t, src, diags)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1 (';' at paren depth 1 must not resync)", len(diags), diags)
	}
}

func TestParseRecoverSemicolonInString(t *testing.T) {
	p := scriptParser(t, Options{})
	src := "SELECT 'x;y' FROM t; SELECT FROM u"
	diags := p.ParseRecover(src)
	assertDiagInvariants(t, src, diags)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1", len(diags), diags)
	}
	if want := strings.Index(src, "FROM u"); diags[0].Span.Start != want {
		t.Errorf("diag at offset %d, want %d (the ';' inside the literal must not split)", diags[0].Span.Start, want)
	}
}

func TestParseRecoverLexicalError(t *testing.T) {
	p := scriptParser(t, Options{})

	// An unexpected character ends its statement with a scan diagnostic;
	// scanning resumes after the next ';' and the rest still parses.
	src := "SELECT @ FROM t ; SELECT a FROM t"
	diags := p.ParseRecover(src)
	assertDiagInvariants(t, src, diags)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1", len(diags), diags)
	}
	if !strings.Contains(diags[0].Msg, "unexpected character") {
		t.Errorf("diag msg %q, want an unexpected-character scan error", diags[0].Msg)
	}
	if off := strings.IndexByte(src, '@'); diags[0].Span.Start != off {
		t.Errorf("diag at offset %d, want %d", diags[0].Span.Start, off)
	}
	if diags[0].Hint == "" {
		t.Error("resynchronized scan diagnostic should carry a hint")
	}

	// An unterminated literal swallows the rest of the input: recovery
	// stops cleanly with that one diagnostic.
	src = "SELECT a FROM t ; SELECT 'oops"
	diags = p.ParseRecover(src)
	assertDiagInvariants(t, src, diags)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1", len(diags), diags)
	}
	if !strings.Contains(diags[0].Msg, "unterminated") {
		t.Errorf("diag msg %q, want an unterminated-literal scan error", diags[0].Msg)
	}
}

// A dialect composed without the SEMICOLON token still recovers per
// statement: the ';' is a scan error, and rescanning resumes right after it.
func TestParseRecoverWithoutSemicolonToken(t *testing.T) {
	p := miniParser(t, Options{})
	src := "SELECT a FROM t ; SELECT FROM u"
	diags := p.ParseRecover(src)
	assertDiagInvariants(t, src, diags)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2 (';' scan error, then FROM)", len(diags), diags)
	}
	if !strings.Contains(diags[0].Msg, "';'") {
		t.Errorf("diag 0 msg %q, want the ';' scan error", diags[0].Msg)
	}
	if want := strings.Index(src, "FROM u"); diags[1].Span.Start != want {
		t.Errorf("diag 1 at offset %d, want %d", diags[1].Span.Start, want)
	}
}

func TestParseRecoverCap(t *testing.T) {
	p := scriptParser(t, Options{MaxDiagnostics: 3})
	src := strings.Repeat("SELECT oops oops FROM ; ", 6)
	diags := p.ParseRecover(src)
	assertDiagInvariants(t, src, diags)
	if len(diags) != 4 {
		t.Fatalf("got %d diagnostics, want 3 + sentinel", len(diags))
	}
	for i := 0; i < 3; i++ {
		if diags[i].Hint == TooManyErrors {
			t.Errorf("diag %d is a premature sentinel", i)
		}
	}
	last := diags[3]
	if last.Hint != TooManyErrors {
		t.Errorf("last hint = %q, want %q", last.Hint, TooManyErrors)
	}
	if !strings.Contains(last.Msg, "suppressed") {
		t.Errorf("last msg = %q, want a suppression notice", last.Msg)
	}
}

func TestParseRecoverMaxTokens(t *testing.T) {
	p := scriptParser(t, Options{MaxTokens: 4})
	diags := p.ParseRecover("SELECT a FROM t WHERE b = 1")
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "exceeds configured maximum") {
		t.Fatalf("got %v, want one over-cap diagnostic", diags)
	}
	// Mirrors Check: over-cap input is an error there too, keeping the
	// "Check fails iff ParseRecover reports" contract.
	if err := p.Check("SELECT a FROM t WHERE b = 1"); err == nil {
		t.Error("Check accepted input over MaxTokens")
	}
}

func TestDiagnosticRender(t *testing.T) {
	p := scriptParser(t, Options{})
	src := "SELECT a FROM t;\nSELECT FROM t"
	diags := p.ParseRecover(src)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	got := diags[0].Render(src)
	want := strings.Join([]string{
		"2:8: unexpected FROM, expected one of: '(', IDENTIFIER, INTEGER, STRING",
		"  SELECT FROM t",
		"         ^~~~",
	}, "\n")
	if got != want {
		t.Errorf("Render:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// RenderDiagnostics joins excerpts with blank lines.
	all := RenderDiagnostics(src, diags)
	if all != got {
		t.Errorf("RenderDiagnostics single = %q, want %q", all, got)
	}
}

func TestDiagnosticMessageForms(t *testing.T) {
	d := Diagnostic{Span: Span{Line: 3, Col: 7}, Got: "FROM", Expected: []string{"'('", "IDENTIFIER"}}
	if got, want := d.Message(), "3:7: unexpected FROM, expected one of: '(', IDENTIFIER"; got != want {
		t.Errorf("Message = %q, want %q", got, want)
	}
	d = Diagnostic{Span: Span{Line: 1, Col: 2}, Msg: "unexpected character '@'", Hint: "rescanning after the next ';'"}
	if got, want := d.Message(), "1:2: unexpected character '@' (rescanning after the next ';')"; got != want {
		t.Errorf("Message = %q, want %q", got, want)
	}
}
