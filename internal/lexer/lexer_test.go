package lexer

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"sqlspl/internal/grammar"
)

const fullTokens = `
tokens test ;
SELECT     : 'SELECT' ;
FROM       : 'FROM' ;
WHERE      : 'WHERE' ;
ASTERISK   : '*' ;
COMMA      : ',' ;
EQ         : '=' ;
LT         : '<' ;
LTEQ       : '<=' ;
NEQ        : '<>' ;
LPAREN     : '(' ;
RPAREN     : ')' ;
PERIOD     : '.' ;
IDENTIFIER : <identifier> ;
DELIMITED  : <delimited_identifier> ;
NUMBER     : <number> ;
INTEGER    : <integer> ;
STRING     : <string> ;
BINARY     : <binary_string> ;
HOSTPARAM  : <host_parameter> ;
QUESTION   : <dynamic_parameter> ;
`

func newLexer(t *testing.T, tokenSrc string) *Lexer {
	t.Helper()
	ts, err := grammar.ParseTokens(tokenSrc)
	if err != nil {
		t.Fatalf("ParseTokens: %v", err)
	}
	l, err := New(ts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func names(toks []Token) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		parts[i] = t.Name
	}
	return strings.Join(parts, " ")
}

func TestScanBasicQuery(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan("SELECT a, b FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT IDENTIFIER COMMA IDENTIFIER FROM IDENTIFIER WHERE IDENTIFIER EQ INTEGER"
	if got := names(toks); got != want {
		t.Errorf("tokens = %s\nwant     %s", got, want)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	l := newLexer(t, fullTokens)
	for _, src := range []string{"select", "SELECT", "SeLeCt"} {
		toks, err := l.Scan(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(toks) != 1 || toks[0].Name != "SELECT" {
			t.Errorf("Scan(%q) = %v", src, toks)
		}
	}
}

func TestUnreservedKeywordIsIdentifier(t *testing.T) {
	// CUBE is not in this dialect's token set, so it scans as an identifier —
	// the customizability property the paper motivates for scaled-down SQL.
	l := newLexer(t, fullTokens)
	toks, err := l.Scan("SELECT cube FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Name != "IDENTIFIER" || toks[1].Text != "cube" {
		t.Errorf("cube scanned as %v", toks[1])
	}
}

func TestMaximalMunch(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan("a <= b <> c < d")
	if err != nil {
		t.Fatal(err)
	}
	want := "IDENTIFIER LTEQ IDENTIFIER NEQ IDENTIFIER LT IDENTIFIER"
	if got := names(toks); got != want {
		t.Errorf("tokens = %s, want %s", got, want)
	}
}

func TestNumericLiterals(t *testing.T) {
	l := newLexer(t, fullTokens)
	cases := []struct {
		src  string
		name string
	}{
		{"42", "INTEGER"},
		{"3.14", "NUMBER"},
		{".5", "NUMBER"},
		{"1e10", "NUMBER"},
		{"2.5E-3", "NUMBER"},
		{"7E+2", "NUMBER"},
	}
	for _, tc := range cases {
		toks, err := l.Scan(tc.src)
		if err != nil {
			t.Fatalf("Scan(%q): %v", tc.src, err)
		}
		if len(toks) != 1 || toks[0].Name != tc.name || toks[0].Text != tc.src {
			t.Errorf("Scan(%q) = %v, want one %s", tc.src, toks, tc.name)
		}
	}
}

func TestNumberThenPeriod(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan("1 . 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(toks); got != "INTEGER PERIOD INTEGER" {
		t.Errorf("tokens = %s", got)
	}
}

func TestStringLiterals(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan(`'hello' 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Text != "'hello'" || toks[1].Text != "'it''s'" {
		t.Errorf("tokens = %v", toks)
	}
	if _, err := l.Scan("'unterminated"); err == nil {
		t.Error("unterminated string must fail")
	}
}

func TestBinaryString(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan("X'0AFF'")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Name != "BINARY" {
		t.Errorf("tokens = %v", toks)
	}
	// x alone is an identifier.
	toks, err = l.Scan("x y")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Name != "IDENTIFIER" {
		t.Errorf("lone x = %v", toks[0])
	}
}

func TestDelimitedIdentifier(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan(`"order" "a""b"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Name != "DELIMITED" || toks[1].Text != `"a""b"` {
		t.Errorf("tokens = %v", toks)
	}
}

func TestHostAndDynamicParameters(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan("WHERE a = :param1 , b = ?")
	if err != nil {
		t.Fatal(err)
	}
	var haveHost, haveDyn bool
	for _, tok := range toks {
		if tok.Name == "HOSTPARAM" && tok.Text == ":param1" {
			haveHost = true
		}
		if tok.Name == "QUESTION" {
			haveDyn = true
		}
	}
	if !haveHost || !haveDyn {
		t.Errorf("tokens = %v", toks)
	}
}

func TestComments(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan("SELECT -- trailing comment\n/* block\ncomment */ a")
	if err != nil {
		t.Fatal(err)
	}
	if got := names(toks); got != "SELECT IDENTIFIER" {
		t.Errorf("tokens = %s", got)
	}
	if _, err := l.Scan("/* unterminated"); err == nil {
		t.Error("unterminated block comment must fail")
	}
}

func TestPositions(t *testing.T) {
	l := newLexer(t, fullTokens)
	toks, err := l.Scan("SELECT\n  a")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("SELECT at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("a at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestScaledDownDialectRejectsUnknown(t *testing.T) {
	// A dialect without identifiers/strings/numbers rejects them lexically.
	l := newLexer(t, `tokens tiny ; SELECT : 'SELECT' ; ASTERISK : '*' ;`)
	if _, err := l.Scan("SELECT *"); err != nil {
		t.Fatalf("in-dialect input rejected: %v", err)
	}
	for _, bad := range []string{"SELECT foo", "SELECT 1", "SELECT 'x'", "SELECT ,"} {
		if _, err := l.Scan(bad); err == nil {
			t.Errorf("Scan(%q): want error in scaled-down dialect", bad)
		}
	}
}

func TestUnknownClassRejected(t *testing.T) {
	ts, err := grammar.ParseTokens(`tokens t ; X : <no_such_class> ;`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(ts); err == nil {
		t.Error("unknown class must be rejected at construction")
	}
}

func TestConflictingKeywordBindingRejected(t *testing.T) {
	ts := grammar.NewTokenSet("t")
	_ = ts.Add(grammar.TokenDef{Name: "A", Kind: grammar.Keyword, Text: "GO"})
	_ = ts.Add(grammar.TokenDef{Name: "B", Kind: grammar.Keyword, Text: "go"})
	if _, err := New(ts); err == nil {
		t.Error("two names for one keyword must be rejected")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Name: "SELECT", Text: "select"}
	if got := tok.String(); got != "SELECT" {
		t.Errorf("String = %q", got)
	}
	tok = Token{Name: "IDENTIFIER", Text: "foo"}
	if got := tok.String(); !strings.Contains(got, "foo") {
		t.Errorf("String = %q", got)
	}
}

func TestKeywordsListing(t *testing.T) {
	l := newLexer(t, fullTokens)
	kw := l.Keywords()
	if len(kw) != 3 || kw[0] != "FROM" || kw[1] != "SELECT" || kw[2] != "WHERE" {
		t.Errorf("Keywords = %v", kw)
	}
}

// TestQuickScanNeverPanics: the scanner must return tokens or an error for
// arbitrary input, never panic or loop.
func TestQuickScanNeverPanics(t *testing.T) {
	l := newLexer(t, fullTokens)
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = l.Scan(src)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickIdentifierRoundTrip: any ASCII word that is not a keyword scans
// to a single identifier token with identical text.
func TestQuickIdentifierRoundTrip(t *testing.T) {
	l := newLexer(t, fullTokens)
	reserved := l.Keywords()
	f := func(raw uint64) bool {
		// Build a word from the seed: 'a'..'z', 3..10 chars.
		n := 3 + int(raw%8)
		b := make([]byte, n)
		v := raw
		for i := range b {
			b[i] = byte('a' + v%26)
			v /= 26
		}
		word := string(b)
		if slices.Contains(reserved, strings.ToUpper(word)) {
			return true
		}
		toks, err := l.Scan(word)
		return err == nil && len(toks) == 1 && toks[0].Name == "IDENTIFIER" && toks[0].Text == word
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUnterminatedQuotesPositioned: an unterminated quoted lexeme must fail
// with an error positioned at the token's start — for X'.. binary strings
// that is the X, not the quote — and a message naming both the lexeme kind
// and where the input ran out.
func TestUnterminatedQuotesPositioned(t *testing.T) {
	l := newLexer(t, fullTokens)
	cases := []struct {
		src             string
		line, col       int
		endLine, endCol int
		what            string
	}{
		{"SELECT 'abc", 1, 8, 1, 12, "string literal"},
		{"SELECT 'it''s", 1, 8, 1, 14, "string literal"},
		{"SELECT \"col", 1, 8, 1, 12, "delimited identifier"},
		{"SELECT X'AB", 1, 8, 1, 12, "binary string literal"},
		{"SELECT x'", 1, 8, 1, 10, "binary string literal"},
		{"SELECT\n  'abc", 2, 3, 2, 7, "string literal"},
	}
	for _, c := range cases {
		_, err := l.Scan(c.src)
		if err == nil {
			t.Errorf("Scan(%q) unexpectedly succeeded", c.src)
			continue
		}
		lerr, ok := err.(*Error)
		if !ok {
			t.Errorf("Scan(%q) error is %T, want *Error", c.src, err)
			continue
		}
		if lerr.Line != c.line || lerr.Col != c.col {
			t.Errorf("Scan(%q) error at %d:%d, want %d:%d (token start)",
				c.src, lerr.Line, lerr.Col, c.line, c.col)
		}
		wantMsg := fmt.Sprintf("unterminated %s: reached end of input at %d:%d",
			c.what, c.endLine, c.endCol)
		if lerr.Msg != wantMsg {
			t.Errorf("Scan(%q) message %q, want %q", c.src, lerr.Msg, wantMsg)
		}
	}
}

// --- Byte-offset spans and the line index ---------------------------------

func TestTokenSpans(t *testing.T) {
	l := newLexer(t, fullTokens)
	src := "SELECT a,\n  'x''y' FROM t"
	toks, err := l.Scan(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Off < 0 || tok.End > len(src) || tok.Off >= tok.End {
			t.Fatalf("degenerate span %d:%d for %s", tok.Off, tok.End, tok)
		}
		if got := src[tok.Off:tok.End]; got != tok.Text {
			t.Errorf("src[%d:%d] = %q, want token text %q", tok.Off, tok.End, got, tok.Text)
		}
	}
	// Spans are strictly increasing and non-overlapping.
	for i := 1; i < len(toks); i++ {
		if toks[i].Off < toks[i-1].End {
			t.Errorf("token %d span %d overlaps previous end %d", i, toks[i].Off, toks[i-1].End)
		}
	}
}

func TestTokenEndPos(t *testing.T) {
	cases := []struct {
		tok       Token
		line, col int
	}{
		{Token{Text: "SELECT", Line: 1, Col: 1}, 1, 7},
		{Token{Text: "t", Line: 3, Col: 9}, 3, 10},
		{Token{Text: "'a\nb'", Line: 2, Col: 4}, 3, 3},
	}
	for _, c := range cases {
		line, col := c.tok.EndPos()
		if line != c.line || col != c.col {
			t.Errorf("EndPos(%q at %d:%d) = %d:%d, want %d:%d",
				c.tok.Text, c.tok.Line, c.tok.Col, line, col, c.line, c.col)
		}
	}
}

func TestScanErrorOffsets(t *testing.T) {
	l := newLexer(t, fullTokens)
	src := "SELECT a ; FROM t"
	_, err := l.Scan(src)
	lerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error = %v (%T)", err, err)
	}
	if src[lerr.Off] != ';' {
		t.Errorf("Off = %d (%q), want offset of ';'", lerr.Off, src[lerr.Off])
	}
	if lerr.Resume != lerr.Off {
		t.Errorf("Resume = %d, want %d for unexpected character", lerr.Resume, lerr.Off)
	}

	src = "SELECT 'unterminated"
	_, err = l.Scan(src)
	lerr, ok = err.(*Error)
	if !ok {
		t.Fatalf("error = %v (%T)", err, err)
	}
	if src[lerr.Off] != '\'' {
		t.Errorf("Off = %d, want offset of opening quote", lerr.Off)
	}
	if lerr.Resume != len(src) {
		t.Errorf("Resume = %d, want end of input %d", lerr.Resume, len(src))
	}
}

func TestScanPartialFromKeepsPrefix(t *testing.T) {
	l := newLexer(t, fullTokens)
	src := "SELECT a ; b"
	toks, err := l.ScanPartialFrom(src, 0, 1, 1, 0, nil)
	if err == nil {
		t.Fatal("want lexical error at ';'")
	}
	if names(toks) != "SELECT IDENTIFIER" {
		t.Errorf("partial tokens = %q, want the prefix before the error", names(toks))
	}
	// Restarting after the error continues with absolute offsets.
	lerr := err.(*Error)
	line, col := NewLineIndex(src).Pos(lerr.Resume + 1)
	toks, err = l.ScanPartialFrom(src, lerr.Resume+1, line, col, 0, toks)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if names(toks) != "SELECT IDENTIFIER IDENTIFIER" {
		t.Errorf("resumed tokens = %q", names(toks))
	}
	last := toks[len(toks)-1]
	if src[last.Off:last.End] != "b" {
		t.Errorf("resumed token span = %d:%d (%q), offsets must stay absolute",
			last.Off, last.End, src[last.Off:last.End])
	}
}

func TestLineIndex(t *testing.T) {
	src := "one\ntwo\n\nfour"
	ix := NewLineIndex(src)
	if ix.Lines() != 4 {
		t.Fatalf("Lines = %d, want 4", ix.Lines())
	}
	cases := []struct{ off, line, col int }{
		{0, 1, 1}, {3, 1, 4}, {4, 2, 1}, {7, 2, 4}, {8, 3, 1}, {9, 4, 1},
		{13, 4, 5}, // one past the end
		{99, 4, 5}, // clamped
		{-1, 1, 1}, // clamped
	}
	for _, c := range cases {
		line, col := ix.Pos(c.off)
		if line != c.line || col != c.col {
			t.Errorf("Pos(%d) = %d:%d, want %d:%d", c.off, line, col, c.line, c.col)
		}
	}
	for i, want := range []string{"one", "two", "", "four"} {
		if got := ix.LineText(i + 1); got != want {
			t.Errorf("LineText(%d) = %q, want %q", i+1, got, want)
		}
	}
	if got := ix.LineText(0); got != "" {
		t.Errorf("LineText(0) = %q", got)
	}
	if got := ix.LineText(5); got != "" {
		t.Errorf("LineText(5) = %q", got)
	}
	// Empty source: one empty line, Pos answers 1:1 everywhere.
	ix = NewLineIndex("")
	if ix.Lines() != 1 {
		t.Errorf("empty Lines = %d", ix.Lines())
	}
	if line, col := ix.Pos(0); line != 1 || col != 1 {
		t.Errorf("empty Pos(0) = %d:%d", line, col)
	}
}
