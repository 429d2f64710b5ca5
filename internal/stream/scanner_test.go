package stream

import (
	"errors"
	"io"
	"strings"
	"testing"

	"sqlspl/internal/grammar"
	"sqlspl/internal/lexer"
)

// streamTokens is a statement-shaped token set with multi-character
// punctuation ('<=' vs '<') so maximal-munch tentativeness at chunk edges
// is exercised.
const streamTokens = `
tokens stream ;
SELECT : 'SELECT' ;
FROM   : 'FROM' ;
WHERE  : 'WHERE' ;
SEMI   : ';' ;
LPAREN : '(' ;
RPAREN : ')' ;
EQ     : '=' ;
LE     : '<=' ;
LT     : '<' ;
COMMA  : ',' ;
IDENTIFIER : <identifier> ;
INTEGER    : <integer> ;
STRING     : <string> ;
`

// noSemiTokens is a dialect composed without the semicolon token: a raw
// ';' is a lexical error and each statement still gets its own span.
const noSemiTokens = `
tokens nosemi ;
SELECT : 'SELECT' ;
FROM   : 'FROM' ;
IDENTIFIER : <identifier> ;
INTEGER    : <integer> ;
`

func testLexer(t testing.TB, tsrc string) *lexer.Lexer {
	t.Helper()
	ts, err := grammar.ParseTokens(tsrc)
	if err != nil {
		t.Fatalf("ParseTokens: %v", err)
	}
	lx, err := lexer.New(ts)
	if err != nil {
		t.Fatalf("lexer.New: %v", err)
	}
	return lx
}

// stmtCopy deep-copies a yielded Statement so it survives the next Next.
type stmtCopy struct {
	Text           string
	Off, Line, Col int
	Tokens         []lexer.Token
	Err            *lexer.Error
	Resynced       bool
}

// smallReads returns at most n bytes from each Read, so a test can split
// the input at every token boundary the way a slow client would.
type smallReads struct {
	r io.Reader
	n int
}

func (s smallReads) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.n)]) }

func collect(t testing.TB, lx *lexer.Lexer, src string, chunk int) []stmtCopy {
	t.Helper()
	sc := NewScanner(lx, smallReads{strings.NewReader(src), chunk}, Config{})
	var out []stmtCopy
	for {
		st, err := sc.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next after %d statements: %v", len(out), err)
		}
		c := stmtCopy{
			Text: st.Text, Off: st.Off, Line: st.Line, Col: st.Col,
			Tokens:   append([]lexer.Token(nil), st.Tokens...),
			Resynced: st.Resynced,
		}
		if st.Err != nil {
			e := *st.Err
			c.Err = &e
		}
		out = append(out, c)
	}
}

// checkInvariants verifies the documented Scanner contract against src:
// spans concatenate to the input, every span's absolute position is
// correct, and Tokens/Err per statement are exactly what a standalone
// ScanInto of the span produces.
func checkInvariants(t *testing.T, lx *lexer.Lexer, src string, stmts []stmtCopy) {
	t.Helper()
	var cat strings.Builder
	ix := lexer.NewLineIndex(src)
	for i, st := range stmts {
		if st.Off != cat.Len() {
			t.Fatalf("stmt %d: Off = %d, want %d", i, st.Off, cat.Len())
		}
		cat.WriteString(st.Text)
		if st.Off+len(st.Text) > len(src) || src[st.Off:st.Off+len(st.Text)] != st.Text {
			t.Fatalf("stmt %d: Text is not the span at its Off", i)
		}
		if line, col := ix.Pos(st.Off); line != st.Line || col != st.Col {
			t.Fatalf("stmt %d: position %d:%d, want %d:%d", i, st.Line, st.Col, line, col)
		}
		toks, err := lx.ScanInto(st.Text, nil)
		if st.Err == nil {
			if err != nil {
				t.Fatalf("stmt %d: rescan of clean span errored: %v", i, err)
			}
			if len(toks) != len(st.Tokens) {
				t.Fatalf("stmt %d: %d tokens, rescan has %d", i, len(st.Tokens), len(toks))
			}
			for j := range toks {
				if toks[j] != st.Tokens[j] {
					t.Fatalf("stmt %d token %d: %+v, rescan %+v", i, j, st.Tokens[j], toks[j])
				}
			}
		} else {
			var le *lexer.Error
			if !errors.As(err, &le) {
				t.Fatalf("stmt %d: carries Err but rescan of %q passed", i, st.Text)
			}
			if *le != *st.Err {
				t.Fatalf("stmt %d: Err = %+v, rescan = %+v", i, st.Err, le)
			}
		}
		if len(st.Text) == 0 {
			t.Fatalf("stmt %d: empty span yielded", i)
		}
	}
	if cat.String() != src {
		t.Fatalf("concatenated spans differ from input:\n got %q\nwant %q", cat.String(), src)
	}
}

var streamCorpus = []string{
	"",
	"   \n\t ",
	"SELECT a FROM t",
	"SELECT a FROM t;",
	"SELECT a FROM t; SELECT b FROM u;",
	"SELECT a FROM t; SELECT b FROM u",
	"SELECT a FROM t;;SELECT b FROM u;",
	// ';' inside parens must not split.
	"SELECT (a; b) FROM t; SELECT c FROM u",
	"SELECT ((a; (b; c)) ; d) FROM t; SELECT e FROM u",
	// Unbalanced ')' noise: depth floors at zero, later ';' still splits.
	"SELECT a) ; SELECT b FROM t;",
	// ';' inside string literals and comments is part of the trivia/token.
	"SELECT 'a;b' FROM t; SELECT c FROM u",
	"SELECT 'it''s; fine' FROM t; SELECT c FROM u",
	"SELECT a -- tail; not a boundary\nFROM t; SELECT b FROM u",
	"/* header; comment */ SELECT a FROM t; SELECT b FROM u",
	// Comment-only and trivia-only tails.
	"-- only a comment\n",
	"SELECT a FROM t; -- trailing commentary",
	"SELECT a FROM t;   \n\n",
	// Lexical errors: unexpected character, with and without a later ';'.
	"SELECT @ FROM t; SELECT b FROM u",
	"SELECT a FROM t; SELECT @ FROM u",
	"SELECT @ @ @",
	// Unterminated quote swallows a would-be boundary and runs to EOF.
	"SELECT 'abc; SELECT d FROM u",
	"SELECT a FROM t; SELECT 'un terminated",
	// Unterminated block comment.
	"SELECT a FROM t; /* no close",
	// Multi-char punctuation and numbers at chunk edges.
	"SELECT a FROM t WHERE a <= 10; SELECT b FROM u WHERE b < 5;",
	"SELECT 1.5 FROM t; SELECT 2 FROM u;",
	// Multi-byte identifiers split across reads.
	"SELECT héllo FROM tàble; SELECT wörld FROM ü;",
	// CRLF and position bookkeeping across lines.
	"SELECT a\r\nFROM t;\r\nSELECT b\nFROM u WHERE x = 'multi\nline';\n-- done\n",
}

// Chunked scans must agree byte-for-byte with a whole-input scan: the
// tentative-token/tentative-error machinery may never change what is
// yielded, only when.
func TestChunkIndependence(t *testing.T) {
	lx := testLexer(t, streamTokens)
	for _, src := range streamCorpus {
		whole := collect(t, lx, src, len(src)+1)
		checkInvariants(t, lx, src, whole)
		for _, chunk := range []int{1, 2, 3, 5, 7, 16, 37} {
			got := collect(t, lx, src, chunk)
			if len(got) != len(whole) {
				t.Fatalf("src %q chunk %d: %d statements, whole-read %d",
					src, chunk, len(got), len(whole))
			}
			for i := range got {
				g, w := got[i], whole[i]
				if g.Text != w.Text || g.Off != w.Off || g.Line != w.Line || g.Col != w.Col || g.Resynced != w.Resynced {
					t.Fatalf("src %q chunk %d stmt %d:\n got %+v\nwant %+v", src, chunk, i, g, w)
				}
				if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && *g.Err != *w.Err) {
					t.Fatalf("src %q chunk %d stmt %d err:\n got %+v\nwant %+v", src, chunk, i, g.Err, w.Err)
				}
				if len(g.Tokens) != len(w.Tokens) {
					t.Fatalf("src %q chunk %d stmt %d: token counts %d vs %d",
						src, chunk, i, len(g.Tokens), len(w.Tokens))
				}
				for j := range g.Tokens {
					if g.Tokens[j] != w.Tokens[j] {
						t.Fatalf("src %q chunk %d stmt %d token %d: %+v vs %+v",
							src, chunk, i, j, g.Tokens[j], w.Tokens[j])
					}
				}
			}
			checkInvariants(t, lx, src, got)
		}
	}
}

func TestStatementSpans(t *testing.T) {
	lx := testLexer(t, streamTokens)
	src := "SELECT a FROM t; SELECT (b; c) FROM u;\n-- coda\n"
	stmts := collect(t, lx, src, 4)
	texts := []string{"SELECT a FROM t;", " SELECT (b; c) FROM u;", "\n-- coda\n"}
	if len(stmts) != len(texts) {
		t.Fatalf("%d statements, want %d: %+v", len(stmts), len(texts), stmts)
	}
	for i, want := range texts {
		if stmts[i].Text != want {
			t.Fatalf("stmt %d text %q, want %q", i, stmts[i].Text, want)
		}
	}
	if n := len(stmts[2].Tokens); n != 0 {
		t.Fatalf("trivia-only tail carries %d tokens", n)
	}
	if stmts[1].Line != 1 || stmts[1].Col != 17 {
		t.Fatalf("stmt 1 at %d:%d, want 1:17", stmts[1].Line, stmts[1].Col)
	}
	if stmts[2].Line != 1 || stmts[2].Col != len("SELECT a FROM t; SELECT (b; c) FROM u;")+1 {
		t.Fatalf("tail at %d:%d", stmts[2].Line, stmts[2].Col)
	}
}

// An unterminated quote spanning a would-be boundary: the ';' inside the
// open literal never splits, the error arrives once EOF makes it
// definitive, and the statement runs to end of input (Resynced false).
func TestUnterminatedQuoteAcrossBoundary(t *testing.T) {
	lx := testLexer(t, streamTokens)
	src := "SELECT 'abc; SELECT d FROM u"
	for _, chunk := range []int{1, 4, 1024} {
		stmts := collect(t, lx, src, chunk)
		if len(stmts) != 1 {
			t.Fatalf("chunk %d: %d statements, want 1", chunk, len(stmts))
		}
		st := stmts[0]
		if st.Err == nil || !strings.Contains(st.Err.Msg, "unterminated") {
			t.Fatalf("chunk %d: err = %+v, want unterminated quote", chunk, st.Err)
		}
		if st.Resynced {
			t.Fatalf("chunk %d: EOF-closed error marked Resynced", chunk)
		}
		if st.Text != src {
			t.Fatalf("chunk %d: text %q", chunk, st.Text)
		}
		if st.Err.Off != len("SELECT ") {
			t.Fatalf("chunk %d: err off %d, want at the opening quote", chunk, st.Err.Off)
		}
	}
}

// A definitive mid-script lexical error resynchronizes after the next raw
// ';' and later statements are still yielded cleanly.
func TestLexicalErrorResync(t *testing.T) {
	lx := testLexer(t, streamTokens)
	src := "SELECT @ garbage ; SELECT b FROM u"
	for _, chunk := range []int{1, 3, 1024} {
		stmts := collect(t, lx, src, chunk)
		if len(stmts) != 2 {
			t.Fatalf("chunk %d: %d statements, want 2", chunk, len(stmts))
		}
		if stmts[0].Err == nil || !stmts[0].Resynced {
			t.Fatalf("chunk %d: first statement %+v, want resynced error", chunk, stmts[0])
		}
		if stmts[0].Text != "SELECT @ garbage ;" {
			t.Fatalf("chunk %d: error span %q", chunk, stmts[0].Text)
		}
		if stmts[1].Err != nil || len(stmts[1].Tokens) != 4 {
			t.Fatalf("chunk %d: second statement %+v", chunk, stmts[1])
		}
	}
}

// A dialect without the semicolon token: each raw ';' is itself the
// offending character, and every statement still gets its own span — the
// recover.go special case, streamed.
func TestNoSemicolonDialect(t *testing.T) {
	lx := testLexer(t, noSemiTokens)
	src := "SELECT a FROM t; SELECT b FROM u; SELECT c FROM v"
	for _, chunk := range []int{1, 5, 1024} {
		stmts := collect(t, lx, src, chunk)
		if len(stmts) != 3 {
			t.Fatalf("chunk %d: %d statements, want 3: %+v", chunk, len(stmts), stmts)
		}
		for i := 0; i < 2; i++ {
			st := stmts[i]
			if st.Err == nil || !strings.Contains(st.Err.Msg, "unexpected character") {
				t.Fatalf("chunk %d stmt %d: err %+v", chunk, i, st.Err)
			}
			if !strings.HasSuffix(st.Text, ";") {
				t.Fatalf("chunk %d stmt %d: span %q does not end at its ';'", chunk, i, st.Text)
			}
		}
		if stmts[2].Err != nil {
			t.Fatalf("chunk %d: final statement errored: %+v", chunk, stmts[2].Err)
		}
		checkInvariants(t, lx, src, stmts)
	}
}

func TestMaxStatement(t *testing.T) {
	lx := testLexer(t, streamTokens)
	src := "SELECT " + strings.Repeat("aaaaaaaaaa, ", 40) + "b FROM t; SELECT c FROM u;"
	sc := NewScanner(lx, smallReads{strings.NewReader(src), 16}, Config{MaxStatement: 64})
	_, err := sc.Next()
	if !errors.Is(err, ErrStatementTooLarge) {
		t.Fatalf("Next = %v, want ErrStatementTooLarge", err)
	}
	// Generous cap: the same script streams fine.
	sc = NewScanner(lx, smallReads{strings.NewReader(src), 16}, Config{MaxStatement: 1 << 20})
	n := 0
	for {
		_, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("streamed %d statements, want 2", n)
	}
}

type failReader struct{ n int }

func (r *failReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errors.New("disk on fire")
	}
	take := r.n
	if take > len(p) {
		take = len(p)
	}
	for i := 0; i < take; i++ {
		p[i] = 'x'
	}
	r.n -= take
	return take, nil
}

func TestReaderErrorIsTerminal(t *testing.T) {
	lx := testLexer(t, streamTokens)
	sc := NewScanner(lx, smallReads{&failReader{n: 10}, 4}, Config{})
	for {
		_, err := sc.Next()
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("reader failure surfaced as clean EOF")
		}
		if err.Error() != "disk on fire" {
			t.Fatalf("err = %v", err)
		}
		break
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("Next after terminal error = %v, want io.EOF", err)
	}
}

// A moderately large generated script streams through a small window with
// statement counts intact — the bounded-memory path end to end.
func TestLargeScript(t *testing.T) {
	lx := testLexer(t, streamTokens)
	var b strings.Builder
	const n = 5000
	for i := 0; i < n; i++ {
		b.WriteString("SELECT col_a, col_b FROM relation WHERE k = 'value with; semicolon';\n")
	}
	src := b.String()
	sc := NewScanner(lx, smallReads{strings.NewReader(src), 4096}, Config{})
	got, bytes := 0, 0
	for {
		st, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if st.Err != nil {
			t.Fatalf("statement %d errored: %+v", got, st.Err)
		}
		bytes += len(st.Text)
		if len(st.Tokens) > 0 {
			got++
		}
	}
	if got != n || bytes != len(src) {
		t.Fatalf("streamed %d statements / %d bytes, want %d / %d", got, bytes, n, len(src))
	}
}
