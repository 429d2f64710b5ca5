package lexer_test

import (
	"errors"
	"strings"
	"testing"

	"sqlspl/internal/grammar"
	"sqlspl/internal/lexer"
)

// fuzzLexer is a representative scanner configuration: keywords, multi-char
// and single-char punctuation, and every lexical class the scanner supports.
func fuzzLexer(tb testing.TB) *lexer.Lexer {
	tb.Helper()
	ts := grammar.NewTokenSet("fuzz")
	for _, kw := range []string{"SELECT", "FROM", "WHERE", "AND", "NOT", "NULL", "X"} {
		if err := ts.Add(grammar.TokenDef{Name: kw, Kind: grammar.Keyword, Text: kw}); err != nil {
			tb.Fatal(err)
		}
	}
	for name, text := range map[string]string{
		"LPAREN": "(", "RPAREN": ")", "COMMA": ",", "SEMI": ";",
		"EQ": "=", "NEQ": "<>", "LT": "<", "LTEQ": "<=", "CONCAT": "||",
		"PLUS": "+", "MINUS": "-", "PERIOD": ".",
	} {
		if err := ts.Add(grammar.TokenDef{Name: name, Kind: grammar.Punct, Text: text}); err != nil {
			tb.Fatal(err)
		}
	}
	for name, class := range map[string]string{
		"IDENT":     lexer.ClassIdentifier,
		"DELIM":     lexer.ClassDelimitedIdentifier,
		"NUMBER":    lexer.ClassNumber,
		"INTEGER":   lexer.ClassInteger,
		"STRING":    lexer.ClassString,
		"BINSTRING": lexer.ClassBinaryString,
		"HOSTPARAM": lexer.ClassHostParameter,
		"QMARK":     lexer.ClassDynamicParameter,
	} {
		if err := ts.Add(grammar.TokenDef{Name: name, Kind: grammar.Class, Text: class}); err != nil {
			tb.Fatal(err)
		}
	}
	lx, err := lexer.New(ts)
	if err != nil {
		tb.Fatal(err)
	}
	return lx
}

// FuzzLex drives the scanner with arbitrary input and checks its contract:
// no panics, errors are positioned *lexer.Error values, token positions
// strictly increase, token texts are non-empty, and re-scanning the
// space-joined token texts yields the same token-name sequence (the
// round-trip the sentence generator and shrinker rely on).
func FuzzLex(f *testing.F) {
	lx := fuzzLexer(f)
	seeds := []string{
		"SELECT a FROM t WHERE b = 1",
		`SELECT "q" , x1 FROM t1 ; -- tail`,
		"x'0F' || 'it''s' <= :hp ? <> 1.5E2 /* block */ .5",
		"'unterminated",
		`"unterminated`,
		"X'AB",
		"@",
		"",
		"SELECT naïve, 日本語, aé1_ FROM t",
		"ſelect :naïve FROM café",
		"SELECT a\xc3",
		"SELECT a\r\nFROM t\r\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lx.Scan(src)
		if err != nil {
			var lerr *lexer.Error
			if !errors.As(err, &lerr) {
				t.Fatalf("scan error is %T, want *lexer.Error: %v", err, err)
			}
			if lerr.Line < 1 || lerr.Col < 1 {
				t.Fatalf("unpositioned scan error: %+v", lerr)
			}
			return
		}
		prevLine, prevCol := 0, 0
		texts := make([]string, len(toks))
		for i, tok := range toks {
			if tok.Text == "" {
				t.Fatalf("token %d (%s) has empty text", i, tok.Name)
			}
			if tok.Line < prevLine || (tok.Line == prevLine && tok.Col <= prevCol) {
				t.Fatalf("token %d position %d:%d does not advance past %d:%d",
					i, tok.Line, tok.Col, prevLine, prevCol)
			}
			prevLine, prevCol = tok.Line, tok.Col
			texts[i] = tok.Text
		}
		rejoined := strings.Join(texts, " ")
		again, err := lx.Scan(rejoined)
		if err != nil {
			t.Fatalf("rejoined token texts failed to rescan: %q: %v", rejoined, err)
		}
		if len(again) != len(toks) {
			t.Fatalf("rescan count %d != %d for %q", len(again), len(toks), rejoined)
		}
		for i := range toks {
			if again[i].Name != toks[i].Name {
				t.Fatalf("rescan token %d is %s, was %s (input %q)",
					i, again[i].Name, toks[i].Name, rejoined)
			}
		}
	})
}
