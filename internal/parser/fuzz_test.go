package parser_test

import (
	"strings"
	"sync"
	"testing"

	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/feature"
	"sqlspl/internal/parser"
)

// fuzzProduct builds the core dialect once per process with a token cap so
// pathological fuzz inputs cannot blow up the parse stack or run unbounded.
var fuzzProduct = sync.OnceValues(func() (*core.Product, error) {
	feats, err := dialect.Features(dialect.Core)
	if err != nil {
		return nil, err
	}
	return dialect.Catalog().Get(feature.NewConfig(feats...), core.Options{
		Product: "fuzz-core",
		Parser:  parser.Options{MaxTokens: 512},
	})
})

// FuzzParse drives the composed core-dialect parser with arbitrary input.
// Contract: no panics; rejections carry an error; accepted inputs that
// scan to at least one token have tree text; and accepted inputs
// round-trip — the parse tree's token text must itself parse (the property
// the sentence generator's space-joined rendering relies on).
func FuzzParse(f *testing.F) {
	p, err := fuzzProduct()
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT t . a AS x , COUNT ( * ) FROM t , u WHERE a = 1 GROUP BY a HAVING COUNT ( * ) > 2 ORDER BY x DESC ;",
		"INSERT INTO t ( a , b ) VALUES ( 1 , 'x' ) , ( 2 , DEFAULT )",
		"UPDATE t SET a = a + 1 WHERE a IN ( SELECT b FROM u )",
		"CREATE TABLE t ( a INTEGER PRIMARY KEY , b VARCHAR ( 10 ) )",
		"SELECT CASE WHEN a = 1 THEN 'one' ELSE 'many' END FROM t",
		"SELECT FROM",
		"1 2 3",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			t.Skip("oversized input")
		}
		tree, err := p.Parse(src)
		if err != nil {
			return
		}
		// Input that scans to no tokens (blank or comment-only) parses to
		// the documented empty tree; any other accepted input has text.
		text := tree.Text()
		if toks, _ := p.Parser.Lexer().Scan(src); len(toks) > 0 && strings.TrimSpace(text) == "" {
			t.Fatalf("accepted input %q of %d tokens but tree text is empty", src, len(toks))
		}
		if _, err := p.Parse(text); err != nil {
			t.Fatalf("round-trip failed: %q parsed but its tree text %q does not: %v",
				src, text, err)
		}
	})
}

// FuzzParseRecover drives statement-level error recovery with arbitrary
// scripts. Contract: no panics; diagnostics agree with Check (a script is
// clean if and only if recovery reports nothing); diagnostics are sorted by
// span, non-overlapping at statement granularity, in bounds, and capped at
// MaxDiagnostics plus one TooManyErrors sentinel.
func FuzzParseRecover(f *testing.F) {
	p, err := fuzzProduct()
	if err != nil {
		f.Fatal(err)
	}
	// Known-good statements (the FuzzParse corpus shape) with injected
	// mutations — dropped keywords, stray punctuation, unterminated
	// literals, a bad character — combined into multi-statement scripts.
	good := []string{
		"SELECT a FROM t",
		"UPDATE t SET a = a + 1 WHERE a IN ( SELECT b FROM u )",
		"INSERT INTO t ( a , b ) VALUES ( 1 , 'x' )",
	}
	mutants := []string{
		"SELECT FROM t",           // dropped select list
		"SELECT a FROM",           // dropped table
		"SELECT ( a ; b FROM t",   // unbalanced paren guarding a ';'
		"SELECT a FROM t WHERE @", // lexical error
		"SELECT 'unterminated",    // swallows the rest of the line
	}
	f.Add("")
	f.Add(";")
	f.Add("-- comment only\n")
	for _, g := range good {
		for _, m := range mutants {
			f.Add(g + " ;\n" + m + " ;\n" + g)
			f.Add(m + ";" + m)
		}
	}
	f.Add(strings.Repeat("SELECT oops oops FROM ; ", 25)) // past the cap
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			t.Skip("oversized input")
		}
		diags := p.Parser.ParseRecover(src)
		if err := p.Check(src); err == nil {
			if len(diags) != 0 {
				t.Fatalf("clean input %q produced diagnostics %v", src, diags)
			}
			return
		}
		if len(diags) == 0 {
			t.Fatalf("rejected input %q produced no diagnostics", src)
		}
		if len(diags) > parser.DefaultMaxDiagnostics+1 {
			t.Fatalf("%d diagnostics exceed cap+sentinel", len(diags))
		}
		for i := range diags {
			d := &diags[i]
			if d.Span.Start < 0 || d.Span.End > len(src) || d.Span.End < d.Span.Start {
				t.Fatalf("diag %d: span %+v out of bounds for %q", i, d.Span, src)
			}
			if d.Span.Line < 1 || d.Span.Col < 1 {
				t.Fatalf("diag %d: non-positive position %d:%d", i, d.Span.Line, d.Span.Col)
			}
			if i > 0 && d.Span.Start < diags[i-1].Span.End {
				t.Fatalf("diag %d overlaps previous (%+v after %+v) for %q",
					i, d.Span, diags[i-1].Span, src)
			}
			if d.Hint == parser.TooManyErrors && i != len(diags)-1 {
				t.Fatalf("sentinel at %d of %d", i, len(diags))
			}
			_ = d.Message()
			_ = d.Render(src)
		}
	})
}
