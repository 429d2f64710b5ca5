package parser_test

import (
	"errors"
	"reflect"
	"testing"

	"sqlspl/internal/dialect"
	"sqlspl/internal/parser"
)

// TestRecoverSingleStatementMatchesCheck: a rejected script of one
// statement is one recovery segment, so ParseRecover reports exactly one
// diagnostic and it is Check's syntax error — same span, found token and
// expected set, no hint — on every preset, whether the error is at the
// start, in the middle or at end of input, and whatever trails the
// statement.
func TestRecoverSingleStatementMatchesCheck(t *testing.T) {
	stmts := []string{
		"FROM t",               // at the start
		"SELECT a FROM FROM t", // in the middle
		"SELECT ( a FROM t",    // in the middle, inside parentheses
		"SELECT a FROM",        // at end of input
	}
	trails := []string{"", ";", " ;", " -- trailing comment", "; -- trailing comment", " /* trailing */"}
	for _, name := range dialect.Names() {
		p, err := dialect.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, stmt := range stmts {
			for _, trail := range trails {
				src := stmt + trail
				if _, err := p.Parser.Lexer().Scan(src); err != nil {
					// A dialect composed without the SEMICOLON token scans
					// ';' as a lexical error: recovery's scan path, not a
					// single segment.
					continue
				}
				var se *parser.SyntaxError
				if err := p.Check(src); !errors.As(err, &se) {
					t.Fatalf("%s: Check(%q) = %v, want a syntax error", name, src, err)
				}
				want := parser.Diagnostic{Span: se.Span, Got: se.Found, Expected: se.Expected}
				if diags := p.Diagnose(src); len(diags) != 1 || !reflect.DeepEqual(diags[0], want) {
					t.Errorf("%s: ParseRecover(%q) = %+v, want exactly %+v", name, src, diags, want)
				}
				checked++
			}
		}
		if checked < len(stmts)*2 {
			t.Errorf("%s: only %d inputs scanned cleanly", name, checked)
		}
	}
}
