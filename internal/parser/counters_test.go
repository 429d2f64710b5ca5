package parser

import (
	"testing"

	"sqlspl/internal/lexer"
)

// TestHotCounterDeltas pins what each interpreted entry point adds to the
// process-wide parser and lexer counters behind /metrics. The counters are
// shared by every parser in the process, so the test takes deltas and must
// not run in parallel with other parsing tests.
func TestHotCounterDeltas(t *testing.T) {
	mini := miniParser(t, Options{})
	script := scriptParser(t, Options{})
	cases := []struct {
		name   string
		run    func()
		parser Counters
		lexer  lexer.Counters
	}{
		{
			name:   "accepted Check",
			run:    func() { _ = mini.Check("SELECT name FROM users WHERE id = 7") },
			parser: Counters{Parses: 1, Tokens: 8},
			lexer:  lexer.Counters{Scans: 1, Tokens: 8},
		},
		{
			name:   "rejected Check",
			run:    func() { _ = mini.Check("SELECT FROM users") },
			parser: Counters{Parses: 1, Rejects: 1, ErrorPasses: 1, Tokens: 3},
			lexer:  lexer.Counters{Scans: 1, Tokens: 3},
		},
		{
			name:  "scan error",
			run:   func() { _ = mini.Check("SELECT name FROM users WHERE id = 'x") },
			lexer: lexer.Counters{Scans: 1, Errors: 1},
		},
		{
			name:  "empty Check",
			run:   func() { _ = mini.Check("  -- nothing\n") },
			lexer: lexer.Counters{Scans: 1},
		},
		{
			name:   "Parse",
			run:    func() { _, _ = mini.Parse("SELECT name FROM users") },
			parser: Counters{Parses: 1, Tokens: 4},
			lexer:  lexer.Counters{Scans: 1, Tokens: 4},
		},
		{
			name:   "rejected Parse",
			run:    func() { _, _ = mini.Parse("SELECT name FROM") },
			parser: Counters{Parses: 1, Rejects: 1, ErrorPasses: 1, Tokens: 3},
			lexer:  lexer.Counters{Scans: 1, Tokens: 3},
		},
		{
			name:   "Accepts",
			run:    func() { _ = mini.Accepts("SELECT name FROM users") },
			parser: Counters{Parses: 1, Tokens: 4},
			lexer:  lexer.Counters{Scans: 1, Tokens: 4},
		},
		{
			name:   "rejected Accepts",
			run:    func() { _ = mini.Accepts("SELECT name FROM") },
			parser: Counters{Parses: 1, Rejects: 1, Tokens: 3},
			lexer:  lexer.Counters{Scans: 1, Tokens: 3},
		},
		{
			// The whole-script verdict pass rejects, then recovery checks
			// each statement and runs the error pass on the broken one.
			name:   "ParseRecover, syntax error",
			run:    func() { _ = script.ParseRecover("SELECT FROM t; SELECT a FROM u") },
			parser: Counters{Parses: 1, Rejects: 2, ErrorPasses: 1, Tokens: 8, Recoveries: 1, Diagnostics: 1},
			lexer:  lexer.Counters{Scans: 1, Tokens: 8},
		},
		{
			// The whole-script scan fails; recovery rescans from the start,
			// fails at the same character, and resumes after the next ';'.
			name:   "ParseRecover, lexical error",
			run:    func() { _ = script.ParseRecover("SELECT # FROM t; SELECT a FROM u") },
			parser: Counters{Recoveries: 1, Diagnostics: 1},
			lexer:  lexer.Counters{Scans: 3, Errors: 2, Tokens: 4},
		},
	}
	for _, tc := range cases {
		p0, l0 := HotCounters(), lexer.HotCounters()
		tc.run()
		p1, l1 := HotCounters(), lexer.HotCounters()
		gotP := Counters{
			Parses:      p1.Parses - p0.Parses,
			Rejects:     p1.Rejects - p0.Rejects,
			ErrorPasses: p1.ErrorPasses - p0.ErrorPasses,
			Tokens:      p1.Tokens - p0.Tokens,
			Recoveries:  p1.Recoveries - p0.Recoveries,
			Diagnostics: p1.Diagnostics - p0.Diagnostics,
		}
		gotL := lexer.Counters{
			Scans:  l1.Scans - l0.Scans,
			Errors: l1.Errors - l0.Errors,
			Tokens: l1.Tokens - l0.Tokens,
		}
		if gotP != tc.parser {
			t.Errorf("%s: parser counters moved by %+v, want %+v", tc.name, gotP, tc.parser)
		}
		if gotL != tc.lexer {
			t.Errorf("%s: lexer counters moved by %+v, want %+v", tc.name, gotL, tc.lexer)
		}
	}
}
