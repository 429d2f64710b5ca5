package parser_test

// recover_match_test.go holds ParseRecover to the earlier two-pass
// recovery (parseRecoverRef, recover_ref_test.go) diagnostic for
// diagnostic: random scripts over the script grammar under each option
// set, the miniature dialect without a SEMICOLON token, and mutated
// workload scripts on every preset.

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"sqlspl/internal/dialect"
	"sqlspl/internal/grammar"
	"sqlspl/internal/parser"
	"sqlspl/internal/workload"
)

// matchSubject is one parser recovery is compared on.
type matchSubject struct {
	name string
	p    *parser.Parser
}

// matchSubjects are the small parsers of the comparison: the script
// grammar with the default options, a diagnostic cap of 3 and a token
// cap of 6, and the miniature SELECT dialect, which has no SEMICOLON
// token and so scans every ';' as a lexical error.
func matchSubjects(tb testing.TB) []matchSubject {
	tb.Helper()
	build := func(gsrc, tsrc string, opts parser.Options) *parser.Parser {
		p, err := parser.New(grammar.MustParseGrammar(gsrc), grammar.MustParseTokens(tsrc), opts)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	return []matchSubject{
		{"script", build(parser.ScriptGrammar, parser.ScriptTokens, parser.Options{})},
		{"script-maxdiag-3", build(parser.ScriptGrammar, parser.ScriptTokens, parser.Options{MaxDiagnostics: 3})},
		{"script-maxtokens-6", build(parser.ScriptGrammar, parser.ScriptTokens, parser.Options{MaxTokens: 6})},
		{"mini-no-semicolon", build(parser.MiniSelectGrammar, parser.MiniSelectTokens, parser.Options{})},
	}
}

// edgeScripts are the shapes recovery must get right on every subject:
// lexical errors mid-script and at end of input, unterminated strings and
// comments, ';' inside parentheses and strings, empty statements,
// trailing trivia, and statements long enough to pass a token cap of 6.
var edgeScripts = []string{
	"",
	";",
	";;",
	"  -- only trivia\n",
	"SELECT a FROM t",
	"SELECT a FROM t;",
	"SELECT FROM t",
	"SELECT FROM t;",
	"SELECT FROM t; -- trailing comment",
	"SELECT FROM t; SELECT b FROM u",
	"SELECT a FROM t; SELECT FROM u",
	"SELECT FROM t; SELECT FROM u; SELECT FROM v",
	"SELECT ( a ; b ) FROM t ; SELECT q FROM u",
	"SELECT ( a FROM t; SELECT b FROM u",
	"SELECT 'x;y' FROM t; SELECT FROM u",
	"SELECT @ FROM t ; SELECT a FROM t",
	"SELECT a FROM t ; SELECT @",
	"SELECT a FROM t ; @",
	"SELECT FROM ; @",
	"SELECT a FROM t ; SELECT 'oops",
	"SELECT a FROM t ; SELECT 'oops ; SELECT b FROM u",
	"SELECT a /* open ; SELECT b FROM u",
	"SELECT a FROM t /* closed ; */ ; SELECT FROM u",
	"SELECT @ t; SELECT @ u; SELECT c FROM w",
	"SELECT @ 'a;b' ; SELECT c FROM u",
	"SELECT a FROM t ; SELECT FROM u",
	"SELECT a FROM t WHERE b = 1; SELECT a FROM t WHERE b = 2; SELECT @",
	"SELECT a FROM t WHERE b = 1 ; SELECT FROM",
	"-- lead\nSELECT a FROM t;\n/* mid */ SELECT FROM",
	"SELECT a\r\nFROM t;\r\nSELECT @\r\nFROM u; SELECT b FROM",
	"SELECT naïve FROM t; SELECT \xff FROM u; SELECT FROM v",
	strings.Repeat("SELECT oops oops FROM ; ", 6),
	strings.Repeat("SELECT @ ; ", 6),
	strings.Repeat("SELECT FROM t; SELECT @ ; ", 25),
}

// scriptPieces are the lexemes random scripts are drawn from: the script
// grammar's words and punctuation, lexical errors, unterminated literals
// and comments, and trivia.
var scriptPieces = []string{
	"SELECT", "SELECT", "FROM", "FROM", "WHERE", "a", "b", "t", "x1", "1", "42",
	"'s'", "'a;b'", "''", "(", "(", ")", ")", ";", ";", ";", ";", "=",
	"@", "'open", "/* c */", "/* open", "/* ; */", "-- c\n", "\n", "\r\n", "\t",
	"naïve", "\xff", "select",
}

// scriptStatements seed the statement-shaped half of the random scripts.
var scriptStatements = []string{
	"SELECT a FROM t",
	"SELECT (b) FROM u WHERE c = 1",
	"SELECT 'x;y' FROM v",
	"SELECT ((1)) FROM w WHERE a = 'q'",
	"SELECT FROM t",
}

// randomScript returns a script of random lexemes or of statements joined
// with ';' and then broken by inserted lexemes and cut bytes.
func randomScript(rng *rand.Rand) string {
	var b strings.Builder
	seps := []string{" ", " ", " ", "", "\n"}
	if rng.IntN(2) == 0 {
		for range rng.IntN(25) {
			b.WriteString(scriptPieces[rng.IntN(len(scriptPieces))])
			b.WriteString(seps[rng.IntN(len(seps))])
		}
		return b.String()
	}
	for i := range 1 + rng.IntN(5) {
		if i > 0 {
			b.WriteString(";")
			b.WriteString(seps[rng.IntN(len(seps))])
		}
		b.WriteString(scriptStatements[rng.IntN(len(scriptStatements))])
	}
	if rng.IntN(3) == 0 {
		b.WriteString(";")
	}
	s := b.String()
	for range rng.IntN(3) {
		at := rng.IntN(len(s) + 1)
		if rng.IntN(4) == 0 {
			s = s[:at] + s[min(len(s), at+1+rng.IntN(4)):]
		} else {
			s = s[:at] + " " + scriptPieces[rng.IntN(len(scriptPieces))] + " " + s[at:]
		}
	}
	return s
}

// presetMutations are the breakages inserted into preset workload scripts.
var presetMutations = []string{" )", " @", " 'x", ";", " (", " FROM"}

// mutatedWorkloadScript joins one to six workload statements with ';' and
// inserts one to three mutations, each at a space or at the end of a
// statement.
func mutatedWorkloadScript(rng *rand.Rand, stmts []string) string {
	parts := make([]string, 1+rng.IntN(6))
	for i := range parts {
		parts[i] = stmts[rng.IntN(len(stmts))]
	}
	seps := []string{";", "; ", ";\n", " ;\n"}
	s := strings.Join(parts, seps[rng.IntN(len(seps))])
	for range 1 + rng.IntN(3) {
		var at []int
		for i := 0; i < len(s); i++ {
			if s[i] == ' ' || s[i] == ';' {
				at = append(at, i)
			}
		}
		at = append(at, len(s))
		i := at[rng.IntN(len(at))]
		s = s[:i] + presetMutations[rng.IntN(len(presetMutations))] + s[i:]
	}
	return s
}

func assertSameRecovery(t *testing.T, name string, p *parser.Parser, src string) {
	t.Helper()
	got, want := p.ParseRecover(src), parser.ParseRecoverRef(p, src)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ParseRecover(%q) diverges from the reference:\n got %+v\nwant %+v", name, src, got, want)
	}
}

func TestRecoverMatchesReference(t *testing.T) {
	scripts, perPreset := 200_000, 3_000
	if parser.RaceEnabled {
		// The race detector slows recovery about tenfold; the
		// uninstrumented run carries the full counts.
		scripts, perPreset = 10_000, 300
	}
	for _, s := range matchSubjects(t) {
		t.Run(s.name, func(t *testing.T) {
			for _, src := range edgeScripts {
				assertSameRecovery(t, s.name, s.p, src)
			}
			rng := rand.New(rand.NewPCG(1, uint64(len(s.name))))
			for range scripts {
				assertSameRecovery(t, s.name, s.p, randomScript(rng))
			}
		})
	}
	for i, name := range dialect.Names() {
		t.Run(string(name), func(t *testing.T) {
			prod, err := dialect.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			stmts, ok := workload.ForDialect(string(name), uint64(i+1), 200)
			if !ok {
				t.Fatalf("no workload for %s", name)
			}
			rng := rand.New(rand.NewPCG(2, uint64(i)))
			for range perPreset {
				assertSameRecovery(t, string(name), prod.Parser, mutatedWorkloadScript(rng, stmts))
			}
		})
	}
}

// FuzzRecoverMatchesReference holds ParseRecover to the reference on
// arbitrary scripts, for each small subject and the token-capped core
// preset.
func FuzzRecoverMatchesReference(f *testing.F) {
	subjects := matchSubjects(f)
	prod, err := fuzzProduct()
	if err != nil {
		f.Fatal(err)
	}
	subjects = append(subjects, matchSubject{"core", prod.Parser})
	for i, src := range edgeScripts {
		f.Add(src, uint8(i))
	}
	f.Fuzz(func(t *testing.T, src string, which uint8) {
		if len(src) > 2048 {
			t.Skip("oversized input")
		}
		s := subjects[int(which)%len(subjects)]
		assertSameRecovery(t, s.name, s.p, src)
	})
}
