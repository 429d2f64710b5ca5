// Engine-seam tests: promotion, staleness, and — the load-bearing part —
// differential equivalence of the generated and interpreted backends over
// every shipped preset. The generated parsers are not trusted to agree
// with the interpreter by construction; these tests make agreement a
// regression gate.
package engine_test

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sqlspl/internal/codegen/rt"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
	"sqlspl/internal/parser"
	"sqlspl/internal/product"
	"sqlspl/internal/sentence"
	"sqlspl/internal/workload"

	// Link the pregenerated preset parsers under test.
	_ "sqlspl/internal/engine/generated"
)

// enginePair resolves both backends for a preset: the promoted generated
// engine and an interpreted engine over the same product.
func enginePair(t *testing.T, name dialect.Name) (gen, interp engine.Engine) {
	t.Helper()
	p, err := dialect.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := dialect.Features(name)
	if err != nil {
		t.Fatal(err)
	}
	fp := product.Fingerprint(feature.NewConfig(feats...), core.Options{Product: string(name)})
	eng, promoted := engine.ForProduct(p, fp)
	if !promoted {
		t.Fatalf("preset %s did not promote to its generated engine", name)
	}
	return eng, engine.Interpreted(p, fp)
}

// TestPresetPromotion: every shipped preset has a registered, current
// generated parser and promotes through ForProduct.
func TestPresetPromotion(t *testing.T) {
	if got, want := len(engine.Registered()), len(dialect.Names()); got != want {
		t.Fatalf("registered %d generated parsers, want %d (one per preset)", got, want)
	}
	for _, name := range dialect.Names() {
		gen, interp := enginePair(t, name)
		if gen.Info().Kind != engine.KindGenerated {
			t.Errorf("%s: promoted engine kind = %s, want generated", name, gen.Info().Kind)
		}
		if gen.Info().Product != string(name) {
			t.Errorf("%s: promoted engine product = %q", name, gen.Info().Product)
		}
		if interp.Info().Kind != engine.KindInterpreted {
			t.Errorf("%s: interpreted engine kind = %s", name, interp.Info().Kind)
		}
	}
}

// corpus assembles the differential inputs for one preset: grammar-derived
// sentences (mostly accepted), the preset's workload generator when one
// exists, and a fixed tail of rejects and degenerate inputs. Mutated
// sentences (token dropped) exercise the reject path with near-miss
// inputs, where engine disagreement is most likely.
func corpus(t *testing.T, name dialect.Name) []string {
	t.Helper()
	p, err := dialect.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := sentence.New(p.Grammar, p.Tokens, sentence.Options{Seed: 7, MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	qs := gen.Generate(120)
	if wl, ok := workload.ForDialect(string(name), 11, 60); ok {
		qs = append(qs, wl...)
	}
	for _, s := range gen.Generate(40) {
		if len(s) > 8 {
			qs = append(qs, s[:len(s)/2]) // truncation: near-miss rejects
		}
	}
	return append(qs,
		"",
		"   ",
		"-- comment only\n",
		"/* block */ -- and line",
		"SELECT",
		"SELECT FROM",
		"garbage input ;;;",
		"SELECT a FROM t WHERE",
		"'unterminated string",
	)
}

// TestDifferentialEngines: on every preset, the generated and interpreted
// engines agree on the verdict, the check error, the parse error, and the
// full parse tree of every corpus input.
func TestDifferentialEngines(t *testing.T) {
	for _, name := range dialect.Names() {
		t.Run(string(name), func(t *testing.T) {
			gen, interp := enginePair(t, name)
			for _, q := range corpus(t, name) {
				if g, i := gen.Accepts(q), interp.Accepts(q); g != i {
					t.Errorf("Accepts(%q): generated=%v interpreted=%v", q, g, i)
					continue
				}
				gc, ic := gen.Check(q), interp.Check(q)
				if (gc == nil) != (ic == nil) {
					t.Errorf("Check(%q): generated=%v interpreted=%v", q, gc, ic)
					continue
				}
				if gc != nil && gc.Error() != ic.Error() {
					t.Errorf("Check(%q):\n  generated:   %v\n  interpreted: %v", q, gc, ic)
				}
				gt, gerr := gen.Parse(q)
				it, ierr := interp.Parse(q)
				if (gerr == nil) != (ierr == nil) {
					t.Errorf("Parse(%q): generated err=%v interpreted err=%v", q, gerr, ierr)
					continue
				}
				if gerr != nil {
					if gerr.Error() != ierr.Error() {
						t.Errorf("Parse(%q) error:\n  generated:   %v\n  interpreted: %v", q, gerr, ierr)
					}
					continue
				}
				if gd, id := gt.Dump(), it.Dump(); gd != id {
					t.Errorf("Parse(%q) trees differ:\n-- generated --\n%s\n-- interpreted --\n%s", q, gd, id)
				}
			}
		})
	}
}

// TestSyntaxErrorParity pins the structured-diagnostic fields — byte-offset
// spans, line/col, found token, expected set — that the wire format
// exposes, not just the rendered message.
func TestSyntaxErrorParity(t *testing.T) {
	gen, interp := enginePair(t, dialect.Core)
	inputs := []string{
		"SELECT a FROM",              // EOF: span points past the last token
		"SELECT a FROM t WHERE b ==", // bad operator tail
		"SELECT a b c FROM t",        // mid-statement junk
		"INSERT INTO t",              // statement prefix
		"SELECT a FROM t GROUP 1",    // keyword expected
	}
	for _, q := range inputs {
		var gsyn, isyn *parser.SyntaxError
		gerr, ierr := gen.Check(q), interp.Check(q)
		if !errors.As(gerr, &gsyn) || !errors.As(ierr, &isyn) {
			t.Errorf("Check(%q): expected *parser.SyntaxError from both, got %T / %T", q, gerr, ierr)
			continue
		}
		if gsyn.Span != isyn.Span || gsyn.Line != isyn.Line || gsyn.Col != isyn.Col {
			t.Errorf("Check(%q) position: generated span=%+v line=%d col=%d, interpreted span=%+v line=%d col=%d",
				q, gsyn.Span, gsyn.Line, gsyn.Col, isyn.Span, isyn.Line, isyn.Col)
		}
		if gsyn.Found != isyn.Found {
			t.Errorf("Check(%q) found: generated %q, interpreted %q", q, gsyn.Found, isyn.Found)
		}
		if !reflect.DeepEqual(gsyn.Expected, isyn.Expected) {
			t.Errorf("Check(%q) expected set:\n  generated:   %v\n  interpreted: %v", q, gsyn.Expected, isyn.Expected)
		}
	}
}

// TestDegenerateInputSemantics pins the empty/comment-only contract on the
// generated backend directly: Parse yields the bare start-symbol node,
// Check is clean, Accepts stays strict.
func TestDegenerateInputSemantics(t *testing.T) {
	gen, _ := enginePair(t, dialect.Minimal)
	for _, q := range []string{"", "   \n\t", "-- just a comment\n", "/* block */"} {
		tree, err := gen.Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		if tree == nil || len(tree.Children) != 0 || tree.Label == "" {
			t.Errorf("Parse(%q) = %+v, want bare start-symbol node", q, tree)
		}
		if err := gen.Check(q); err != nil {
			t.Errorf("Check(%q): %v", q, err)
		}
		if gen.Accepts(q) {
			t.Errorf("Accepts(%q) = true, want strict false on empty input", q)
		}
	}
}

// TestStaleRegistrationFallsBack: a registered parser that is not the
// built product's own must not be promoted, however it differs: a parser
// with no tables, and core's own tables with the keyword Slots ring
// rotated by one slot, as a changed keyword hash leaves a literal printed
// before the change. Neither scans the probe's keywords, so serving
// either would reject it.
func TestStaleRegistrationFallsBack(t *testing.T) {
	p, err := dialect.Build(dialect.Core)
	if err != nil {
		t.Fatal(err)
	}
	own := p.Parser.Parser
	rotated := append(slices.Clone(own.Keywords.Slots[1:]), own.Keywords.Slots[0])
	const probe = "SELECT a FROM t"
	for _, c := range []struct {
		name   string
		parser *rt.Parser
	}{
		{"empty", &rt.Parser{}},
		{"rotated-keyword-ring", &rt.Parser{
			Keywords:  rt.KeywordTable{Words: own.Keywords.Words, Slots: rotated, MaxLen: own.Keywords.MaxLen},
			Puncts:    own.Puncts,
			Classes:   own.Classes,
			Displays:  own.Displays,
			Program:   own.Program,
			MaxTokens: own.MaxTokens,
		}},
	} {
		if c.parser.Program != nil && c.parser.Accepts(probe) {
			t.Fatalf("%s: the stale parser accepts %q, so the probe cannot tell it from a current one", c.name, probe)
		}
		fp := "test-stale-" + c.name
		engine.Register(engine.Generated{Preset: "stale-test", Fingerprint: fp, Parser: c.parser})
		t.Cleanup(func() { engine.Unregister(fp) })
		before := engine.HotCounters().StaleSkips
		eng, promoted := engine.ForProduct(p, fp)
		if promoted {
			t.Fatalf("%s: stale registration was promoted", c.name)
		}
		if eng.Info().Kind != engine.KindInterpreted {
			t.Fatalf("%s: fallback engine kind = %s", c.name, eng.Info().Kind)
		}
		if got := engine.HotCounters().StaleSkips; got != before+1 {
			t.Errorf("%s: StaleSkips = %d, want %d", c.name, got, before+1)
		}
		if !eng.Accepts(probe) {
			t.Errorf("%s: fallback engine does not serve", c.name)
		}
	}
}

// TestDiagnoseFallback: generated engines delegate statement recovery to
// the interpreted parser and count the delegation.
func TestDiagnoseFallback(t *testing.T) {
	gen, interp := enginePair(t, dialect.Core)
	const script = "SELECT a FROM t; SELECT FROM; DELETE FROM t WHERE"
	before := engine.HotCounters().DiagFallbacks
	gd := gen.Diagnose(script)
	if got := engine.HotCounters().DiagFallbacks; got != before+1 {
		t.Errorf("DiagFallbacks = %d, want %d", got, before+1)
	}
	id := interp.Diagnose(script)
	if len(gd) == 0 {
		t.Fatal("Diagnose returned no diagnostics for a failing script")
	}
	if !reflect.DeepEqual(gd, id) {
		t.Errorf("Diagnose diverged:\n  generated:   %+v\n  interpreted: %+v", gd, id)
	}
}

// TestDiagnoseParityBrokenScripts extends the differential suite from
// single-error inputs to statement recovery over multi-statement broken
// scripts: on every preset, the generated engine must reproduce the
// interpreter's recovery output field-for-field — spans, hint text,
// expected sets — including the TooManyErrors sentinel once the
// diagnostic cap trips.
func TestDiagnoseParityBrokenScripts(t *testing.T) {
	capScript := strings.Repeat("SELECT oops oops FROM ; ", parser.DefaultMaxDiagnostics+5)
	scripts := []string{
		"SELECT a FROM t; SELECT FROM; SELECT b FROM u WHERE", // two failures around a clean statement
		"garbage here; SELECT a FROM t;;; WHERE x",            // leading junk, empty statements, dangling clause
		"SELECT 'unterminated\n; SELECT a FROM t",             // lexical failure, then recovery resyncs
		"SELECT a b FROM t; UPDATE t SET; SELECT * FROM",      // mixed statement kinds
		capScript,
	}
	for _, name := range dialect.Names() {
		t.Run(string(name), func(t *testing.T) {
			gen, interp := enginePair(t, name)
			for _, script := range scripts {
				gd, id := gen.Diagnose(script), interp.Diagnose(script)
				if !reflect.DeepEqual(gd, id) {
					t.Errorf("Diagnose(%.60q...) diverged:\n  generated:   %+v\n  interpreted: %+v",
						script, gd, id)
				}
			}
			// The cap script fails on every statement, so recovery must
			// stop at the cap and append the sentinel as its last entry.
			gd := gen.Diagnose(capScript)
			if len(gd) != parser.DefaultMaxDiagnostics+1 {
				t.Fatalf("cap script produced %d diagnostics, want %d + sentinel",
					len(gd), parser.DefaultMaxDiagnostics)
			}
			if last := gd[len(gd)-1]; last.Hint != parser.TooManyErrors {
				t.Errorf("last diagnostic hint = %q, want TooManyErrors sentinel", last.Hint)
			}
		})
	}
}

// TestGeneratedCheckAllocationBudget pins the acceptance criterion: the
// generated verdict path runs allocation-free once its pooled run state
// has warmed, for every preset.
func TestGeneratedCheckAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, name := range dialect.Names() {
		gen, _ := enginePair(t, name)
		q, ok := warmQueries[string(name)]
		if !ok {
			t.Fatalf("no warm query for preset %s", name)
		}
		if err := gen.Check(q); err != nil {
			t.Fatalf("%s: warm query rejected: %v", name, err)
		}
		for i := 0; i < 5; i++ {
			gen.Check(q) // warm the run pool
		}
		if allocs := testing.AllocsPerRun(300, func() {
			if err := gen.Check(q); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}); allocs != 0 {
			t.Errorf("%s: generated Check allocates %.2f allocs/op, want 0", name, allocs)
		}
	}
}
