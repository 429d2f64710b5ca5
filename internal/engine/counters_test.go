package engine_test

import (
	"testing"

	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
)

// TestHotCounterDeltas pins what each Engine call adds to the seam
// counters behind /metrics, on both backends and on accepted and rejected
// input: Parse, Check and Diagnose move exactly one counter for their
// kind (a generated Diagnose also moves the fallback counter), Accepts
// moves none, and nothing else moves. The counters are process-wide, so
// the test takes deltas and must not run in parallel with other engine
// calls.
func TestHotCounterDeltas(t *testing.T) {
	gen, interp := enginePair(t, dialect.Core)
	const accepted, rejected = "SELECT a FROM t WHERE b = 1", "SELECT FROM t"
	if gen.Check(rejected) == nil {
		t.Fatalf("%q checks clean; the reject cases need a rejected input", rejected)
	}
	calls := []struct {
		name        string
		run         func(e engine.Engine, sql string)
		gen, interp engine.Counters
	}{
		{
			name:   "Parse",
			run:    func(e engine.Engine, sql string) { _, _ = e.Parse(sql) },
			gen:    engine.Counters{GenParses: 1},
			interp: engine.Counters{InterpParses: 1},
		},
		{
			name:   "Check",
			run:    func(e engine.Engine, sql string) { _ = e.Check(sql) },
			gen:    engine.Counters{GenChecks: 1},
			interp: engine.Counters{InterpChecks: 1},
		},
		{
			name: "Accepts",
			run:  func(e engine.Engine, sql string) { _ = e.Accepts(sql) },
		},
		{
			name:   "Diagnose",
			run:    func(e engine.Engine, sql string) { _ = e.Diagnose(sql) },
			gen:    engine.Counters{Diagnoses: 1, DiagFallbacks: 1},
			interp: engine.Counters{Diagnoses: 1},
		},
	}
	for _, c := range calls {
		for _, k := range []struct {
			eng  engine.Engine
			want engine.Counters
		}{{gen, c.gen}, {interp, c.interp}} {
			for _, sql := range []string{accepted, rejected} {
				before := engine.HotCounters()
				c.run(k.eng, sql)
				if got := delta(before, engine.HotCounters()); got != k.want {
					t.Errorf("%s %s(%q): delta %+v, want %+v", k.eng.Info().Kind, c.name, sql, got, k.want)
				}
			}
		}
	}
}

// delta subtracts two counter snapshots field by field.
func delta(a, b engine.Counters) engine.Counters {
	return engine.Counters{
		GenParses:     b.GenParses - a.GenParses,
		GenChecks:     b.GenChecks - a.GenChecks,
		InterpParses:  b.InterpParses - a.InterpParses,
		InterpChecks:  b.InterpChecks - a.InterpChecks,
		Diagnoses:     b.Diagnoses - a.Diagnoses,
		DiagFallbacks: b.DiagFallbacks - a.DiagFallbacks,
		StaleSkips:    b.StaleSkips - a.StaleSkips,
	}
}
