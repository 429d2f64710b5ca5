package dialect

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sqlspl/internal/grammar"
)

// TestConflictsGolden pins the grammar analysis a build computes once:
// for every preset, the analysis grammar.Validate returns carries the
// nullable and FIRST sets grammar.Analyze computes, and its LL(1)
// conflict report — what sqlfpc -conflicts prints — matches the golden
// file. Refresh with UPDATE_GOLDEN=1 go test ./internal/dialect -run Golden.
func TestConflictsGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range Names() {
		p, err := Build(name)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		an, err := grammar.Validate(p.Grammar, p.Tokens)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := grammar.Analyze(p.Grammar)
		if !reflect.DeepEqual(an.Nullable, want.Nullable) || !reflect.DeepEqual(an.First, want.First) {
			t.Errorf("%s: the analysis Validate returns differs from Analyze's", name)
		}
		cs := an.LL1Conflicts()
		fmt.Fprintf(&b, "%s: %d productions need backtracking beyond LL(1) prediction:\n", name, len(cs))
		for _, c := range cs {
			fmt.Fprintln(&b, " ", c)
		}
	}
	matchGolden(t, "conflicts.golden", b.String())
}
