package dialect

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sqlspl/internal/grammar"
)

// TestConflictsGolden pins the grammar analysis a build computes once:
// for every preset, the analysis grammar.Validate returns carries the
// nullable and FIRST sets grammar.Analyze computes, and its LL(1)
// conflict report — what sqlfpc -conflicts prints, and the one reader of
// the FOLLOW sets it computes on demand — matches the golden file.
// Refresh with UPDATE_GOLDEN=1 go test ./internal/dialect -run Golden.
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
		for _, prod := range p.Grammar.Productions() {
			if an.Nullable(prod.Name) != want.Nullable(prod.Name) || !slices.Equal(an.First(prod.Name), want.First(prod.Name)) {
				t.Errorf("%s: the analysis Validate returns differs from Analyze's at %s", name, prod.Name)
			}
		}
		cs := an.LL1Conflicts()
		fmt.Fprintf(&b, "%s: %d productions need backtracking beyond LL(1) prediction:\n", name, len(cs))
		for _, c := range cs {
			fmt.Fprintln(&b, " ", c)
		}
	}
	matchGolden(t, "conflicts.golden", b.String())
}
