// Command sqlinventory reproduces the paper's decomposition inventory
// (experiments E1-E3): "Overall 40 feature diagrams are obtained for SQL
// Foundation with more than 500 features."
//
// Usage:
//
//	sqlinventory                       # summary table, one row per diagram
//	sqlinventory -diagram table_expression   # render one diagram as a tree
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sqlspl/internal/configure"
	"sqlspl/internal/feature"
	"sqlspl/internal/sql2003"
)

func main() {
	var (
		diagram  = flag.String("diagram", "", "render the named feature diagram")
		bySchema = flag.Bool("by-schema-element", false, "group diagrams by the schema element they operate on (the paper's alternative classification)")
	)
	flag.Parse()

	m := sql2003.MustModel()

	if *bySchema {
		fmt.Printf("%-14s %9s  %s\n", "ELEMENT", "FEATURES", "DIAGRAMS")
		for _, g := range sql2003.SchemaElementView() {
			fmt.Printf("%-14s %9d  %s\n", g.Element, g.Features, strings.Join(g.Diagrams, ", "))
		}
		return
	}

	if *diagram != "" {
		for _, d := range m.Diagrams {
			if d.Name == *diagram {
				renderDiagram(d)
				return
			}
		}
		fmt.Fprintf(os.Stderr, "sqlinventory: no diagram %q\n", *diagram)
		os.Exit(1)
	}

	fmt.Printf("%-24s %9s %10s %12s  %s\n", "DIAGRAM", "FEATURES", "UNITS", "PRODUCTS", "DESCRIPTION")
	spaces := configure.New(m).Space() // in model order, one per diagram
	totalFeatures, totalUnits := 0, 0
	for i, d := range m.Diagrams {
		units := map[string]bool{}
		d.WalkFeatures(func(f *feature.Feature) {
			for _, u := range f.Units {
				units[u] = true
			}
		})
		fmt.Printf("%-24s %9d %10d %12d  %s\n", d.Name, d.Count(), len(units), spaces[i].Products, d.Doc)
		totalFeatures += d.Count()
		totalUnits += len(units)
	}
	fmt.Printf("%-24s %9d %10d\n", "TOTAL", totalFeatures, totalUnits)
	fmt.Printf("\n%d feature diagrams, %d features, %d grammar/token units, %d cross-tree constraints\n",
		len(m.Diagrams), m.FeatureCount(), len(sql2003.UnitNames()), len(m.Constraints))
	fmt.Printf("paper (Sunkle et al. 2008) reports: 40 diagrams, more than 500 features\n")
}

func renderDiagram(d *feature.Diagram) {
	fmt.Printf("%s — %s\n", d.Name, d.Doc)
	var walk func(f *feature.Feature, depth int)
	walk = func(f *feature.Feature, depth int) {
		var marks []string
		if f.Optional {
			marks = append(marks, "optional")
		} else if depth > 0 && f.Parent() != nil && f.Parent().Group == feature.And {
			marks = append(marks, "mandatory")
		}
		switch f.Group {
		case feature.Or:
			marks = append(marks, "or-group")
		case feature.Alternative:
			marks = append(marks, "alternative-group")
		}
		if f.HasCardinality() {
			marks = append(marks, f.CardinalityString())
		}
		if len(f.Units) > 0 {
			marks = append(marks, "units: "+strings.Join(f.Units, ","))
		}
		suffix := ""
		if len(marks) > 0 {
			suffix = "  [" + strings.Join(marks, "; ") + "]"
		}
		fmt.Printf("%s%s%s\n", strings.Repeat("  ", depth), f.Name, suffix)
		for _, c := range f.Children {
			walk(c, depth+1)
		}
	}
	walk(d.Root, 0)
}
