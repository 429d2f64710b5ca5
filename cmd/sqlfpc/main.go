// Command sqlfpc is the SQL feature-parser composer: the paper's
// user-facing workflow ("When a user selects different features, the
// required parser is created by composing these features") as a CLI.
//
// Usage:
//
//	sqlfpc -list                              # list features with docs
//	sqlfpc -dialect tinysql -grammar          # print a preset's composed grammar
//	sqlfpc -features query_specification,...  # compose a custom selection
//	sqlfpc -dialect minimal -emit minsql      # generate Go parser source
//	sqlfpc -dialect scql -tokens              # print the composed token file
//	sqlfpc -dialect core -check 'SELECT 1 FROM t'  # test a query
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"sqlspl/internal/codegen"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/feature"
	"sqlspl/internal/grammar"
	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list all features of the SQL:2003 model")
		dialectN    = flag.String("dialect", "", "preset dialect: minimal|tinysql|scql|core|warehouse|full")
		features    = flag.String("features", "", "comma-separated feature selection (alternative to -dialect)")
		printG      = flag.Bool("grammar", false, "print the composed grammar")
		printT      = flag.Bool("tokens", false, "print the composed token file")
		printSeq    = flag.Bool("sequence", false, "print the composition sequence")
		printE      = flag.Bool("erased", false, "print erased optional slots")
		stats       = flag.Bool("stats", false, "print product size statistics")
		emit        = flag.String("emit", "", "generate Go parser source as the named package")
		check       = flag.String("check", "", "parse the given SQL under the product and report")
		conflicts   = flag.Bool("conflicts", false, "report LL(1) prediction conflicts of the composed grammar")
		trace       = flag.Bool("trace", false, "trace composition decisions to stderr")
		interactive = flag.Bool("interactive", false, "interactive feature-selection session (the paper's envisioned UI)")
	)
	flag.Parse()

	if *list {
		listFeatures()
		return
	}
	if *interactive {
		if err := runInteractive(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	cfg, name, err := selection(*dialectN, *features)
	if err != nil {
		fatal(err)
	}
	opts := core.Options{Product: name}
	if *trace {
		opts.Trace = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "compose: "+format+"\n", args...)
		}
	}
	// Resolve through the catalog: a preset selection shares the cached
	// build with everything else in the process. (Trace still fires — the
	// request that builds is the one that traces, and a fresh CLI process
	// always builds cold.)
	cat := product.Default()
	product, err := cat.Get(cfg, opts)
	if err != nil {
		fatal(err)
	}

	did := false
	if *printSeq {
		fmt.Println(strings.Join(product.Sequence, " -> "))
		did = true
	}
	if *printG {
		fmt.Print(grammar.Format(product.Grammar))
		did = true
	}
	if *printT {
		fmt.Print(product.Tokens.String())
		did = true
	}
	if *printE {
		for _, e := range product.Erased {
			fmt.Println(e)
		}
		did = true
	}
	if *stats {
		s := product.Stats()
		fmt.Printf("product        %s\n", product.Name)
		fmt.Printf("features       %d\n", s.Features)
		fmt.Printf("units          %d\n", s.Units)
		fmt.Printf("productions    %d\n", s.Productions)
		fmt.Printf("alternatives   %d\n", s.Grammar.Alternatives)
		fmt.Printf("symbols        %d\n", s.Grammar.Symbols)
		fmt.Printf("tokens         %d\n", s.Tokens)
		fmt.Printf("keywords       %d\n", s.Keywords)
		fmt.Printf("erased slots   %d\n", len(product.Erased))
		did = true
	}
	if *conflicts {
		an := grammar.Analyze(product.Grammar)
		cs := an.LL1Conflicts()
		fmt.Printf("%d productions need backtracking beyond LL(1) prediction:\n", len(cs))
		for _, c := range cs {
			fmt.Println(" ", c)
		}
		did = true
	}
	if *emit != "" {
		src, err := codegen.Generate(product.Parser, *emit)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(src)
		did = true
	}
	if *check != "" {
		tree, err := product.Parse(*check)
		if err != nil {
			fmt.Printf("REJECT: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("ACCEPT")
		fmt.Print(tree.Dump())
		did = true
	}
	if !did {
		fmt.Printf("composed product %q: %d features -> %d units -> %d productions, %d tokens\n",
			product.Name, product.Config.Len(), len(product.Units),
			product.Grammar.Len(), product.Tokens.Len())
		fmt.Println("use -grammar, -tokens, -stats, -emit, -check, -sequence or -erased for output")
	}
}

func selection(dialectName, featureList string) (*feature.Config, string, error) {
	switch {
	case dialectName != "" && featureList != "":
		return nil, "", fmt.Errorf("use either -dialect or -features, not both")
	case dialectName != "":
		feats, err := dialect.Features(dialect.Name(dialectName))
		if err != nil {
			return nil, "", err
		}
		return feature.NewConfig(feats...), dialectName, nil
	case featureList != "":
		var feats []string
		for _, f := range strings.Split(featureList, ",") {
			if f = strings.TrimSpace(f); f != "" {
				feats = append(feats, f)
			}
		}
		return feature.NewConfig(feats...), "custom", nil
	}
	return nil, "", fmt.Errorf("select features with -dialect or -features (or use -list)")
}

func listFeatures() {
	m := sql2003.MustModel()
	for _, d := range m.Diagrams {
		fmt.Printf("%s — %s\n", d.Name, d.Doc)
		var walk func(f *feature.Feature, depth int)
		walk = func(f *feature.Feature, depth int) {
			marks := ""
			if f.Optional {
				marks += "?"
			}
			switch f.Group {
			case feature.Or:
				marks += " or-group"
			case feature.Alternative:
				marks += " alt-group"
			}
			if f.HasCardinality() {
				marks += " " + f.CardinalityString()
			}
			doc := ""
			if f.Doc != "" {
				doc = " — " + f.Doc
			}
			fmt.Printf("  %s%s%s%s\n", strings.Repeat("  ", depth), f.Name, marks, doc)
			kids := append([]*feature.Feature(nil), f.Children...)
			sort.SliceStable(kids, func(i, j int) bool { return false }) // keep declaration order
			for _, c := range kids {
				walk(c, depth+1)
			}
		}
		walk(d.Root, 1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sqlfpc:", err)
	os.Exit(1)
}
