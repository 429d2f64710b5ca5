// Quickstart: the paper's Section 3.2 worked example, end to end.
//
// We select the features of the instance description
//
//	{Query Specification, Select List, Select Sublist, Table Expression}
//	with {Table Expression, From, Table Reference}
//	plus the optional Set Quantifier and Where features,
//
// compose their sub-grammars and token files, generate a parser, and show
// that it parses precisely that dialect: single-column, single-table SELECT
// with optional DISTINCT/ALL and optional WHERE.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sqlspl/internal/core"
	"sqlspl/internal/feature"
	"sqlspl/internal/grammar"
	"sqlspl/internal/product"
)

func main() {
	// Step 1 (paper): "A feature tree of the SELECT statement presents
	// various features of the statement to the user. Selection of different
	// subfeatures ... is equivalent to creating a feature instance
	// description."
	selection := feature.NewConfig(
		// Figure 1: Query Specification with Select List -> Select Sublist.
		"query_specification", "select_list", "select_columns", "derived_column",
		// The optional Set Quantifier feature (DISTINCT | ALL).
		"set_quantifier", "quantifier_all", "quantifier_distinct",
		// Figure 2: Table Expression with mandatory From, optional Where.
		"table_expression", "from", "where",
		// What a WHERE condition needs: conditions, one comparison operator,
		// value expressions, identifiers, and literals.
		"search_condition", "predicate", "comparison", "op_equals",
		"value_expression", "identifier_chain",
		"literal", "numeric_literal", "string_literal",
	)

	// Steps 2-3 (paper): compose the sub-grammars and token files of the
	// selected features, then create the parser for the composed grammar.
	// We go through the product catalog — the serving-layer entry point —
	// so an identical selection anywhere in the process reuses this build.
	cat := product.Default()
	worked, err := cat.Get(selection, core.Options{Product: "worked-example"})
	if err != nil {
		log.Fatal(err)
	}

	// Asking again is a catalog hit: same *core.Product, no recomposition.
	again, err := cat.Get(selection, core.Options{Product: "worked-example"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalog: %d entries, warm lookup returned the same product: %v\n",
		cat.Len(), worked == again)

	// The serving surface parses through the engine seam rather than the
	// product directly. An ad-hoc selection like this one has no
	// pregenerated parser, so the catalog resolves the interpreted engine;
	// the preset dialects promote to generated backends (see the other
	// examples).
	_, eng, err := cat.Resolve(selection, core.Options{Product: "worked-example"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine: %s/%s\n", eng.Info().Product, eng.Info().Kind)

	fmt.Printf("composed %d features -> %d sub-grammars -> %d productions, %d reserved words\n\n",
		worked.Config.Len(), len(worked.Units), worked.Grammar.Len(),
		len(worked.Tokens.Keywords()))

	fmt.Println("== composed grammar ==")
	fmt.Println(grammar.Format(worked.Grammar))

	fmt.Println("== the product parses precisely the selected features ==")
	queries := []string{
		"SELECT a FROM t",
		"SELECT DISTINCT a FROM t",
		"SELECT a FROM t WHERE b = 1",
		"SELECT DISTINCT a FROM t WHERE b = 'x'",
		"SELECT a, b FROM t",          // multiple columns: not selected
		"SELECT * FROM t",             // asterisk: not selected
		"SELECT a FROM t ORDER BY a",  // ORDER BY: not selected
		"SELECT a FROM t WHERE b < 1", // only = was selected
	}
	for _, q := range queries {
		verdict := "ACCEPT"
		if !eng.Accepts(q) {
			verdict = "reject"
		}
		fmt.Printf("  %-42s %s\n", q, verdict)
	}

	fmt.Println("\n== parse tree for the headline query ==")
	tree, err := eng.Parse("SELECT DISTINCT a FROM t WHERE b = 1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tree.Dump())
}
