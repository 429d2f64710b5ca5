// Extension: adding brand-new syntax to the product line without touching
// any base grammar — the language-extension use case the paper inherits
// from Bali ("language and extension grammars") and contrasts with
// MetaBorg in Related Work.
//
// We invent a vendor extension, the MySQL-style LIMIT clause, as a fresh
// feature: one sub-grammar, one token file, one feature diagram appended to
// the SQL:2003 model. Composition does the rest — the same mechanism that
// built TinySQL's sensor clauses works for user-supplied features.
//
// Run with: go run ./examples/extension
package main

import (
	"fmt"
	"log"

	"sqlspl/internal/compose"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/feature"
	"sqlspl/internal/grammar"
	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
)

// limitGrammar extends the query_statement base production with an optional
// limit clause. Composition replaces the base production because the new
// right-hand side contains it (the paper's replace rule).
const limitGrammar = `
grammar limit_clause ;
query_statement : query_expression ( order_by_clause )? ( limit_clause )? ;
limit_clause : LIMIT UNSIGNED_INTEGER ( OFFSET UNSIGNED_INTEGER )? ;
`

const limitTokens = `
tokens limit_clause ;
LIMIT : 'LIMIT' ;
OFFSET : 'OFFSET' ;
UNSIGNED_INTEGER : <integer> ;
`

// extendedSource resolves the new unit and defers everything else to the
// SQL:2003 registry.
type extendedSource struct {
	reg   sql2003.Registry
	extra map[string]compose.Unit
}

func (s extendedSource) Unit(name string) (compose.Unit, error) {
	if u, ok := s.extra[name]; ok {
		out := compose.Unit{Name: u.Name}
		if u.Grammar != nil {
			out.Grammar = u.Grammar.Clone()
		}
		if u.Tokens != nil {
			out.Tokens = u.Tokens.Clone()
		}
		return out, nil
	}
	return s.reg.Unit(name)
}

func main() {
	base := sql2003.MustModel()

	// A new one-feature diagram, appended to the Foundation model. The
	// limit feature requires the query-statement glue it extends.
	limitDiagram := feature.NewDiagram("vendor_extensions", "Vendor syntax extensions (example).",
		feature.New("limit_clause").
			Describe("MySQL-style LIMIT n [OFFSET m]").
			Provide("limit_clause"),
	)
	model, err := feature.NewModel("sql2003+vendor",
		append(append([]*feature.Diagram{}, base.Diagrams...), limitDiagram),
		append(append([]feature.Constraint{}, base.Constraints...),
			feature.Constraint{Kind: feature.Requires, A: "limit_clause", B: "query_statement_f"}),
	)
	if err != nil {
		log.Fatal(err)
	}

	src := extendedSource{extra: map[string]compose.Unit{
		"limit_clause": {
			Name:    "limit_clause",
			Grammar: grammar.MustParseGrammar(limitGrammar),
			Tokens:  grammar.MustParseTokens(limitTokens),
		},
	}}

	// Extended models get their own catalog: the default catalog serves the
	// stock SQL:2003 product line, this one serves sql2003+vendor. A real
	// deployment would hold one catalog per (model, unit source) pair and
	// let every tenant's selection build once.
	cat := product.NewCatalog(model, src)

	// Core dialect + the new feature.
	feats, err := dialect.Features(dialect.Core)
	if err != nil {
		log.Fatal(err)
	}
	selection := feature.NewConfig(append(feats, "limit_clause")...)
	// An extended selection has no pregenerated parser, so the engine seam
	// resolves the interpreted backend — extensions work the moment they
	// compose, no regeneration step required.
	extended, eng, err := cat.Resolve(selection, core.Options{Product: "core+limit"})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("core+limit: %d productions (LIMIT composed onto query_statement without editing it), engine: %s\n\n",
		extended.Grammar.Len(), eng.Info().Kind)
	fmt.Println(grammar.FormatProduction(extended.Grammar.Production("query_statement")))
	fmt.Println(grammar.FormatProduction(extended.Grammar.Production("limit_clause")))

	for _, q := range []string{
		"SELECT a FROM t ORDER BY a LIMIT 10",
		"SELECT a FROM t LIMIT 10 OFFSET 20",
		"SELECT a FROM t",
	} {
		if !eng.Accepts(q) {
			log.Fatalf("extended product rejected %q", q)
		}
		fmt.Printf("ACCEPT  %s\n", q)
	}

	// The unextended core product still rejects LIMIT — the extension lives
	// only in products that select the feature. (dialect.Build resolves
	// through the default catalog, so this is cached too.)
	plain, err := dialect.Build(dialect.Core)
	if err != nil {
		log.Fatal(err)
	}
	if plain.Accepts("SELECT a FROM t LIMIT 10") {
		log.Fatal("plain core unexpectedly accepts LIMIT")
	}
	fmt.Println("\nplain core still rejects LIMIT; and `SELECT limit FROM t` parses there,")
	fmt.Println("because LIMIT is only reserved where the feature is selected:")
	fmt.Printf("  plain core:  %v\n", plain.Accepts("SELECT limit FROM t"))
	fmt.Printf("  core+limit:  %v\n", eng.Accepts("SELECT limit FROM t"))
}
