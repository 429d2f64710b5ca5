// Package core implements the paper's primary contribution: generating a
// customizable SQL parser from a feature selection.
//
// The pipeline mirrors the three steps of Section 3.2:
//
//  1. The user produces a feature-instance description (a feature.Config)
//     by selecting features from the SQL:2003 feature model — optionally
//     letting Close complete it mechanically.
//  2. The selection is validated, the composition sequence is resolved, and
//     the selected features' sub-grammars and token files are composed into
//     one LL(k) grammar and one token set (package compose). Optional slots
//     left dangling by unselected features are erased.
//  3. A parser is generated for the composed grammar (package parser): it
//     parses precisely the selected features' syntax.
package core

import (
	"fmt"
	"sort"

	"sqlspl/internal/compose"
	"sqlspl/internal/feature"
	"sqlspl/internal/grammar"
	"sqlspl/internal/parser"
)

// UnitSource resolves unit names (from feature.Feature.Units) to parsed
// sub-grammar/token units. Package sql2003's Registry is the standard
// implementation; tests may supply their own.
type UnitSource interface {
	Unit(name string) (compose.Unit, error)
}

// Options configures Build. The zero value is the paper-faithful default:
// strict composition ordering, automatic configuration closure, erasure on.
type Options struct {
	// Product names the resulting grammar/token set; defaults to "product".
	Product string
	// Start overrides the start symbol of the composed grammar. Empty means
	// the first composed unit's start symbol (composition order).
	Start string
	// NoAutoClose disables feature.Model.Close before validation; the
	// configuration must then be complete already.
	NoAutoClose bool
	// LenientOrder disables the paper's strict composition-order check
	// (compose.Options.StrictOrder).
	LenientOrder bool
	// NoErasure disables erasure of optional slots referencing unselected
	// features (ablation 2 in EXPERIMENTS.md). Most partial configurations
	// fail validation without it.
	NoErasure bool
	// KeepUnreachable retains productions not reachable from the start
	// symbol. By default they are pruned: shared helper rules (name lists,
	// signed integers, …) arrive with units whose other productions were
	// erased, and embedded products should not carry them.
	KeepUnreachable bool
	// Trace receives composition decisions (sqlfpc -trace).
	Trace func(format string, args ...any)
	// Parser tunes the generated parse engine.
	Parser parser.Options
}

// Product is a generated parser product: the paper's output artifact for
// one feature-instance description.
type Product struct {
	// Name is the product name.
	Name string
	// Config is the validated (closed) feature-instance description.
	Config *feature.Config
	// Sequence is the composition sequence: selected features in the order
	// their units were composed.
	Sequence []string
	// Units are the grammar/token units composed, in order.
	Units []string
	// Grammar is the composed, erased product grammar.
	Grammar *grammar.Grammar
	// Tokens is the composed token set; its keyword list is exactly the
	// reserved words of this product's dialect.
	Tokens *grammar.TokenSet
	// Erased lists the optional slots removed because their features were
	// not selected, in sorted (deterministic) order.
	Erased []string
	// Parser parses the product's language.
	Parser *parser.Parser
}

// Build runs the full pipeline for a feature selection against a model and
// unit source. It returns an error if the configuration is invalid, the
// composition violates ordering rules, or the composed grammar fails
// validation.
func Build(m *feature.Model, src UnitSource, cfg *feature.Config, opts Options) (*Product, error) {
	if opts.Product == "" {
		opts.Product = "product"
	}

	config := cfg
	if !opts.NoAutoClose {
		config = m.Close(cfg)
	}
	if err := m.Validate(config); err != nil {
		return nil, fmt.Errorf("configuration: %w", err)
	}

	sequence, err := m.Sequence(config)
	if err != nil {
		return nil, fmt.Errorf("composition sequence: %w", err)
	}
	unitNames := m.UnitSequence(sequence)
	if len(unitNames) == 0 {
		return nil, fmt.Errorf("selection %s contributes no grammar units", config)
	}

	composer := compose.New(opts.Product, compose.Options{
		StrictOrder: !opts.LenientOrder,
		Trace:       opts.Trace,
	})
	for _, name := range unitNames {
		u, err := src.Unit(name)
		if err != nil {
			return nil, err
		}
		if err := composer.Add(u.Grammar, u.Tokens); err != nil {
			return nil, err
		}
	}

	g := composer.Grammar()
	ts := composer.Tokens()
	switch {
	case opts.Start != "":
		if g.Production(opts.Start) == nil {
			return nil, fmt.Errorf("start symbol %q is not defined by the selected features", opts.Start)
		}
		g.Start = opts.Start
	default:
		// The start symbol comes from the first selected unit in diagram
		// pre-order — the conceptual root of the selection — not from
		// composition order, which requires-constraints may reorder.
		if start := firstStart(m, src, config); start != "" && g.Production(start) != nil {
			g.Start = start
		}
	}

	var erased []string
	if !opts.NoErasure {
		erased = compose.EraseUndefined(g)
	}
	if !opts.KeepUnreachable {
		for _, name := range grammar.Unreachable(g) {
			if err := g.Remove(name); err != nil {
				return nil, err
			}
			erased = append(erased, fmt.Sprintf("%s: production removed (unreachable)", name))
		}
	}
	// Sorted so Erased is deterministic across runs: compose.EraseUndefined
	// returns sorted slots, but the unreachable-pruning lines are appended
	// after, and fingerprints/golden tests need one canonical order.
	sort.Strings(erased)
	// parser.New validates the composed grammar and builds the parser from
	// the one analysis validation computes.
	p, err := parser.New(g, ts, opts.Parser)
	if err != nil {
		return nil, fmt.Errorf("composed grammar: %w", err)
	}

	return &Product{
		Name:     opts.Product,
		Config:   config,
		Sequence: sequence,
		Units:    unitNames,
		Grammar:  g,
		Tokens:   ts,
		Erased:   erased,
		Parser:   p,
	}, nil
}

// firstStart returns the start symbol of the first grammar-bearing unit in
// diagram pre-order of the selection, or "".
func firstStart(m *feature.Model, src UnitSource, config *feature.Config) string {
	for _, name := range m.UnitSequence(m.PreOrder(config)) {
		u, err := src.Unit(name)
		if err != nil || u.Grammar == nil {
			continue
		}
		if s := u.Grammar.Start; s != "" {
			return s
		}
	}
	return ""
}

// Parse is shorthand for p.Parser.Parse.
func (p *Product) Parse(sql string) (*parser.Tree, error) { return p.Parser.Parse(sql) }

// Accepts reports whether sql is in the product's language.
func (p *Product) Accepts(sql string) bool { return p.Parser.Accepts(sql) }

// Check reports whether sql is in the product's language, returning nil on
// accept and the scan or syntax error otherwise. Unlike Parse it builds no
// tree — the allocation-free verdict path behind batch verdicts and
// want=verdict serving.
func (p *Product) Check(sql string) error { return p.Parser.Check(sql) }

// Diagnose checks sql with statement-level error recovery: instead of
// stopping at the farthest failure it resynchronizes at top-level ';'
// boundaries and reports every failing statement. Nil means sql is in the
// product's language (shorthand for p.Parser.ParseRecover).
func (p *Product) Diagnose(sql string) []parser.Diagnostic { return p.Parser.ParseRecover(sql) }

// Stats summarizes the product for the size experiments (E6).
type Stats struct {
	Features    int
	Units       int
	Productions int
	Tokens      int
	Keywords    int
	Grammar     grammar.Stats
}

// Stats computes product size statistics.
func (p *Product) Stats() Stats {
	return Stats{
		Features:    p.Config.Len(),
		Units:       len(p.Units),
		Productions: p.Grammar.Len(),
		Tokens:      p.Tokens.Len(),
		Keywords:    len(p.Tokens.Keywords()),
		Grammar:     grammar.ComputeStats(p.Grammar),
	}
}
