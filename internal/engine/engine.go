// Package engine defines the parse-engine seam: the interface every
// serving-surface caller — sqlserved, sqlparse, sqlbench, the examples —
// resolves instead of a concrete parser, and the registry that promotes
// build-time generated parsers (internal/codegen output, compiled into the
// binary via go:generate) to first-class backends behind it.
//
// Two engine kinds exist, both on the shared parse runtime
// (internal/codegen/rt). The interpreted engine wraps a *core.Product and
// drives the packrat interpreter in internal/parser — it serves any
// feature configuration. The generated engine serves exactly one product:
// a parser emitted by internal/codegen for a shipped preset, registered
// at init time under the product's catalog fingerprint. The catalog
// auto-promotes a product to its generated engine when the fingerprint
// matches; everything else falls back to interpreted, so arbitrary
// configurations keep working while preset traffic rides the specialized
// artifact — the paper's generated-parser-per-product stance made
// operational.
//
// # Staleness
//
// A registered parser was generated from some grammar; the grammar a
// fingerprint resolves to can drift (the sql2003 feature units evolve).
// Registration therefore records a hash of the exact grammar + token set
// the parser was generated from, and promotion re-derives the hash from
// the freshly built product. A mismatch means the checked-in parser is
// stale: promotion is refused (counted in HotCounters().StaleSkips) and
// the interpreted engine serves instead — correctness never depends on
// regeneration having happened, only speed does. CI pins the committed
// parsers with a go generate diff check.
//
// # Diagnose fallback
//
// Statement recovery (parser.ParseRecover) checks each statement on a
// runtime run, but only the interpreted engine drives it: generated
// engines delegate Diagnose to their product's interpreted parser
// (counted in HotCounters().DiagFallbacks), so the multi-error
// diagnostics contract holds regardless of backend.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"

	"sqlspl/internal/core"
	"sqlspl/internal/grammar"
	"sqlspl/internal/parser"
)

// Kind discriminates engine implementations.
type Kind string

const (
	// Interpreted engines drive the packrat interpreter over the composed
	// grammar; they serve any feature configuration.
	KindInterpreted Kind = "interpreted"
	// Generated engines are parsers emitted by internal/codegen and
	// compiled into the binary; they serve exactly one product.
	KindGenerated Kind = "generated"
)

// Info identifies an engine and its capabilities.
type Info struct {
	// Kind is the backend discriminator.
	Kind Kind
	// Product is the product name the engine serves (dialect preset name
	// or "custom").
	Product string
	// Fingerprint is the catalog fingerprint of the configuration the
	// engine was resolved for.
	Fingerprint string
	// NativeDiagnose reports whether Diagnose runs on this backend itself;
	// false means it falls back to the interpreted engine.
	NativeDiagnose bool
}

// Engine is the serving surface of one parser product. All methods are
// safe for concurrent use.
type Engine interface {
	// Info identifies the backend.
	Info() Info
	// Parse scans and parses sql into a concrete parse tree.
	Parse(sql string) (*parser.Tree, error)
	// Check reports membership without building a tree (nil = accepted);
	// empty and comment-only input check clean.
	Check(sql string) error
	// Accepts is the strict boolean membership test.
	Accepts(sql string) bool
	// Diagnose runs statement recovery and reports every failing
	// statement of the script.
	Diagnose(sql string) []parser.Diagnostic
}

// Counters is a snapshot of the engine hot-path counters.
type Counters struct {
	// GenParses and GenChecks count calls served by generated backends.
	GenParses uint64
	GenChecks uint64
	// DiagFallbacks counts Diagnose calls a generated engine delegated to
	// the interpreted parser.
	DiagFallbacks uint64
	// StaleSkips counts promotions refused because the registered parser's
	// grammar hash no longer matches the built product.
	StaleSkips uint64
}

var hot struct {
	genParses     atomic.Uint64
	genChecks     atomic.Uint64
	diagFallbacks atomic.Uint64
	staleSkips    atomic.Uint64
}

// HotCounters snapshots the process-wide engine counters (telemetry
// samples these at scrape time).
func HotCounters() Counters {
	return Counters{
		GenParses:     hot.genParses.Load(),
		GenChecks:     hot.genChecks.Load(),
		DiagFallbacks: hot.diagFallbacks.Load(),
		StaleSkips:    hot.staleSkips.Load(),
	}
}

// GrammarHash fingerprints the exact grammar + token set a parser was
// generated from (hex SHA-256 over the canonical grammar rendering and the
// token-set summary). Registration records it; promotion re-derives it.
func GrammarHash(g *grammar.Grammar, ts *grammar.TokenSet) string {
	h := sha256.New()
	h.Write([]byte(grammar.Format(g)))
	h.Write([]byte{0})
	h.Write([]byte(ts.String()))
	for _, d := range ts.Defs() {
		h.Write([]byte(d.Name))
		h.Write([]byte{1})
		h.Write([]byte(d.Text))
		h.Write([]byte{byte(d.Kind)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Generated describes one registered build-time parser. The function
// fields are the generated parser's entry points on the shared runtime
// (internal/codegen/rt), whose tree and error types are the seam's own:
// parser.Tree, parser.SyntaxError and lexer.Error alias them.
type Generated struct {
	// Preset names the dialect the parser was generated for.
	Preset string
	// Fingerprint is the catalog fingerprint the parser registers under.
	Fingerprint string
	// GrammarSHA is GrammarHash of the grammar the parser was generated
	// from; promotion refuses a mismatch.
	GrammarSHA string

	Parse   func(sql string) (*parser.Tree, error)
	Check   func(sql string) error
	Accepts func(sql string) bool
}

var registry struct {
	mu   sync.RWMutex
	byFP map[string]Generated
}

// Register installs a generated parser under its fingerprint. Generated
// preset packages call it from init; later registrations for the same
// fingerprint win (a regenerated parser supersedes a stale one).
func Register(g Generated) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byFP == nil {
		registry.byFP = map[string]Generated{}
	}
	registry.byFP[g.Fingerprint] = g
}

// Lookup resolves a registered generated parser by catalog fingerprint.
func Lookup(fingerprint string) (Generated, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	g, ok := registry.byFP[fingerprint]
	return g, ok
}

// Registered lists the registered generated parsers, sorted by preset.
func Registered() []Generated {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Generated, 0, len(registry.byFP))
	for _, g := range registry.byFP {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Preset < out[j].Preset })
	return out
}

// interpreted adapts a *core.Product to the seam.
type interpreted struct {
	p  *core.Product
	fp string
}

// Interpreted wraps a built product as an interpreted engine.
func Interpreted(p *core.Product, fingerprint string) Engine {
	return interpreted{p: p, fp: fingerprint}
}

func (e interpreted) Info() Info {
	return Info{Kind: KindInterpreted, Product: e.p.Name, Fingerprint: e.fp, NativeDiagnose: true}
}
func (e interpreted) Parse(sql string) (*parser.Tree, error)  { return e.p.Parse(sql) }
func (e interpreted) Check(sql string) error                  { return e.p.Check(sql) }
func (e interpreted) Accepts(sql string) bool                 { return e.p.Accepts(sql) }
func (e interpreted) Diagnose(sql string) []parser.Diagnostic { return e.p.Diagnose(sql) }

// generated adapts a registered parser to the seam, counting served calls
// and delegating Diagnose to the product's interpreted parser.
type generated struct {
	g Generated
	p *core.Product
}

func (e generated) Info() Info {
	return Info{Kind: KindGenerated, Product: e.p.Name, Fingerprint: e.g.Fingerprint, NativeDiagnose: false}
}

func (e generated) Parse(sql string) (*parser.Tree, error) {
	hot.genParses.Add(1)
	return e.g.Parse(sql)
}

func (e generated) Check(sql string) error {
	hot.genChecks.Add(1)
	return e.g.Check(sql)
}

func (e generated) Accepts(sql string) bool {
	return e.g.Accepts(sql)
}

func (e generated) Diagnose(sql string) []parser.Diagnostic {
	hot.diagFallbacks.Add(1)
	return e.p.Diagnose(sql)
}

// ForProduct resolves the engine for a built product: the registered
// generated parser when the catalog fingerprint matches and the grammar
// hash confirms it is current, the interpreted engine otherwise. The
// boolean reports promotion (true = generated).
func ForProduct(p *core.Product, fingerprint string) (Engine, bool) {
	g, ok := Lookup(fingerprint)
	if !ok {
		return Interpreted(p, fingerprint), false
	}
	if g.GrammarSHA != GrammarHash(p.Grammar, p.Tokens) {
		hot.staleSkips.Add(1)
		return Interpreted(p, fingerprint), false
	}
	return generated{g: g, p: p}, true
}
