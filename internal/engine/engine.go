// Package engine defines the parse-engine seam: the interface every
// serving-surface caller — sqlserved, sqlparse, sqlbench, the examples —
// resolves instead of a concrete parser, and the registry that promotes
// build-time generated parsers (internal/codegen output, compiled into the
// binary via go:generate) to first-class backends behind it.
//
// Two engine kinds exist, both on the shared parse runtime
// (internal/codegen/rt), and one adapter serves them: it answers Parse,
// Check and Accepts through the product's runtime parser (an rt.Parser)
// and Diagnose through the product's statement recovery. The interpreted
// engine's runtime parser is the product's own (internal/parser compiles
// the composed grammar to the runtime's program when the product is
// built) — it serves any feature configuration. The generated engine's is
// the same tables and program printed by internal/codegen as a literal for
// a shipped preset, registered at init time under the product's catalog
// fingerprint; both run the runtime's one greedy and one packrat pass. The
// catalog auto-promotes a product to its generated engine when the
// fingerprint matches; everything else falls back to interpreted, so
// arbitrary configurations keep working while preset traffic rides the
// specialized artifact — the paper's generated-parser-per-product stance
// made operational.
//
// # Counting
//
// The seam is the one place engine work is counted (HotCounters): every
// Parse and Check an Engine serves moves exactly one process-wide counter
// for its backend, every Diagnose moves the Diagnose counter (and on a
// generated engine the fallback counter too), and Accepts moves none.
// Nothing below the seam — runtime, parser, lexer — counts, so the
// counters cover the generated engines that serve the presets as well as
// the interpreter.
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
// (counted in HotCounters().DiagFallbacks as well), so the multi-error
// diagnostics contract holds regardless of backend.
package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"

	"sqlspl/internal/codegen/rt"
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

// Info identifies an engine.
type Info struct {
	// Kind is the backend discriminator.
	Kind Kind
	// Product is the product name the engine serves (dialect preset name
	// or "custom").
	Product string
	// Fingerprint is the catalog fingerprint of the configuration the
	// engine was resolved for.
	Fingerprint string
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

// Counters is a snapshot of the engine counters. Each field is read
// individually; the snapshot is not one consistent cut, but every field
// is monotone.
type Counters struct {
	// GenParses and GenChecks count Parse and Check calls served by
	// generated engines; InterpParses and InterpChecks those served by
	// interpreted engines.
	GenParses, GenChecks       uint64
	InterpParses, InterpChecks uint64
	// Diagnoses counts Diagnose calls on either kind.
	Diagnoses uint64
	// DiagFallbacks counts the Diagnose calls a generated engine delegated
	// to the interpreted parser (all of its Diagnose calls).
	DiagFallbacks uint64
	// StaleSkips counts promotions refused because the registered parser's
	// grammar hash no longer matches the built product.
	StaleSkips uint64
}

// kindCounters are one engine kind's Parse and Check counts.
type kindCounters struct {
	parses, checks atomic.Uint64
}

var hot struct {
	generated, interpreted kindCounters
	diagnoses              atomic.Uint64
	diagFallbacks          atomic.Uint64
	staleSkips             atomic.Uint64
}

// HotCounters snapshots the process-wide engine counters (telemetry
// samples these at scrape time).
func HotCounters() Counters {
	return Counters{
		GenParses:     hot.generated.parses.Load(),
		GenChecks:     hot.generated.checks.Load(),
		InterpParses:  hot.interpreted.parses.Load(),
		InterpChecks:  hot.interpreted.checks.Load(),
		Diagnoses:     hot.diagnoses.Load(),
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

// Generated describes one registered build-time parser: the generated
// package's parser on the shared runtime (internal/codegen/rt), whose
// tree and error types are the seam's own (parser.Tree,
// parser.SyntaxError and lexer.Error alias them).
type Generated struct {
	// Preset names the dialect the parser was generated for.
	Preset string
	// Fingerprint is the catalog fingerprint the parser registers under.
	Fingerprint string
	// GrammarSHA is GrammarHash of the grammar the parser was generated
	// from; promotion refuses a mismatch.
	GrammarSHA string
	// Parser is the generated parser.
	Parser *rt.Parser
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

// adapter serves one product through a runtime parser — the product's
// own (interpreted) or a registered generated one — counting each call
// against its kind.
type adapter struct {
	rt   *rt.Parser
	p    *core.Product
	info Info
	n    *kindCounters
}

// Interpreted wraps a built product as an interpreted engine.
func Interpreted(p *core.Product, fingerprint string) Engine {
	return &adapter{rt: p.Parser.Parser, p: p, n: &hot.interpreted,
		info: Info{Kind: KindInterpreted, Product: p.Name, Fingerprint: fingerprint}}
}

func (e *adapter) Info() Info { return e.info }

func (e *adapter) Parse(sql string) (*parser.Tree, error) {
	e.n.parses.Add(1)
	return e.rt.Parse(sql)
}

func (e *adapter) Check(sql string) error {
	e.n.checks.Add(1)
	return e.rt.Check(sql)
}

func (e *adapter) Accepts(sql string) bool { return e.rt.Accepts(sql) }

// Diagnose runs the product's statement recovery, which only the
// interpreted parser implements; a generated engine counts the fallback.
func (e *adapter) Diagnose(sql string) []parser.Diagnostic {
	hot.diagnoses.Add(1)
	if e.info.Kind == KindGenerated {
		hot.diagFallbacks.Add(1)
	}
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
	return &adapter{rt: g.Parser, p: p, n: &hot.generated,
		info: Info{Kind: KindGenerated, Product: p.Name, Fingerprint: g.Fingerprint}}, true
}
