// Package product implements the product catalog: a concurrency-safe,
// content-addressed cache of built parser products sitting between
// internal/core and every consumer (presets, commands, examples, services).
//
// The paper's pipeline (select features → compose → generate parser) is a
// pure function of the feature-instance description and the build options,
// so identical selections always yield identical products. The catalog
// exploits that: each build request is keyed by a canonical fingerprint of
// (feature.Config, core.Options), and a selection is composed once while
// its slot stays resident. Concurrent requests for the same product share
// one in-flight build (singleflight) instead of racing to duplicate it —
// the reuse that turns the product line from a library into a serving
// layer, in the spirit of SpecDB's configuration → generated-variant cache.
// The slots live in one internal/cache.Cache bounded at catalogCapacity:
// the least recently used slot goes first, and an evicted selection is
// rebuilt on its next request into an interchangeable product under the
// same fingerprint. A build that panics caches nothing: each lookup that
// was waiting for it builds again, uncached, so the panic reaches every
// one of them instead of leaving them blocked.
//
// Products returned by a catalog are shared: callers must treat the
// *core.Product — its Grammar, Tokens, Config and Parser — as immutable.
// The embedded parser.Parser is safe for concurrent Parse calls, so one
// cached product can serve any number of goroutines.
//
// # Engine promotion
//
// Every catalog slot also resolves a serving engine (internal/engine) for
// its product, inside the singleflight build — before the slot is
// published, so promotion is atomic: no caller ever observes a product
// whose engine is still undecided. When a pregenerated parser is
// registered under the slot's fingerprint and it is the freshly built
// product's own parser, table for table, the slot promotes to the
// generated engine (counted in Stats.Promotions); otherwise the
// interpreted engine serves.
// Resolve returns the product and the slot's engine; Get returns the raw
// product for callers that need only the composition artifacts.
//
// # Pre-fingerprinted selections
//
// Fingerprinting sorts and hashes every selected feature name, which costs
// more than the cache probe it keys. A caller that resolves one fixed
// selection over and over (the dialect presets, on every request) builds a
// Selection once with NewSelection and resolves it with ResolveSelection:
// one cache probe, no copying, sorting, hashing or allocation. Get and
// Resolve fingerprint their (cfg, opts) arguments on every call and then
// take the same path.
package product

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sqlspl/internal/cache"
	"sqlspl/internal/core"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
	"sqlspl/internal/sql2003"
)

// Fingerprint returns the canonical content address of a build request:
// a hex SHA-256 over the sorted selected-feature names and every
// artifact-relevant field of the options. Two requests fingerprint equal
// exactly when core.Build would produce interchangeable products.
//
// Options.Trace is deliberately excluded — it observes the build, it does
// not shape the artifact. Consequently a cache hit emits no trace; only
// the request that actually builds does.
func Fingerprint(cfg *feature.Config, opts core.Options) string {
	h := sha256.New()
	for _, name := range cfg.Names() { // Names is sorted: canonical order.
		io.WriteString(h, name)
		io.WriteString(h, "\x00")
	}
	fmt.Fprintf(h, "|product=%s|start=%s|noclose=%t|lenient=%t|noerase=%t|keepunreach=%t|nopredict=%t|maxtokens=%d|maxdiags=%d",
		opts.Product, opts.Start, opts.NoAutoClose, opts.LenientOrder,
		opts.NoErasure, opts.KeepUnreachable,
		opts.Parser.DisablePrediction, opts.Parser.MaxTokens, opts.Parser.MaxDiagnostics)
	return hex.EncodeToString(h.Sum(nil))
}

// Selection is a build request fingerprinted once: a feature
// configuration, its build options, their Fingerprint and the catalog
// key hashed from it. Build one with NewSelection; the zero value is not
// usable.
type Selection struct {
	cfg  *feature.Config
	opts core.Options
	fp   string
	key  cache.Key
}

// NewSelection fingerprints a build request. It clones cfg, so the
// selection stays valid whatever the caller does with cfg afterwards.
func NewSelection(cfg *feature.Config, opts core.Options) Selection {
	return selection(cfg.Clone(), opts)
}

// selection fingerprints a request without cloning: the per-call wrappers
// use it, and the catalog clones on a miss before building.
func selection(cfg *feature.Config, opts core.Options) Selection {
	fp := Fingerprint(cfg, opts)
	return Selection{cfg: cfg, opts: opts, fp: fp, key: cache.KeyOf("", fp)}
}

// Config returns the selected features. The configuration is shared:
// callers must not mutate it.
func (s Selection) Config() *feature.Config { return s.cfg }

// Fingerprint returns the selection's catalog fingerprint, computed once
// when the selection was made.
func (s Selection) Fingerprint() string { return s.fp }

// Stats is a point-in-time snapshot of catalog traffic and occupancy —
// the shape the serving layer's /metrics endpoint exposes. The embedded
// cache.Stats counts lookups and slots: Hits (answered by a completed
// build), Misses (ran the build), Shared (joined a build in flight),
// Evictions (slots dropped by the capacity bound) and Entries (resident
// products, cached failures and builds in flight).
//
// A snapshot may be taken from any goroutine without blocking builders,
// but it is not one consistent cut: derived equalities such as
// Hits+Misses+Shared == lookups made hold once the lookups being counted
// have returned.
type Stats struct {
	cache.Stats
	// Promotions counts builds whose product was promoted to a registered
	// generated engine (fingerprint matched, and the registered parser is
	// the product's own).
	Promotions uint64
	// InFlight is the number of builds currently running.
	InFlight int
}

// slot is one build's outcome, shared by every lookup of its selection.
type slot struct {
	product *core.Product
	eng     engine.Engine
	err     error
}

// catalogCapacity bounds the slots a catalog keeps. The cache caps each of
// its 16 shards at a sixteenth of it, and the per-process hash seed may
// put every product of a workload in one shard, so a shard must hold all
// twelve of a workload of six presets and six custom selections: at 4 a
// shard, that workload evicts in about 0.8% of processes.
const catalogCapacity = 256

// Catalog is a concurrency-safe build cache over one feature model and
// unit source. The zero value is not usable; use NewCatalog or Default.
type Catalog struct {
	model *feature.Model
	src   core.UnitSource
	slots *cache.Cache

	promotions atomic.Uint64
	inFlight   atomic.Int64
}

// NewCatalog returns an empty catalog building against the given model and
// unit source. The model and source must not change for the catalog's
// lifetime — cached products would silently go stale.
func NewCatalog(m *feature.Model, src core.UnitSource) *Catalog {
	return &Catalog{model: m, src: src, slots: cache.New(catalogCapacity)}
}

// Model returns the feature model the catalog builds against. It is
// immutable for the catalog's lifetime; callers (the configuration
// solver in particular) may analyze it but must not mutate it.
func (c *Catalog) Model() *feature.Model { return c.model }

var (
	defaultOnce sync.Once
	defaultCat  *Catalog
)

// Default returns the process-wide catalog over the standard SQL:2003
// model and unit registry — the catalog behind the dialect presets and
// the CLIs. It is created lazily on first use.
func Default() *Catalog {
	defaultOnce.Do(func() {
		defaultCat = NewCatalog(sql2003.MustModel(), sql2003.Registry{})
	})
	return defaultCat
}

// Get returns the product for the selection and options, building it on
// first request. Concurrent Gets with the same fingerprint share a single
// build; later Gets return the cached product (or the cached build error —
// builds are deterministic, so failures are as cacheable as successes).
//
// The configuration is cloned before building: callers may keep mutating
// cfg after Get returns without corrupting the cache.
func (c *Catalog) Get(cfg *feature.Config, opts core.Options) (*core.Product, error) {
	p, _, err := c.Resolve(cfg, opts)
	return p, err
}

// Resolve returns the product and its serving engine in one catalog
// lookup: the generated backend when one is registered for the
// fingerprint and current, the interpreted backend otherwise.
func (c *Catalog) Resolve(cfg *feature.Config, opts core.Options) (*core.Product, engine.Engine, error) {
	return c.ResolveSelection(selection(cfg, opts))
}

// ResolveSelection is Resolve for a pre-fingerprinted selection. On a
// built slot it costs one cache probe and allocates nothing.
func (c *Catalog) ResolveSelection(sel Selection) (*core.Product, engine.Engine, error) {
	v := c.slots.Fill(sel.key, func() any { return c.build(sel) })
	if v == nil {
		// The build this lookup joined panicked: build uncached, so the
		// panic reaches this caller as well.
		v = c.build(sel)
	}
	s := v.(*slot)
	return s.product, s.eng, s.err
}

// build composes the selection and resolves its serving engine. Inside a
// fill it runs before the slot is published, so promotion is atomic with
// the build: every waiter observes the same engine decision.
func (c *Catalog) build(sel Selection) *slot {
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	s := &slot{}
	s.product, s.err = core.Build(c.model, c.src, sel.cfg.Clone(), sel.opts)
	if s.err == nil {
		var promoted bool
		s.eng, promoted = engine.ForProduct(s.product, sel.fp)
		if promoted {
			c.promotions.Add(1)
		}
	}
	return s
}

// LookupSelection returns the selection's product and serving engine
// without building: ok is false if the product is absent, still being
// built, or a cached build failure. It moves no traffic counter and does
// not refresh the slot's recency, so observers (GET /v1/dialects) can
// inspect the catalog without skewing hits+misses+shared or evictions.
func (c *Catalog) LookupSelection(sel Selection) (*core.Product, engine.Engine, bool) {
	v, ok := c.slots.Peek(sel.key)
	if !ok {
		return nil, nil, false
	}
	s := v.(*slot)
	return s.product, s.eng, s.err == nil
}

// Len returns the number of catalog slots, including in-flight builds and
// cached failures.
func (c *Catalog) Len() int { return c.slots.Len() }

// Stats returns a snapshot of catalog traffic and occupancy. See the Stats
// type for the concurrency contract.
func (c *Catalog) Stats() Stats {
	return Stats{
		Stats:      c.slots.Stats(),
		Promotions: c.promotions.Load(),
		InFlight:   int(c.inFlight.Load()),
	}
}
