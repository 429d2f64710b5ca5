// Package product implements the product catalog: a concurrency-safe,
// content-addressed cache of built parser products sitting between
// internal/core and every consumer (presets, commands, examples, services).
//
// The paper's pipeline (select features → compose → generate parser) is a
// pure function of the feature-instance description and the build options,
// so identical selections always yield identical products. The catalog
// exploits that: each build request is keyed by a canonical fingerprint of
// (feature.Config, core.Options), and every distinct selection is composed
// exactly once per process. Concurrent requests for the same product share
// one in-flight build (singleflight) instead of racing to duplicate it —
// the reuse that turns the product line from a library into a serving
// layer, in the spirit of SpecDB's configuration → generated-variant cache.
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
// registered under the slot's fingerprint and its grammar hash matches the
// freshly built product, the slot promotes to the generated engine
// (counted in Stats.Promotions); otherwise the interpreted engine serves.
// Engine returns the slot's engine; Get keeps returning the raw product
// for callers that need the composition artifacts themselves.
//
// # Pre-fingerprinted selections
//
// Fingerprinting sorts and hashes every selected feature name, which costs
// more than the cache probe it keys. A caller that resolves one fixed
// selection over and over (the dialect presets, on every request) builds a
// Selection once with NewSelection and resolves it with ResolveSelection:
// one map probe, no copying, sorting, hashing or allocation. Get, Engine,
// Resolve and Lookup fingerprint their (cfg, opts) arguments on every call
// and then take the same path.
package product

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

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
	fmt.Fprintf(h, "|product=%s|start=%s|noclose=%t|lenient=%t|noerase=%t|keepunreach=%t|nopredict=%t|maxtokens=%d",
		opts.Product, opts.Start, opts.NoAutoClose, opts.LenientOrder,
		opts.NoErasure, opts.KeepUnreachable,
		opts.Parser.DisablePrediction, opts.Parser.MaxTokens)
	return hex.EncodeToString(h.Sum(nil))
}

// Selection is a build request fingerprinted once: a feature
// configuration, its build options and their Fingerprint. Build one with
// NewSelection; the zero value is not usable.
type Selection struct {
	cfg  *feature.Config
	opts core.Options
	fp   string
}

// NewSelection fingerprints a build request. It clones cfg, so the
// selection stays valid whatever the caller does with cfg afterwards.
func NewSelection(cfg *feature.Config, opts core.Options) Selection {
	return selection(cfg.Clone(), opts)
}

// selection fingerprints a request without cloning: the per-call wrappers
// use it, and the catalog clones on a miss before building.
func selection(cfg *feature.Config, opts core.Options) Selection {
	return Selection{cfg: cfg, opts: opts, fp: Fingerprint(cfg, opts)}
}

// Config returns the selected features. The configuration is shared:
// callers must not mutate it.
func (s Selection) Config() *feature.Config { return s.cfg }

// Fingerprint returns the selection's catalog fingerprint, computed once
// when the selection was made.
func (s Selection) Fingerprint() string { return s.fp }

// Stats is a public point-in-time snapshot of catalog state and traffic —
// the shape the serving layer's /metrics endpoint exposes.
//
// Concurrency contract: a snapshot may be taken at any time, from any
// goroutine, without blocking builders — counters are read individually
// from atomics and the entry table is scanned under the catalog lock. The
// three traffic counters are each monotone, but the snapshot is NOT one
// consistent cut: a Get racing the snapshot may have bumped Hits but not
// yet appear anywhere else, so derived equalities (for instance
// Hits+Misses+Shared == requests issued) hold only once the Gets being
// counted have returned. Entries and InFlight describe the table at the
// instant of the scan.
type Stats struct {
	// Hits counts requests answered by an already-completed build.
	Hits uint64
	// Misses counts requests that performed the build themselves.
	Misses uint64
	// Shared counts requests that joined a build another goroutine had in
	// flight (the singleflight path).
	Shared uint64
	// Promotions counts builds whose product was promoted to a registered
	// generated engine (fingerprint and grammar hash both matched).
	Promotions uint64
	// Entries is the number of catalog slots: completed products, cached
	// build failures, and builds still in flight.
	Entries int
	// InFlight is the number of builds currently running.
	InFlight int
}

// entry is one catalog slot. done is closed once product/err/eng are final;
// waiters block on it instead of holding the catalog lock.
type entry struct {
	done    chan struct{}
	product *core.Product
	eng     engine.Engine
	err     error
}

// Catalog is a concurrency-safe build cache over one feature model and
// unit source. The zero value is not usable; use NewCatalog or Default.
type Catalog struct {
	model *feature.Model
	src   core.UnitSource

	mu      sync.Mutex
	entries map[string]*entry

	hits, misses, shared atomic.Uint64
	promotions           atomic.Uint64
}

// NewCatalog returns an empty catalog building against the given model and
// unit source. The model and source must not change for the catalog's
// lifetime — cached products would silently go stale.
func NewCatalog(m *feature.Model, src core.UnitSource) *Catalog {
	return &Catalog{model: m, src: src, entries: map[string]*entry{}}
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
	e := c.resolve(selection(cfg, opts))
	return e.product, e.err
}

// Engine returns the serving engine for the selection, building the
// product on first request exactly like Get. The engine is the generated
// backend when one is registered for the fingerprint and current, the
// interpreted backend otherwise.
func (c *Catalog) Engine(cfg *feature.Config, opts core.Options) (engine.Engine, error) {
	e := c.resolve(selection(cfg, opts))
	return e.eng, e.err
}

// Resolve returns the product AND its serving engine in one catalog
// lookup — one cache-counter bump instead of the two a Get+Engine pair
// costs, which keeps the loadgen invariant "hits+misses+shared == catalog
// resolutions" exact for callers (like /v1/stream) that need both.
func (c *Catalog) Resolve(cfg *feature.Config, opts core.Options) (*core.Product, engine.Engine, error) {
	return c.ResolveSelection(selection(cfg, opts))
}

// ResolveSelection is Resolve for a pre-fingerprinted selection. On a
// built slot it costs one map probe and allocates nothing.
func (c *Catalog) ResolveSelection(sel Selection) (*core.Product, engine.Engine, error) {
	e := c.resolve(sel)
	return e.product, e.eng, e.err
}

// resolve is the singleflight slot lookup behind every counting lookup.
func (c *Catalog) resolve(sel Selection) *entry {
	c.mu.Lock()
	if e, ok := c.entries[sel.fp]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			c.hits.Add(1)
		default:
			c.shared.Add(1)
			<-e.done
		}
		return e
	}
	e := &entry{done: make(chan struct{})}
	c.entries[sel.fp] = e
	c.mu.Unlock()

	c.misses.Add(1)
	e.product, e.err = core.Build(c.model, c.src, sel.cfg.Clone(), sel.opts)
	if e.err == nil {
		// Resolve the serving engine inside the singleflight, before the
		// slot is published: promotion is atomic with the build, so every
		// waiter observes the same engine decision.
		var promoted bool
		e.eng, promoted = engine.ForProduct(e.product, sel.fp)
		if promoted {
			c.promotions.Add(1)
		}
	}
	close(e.done)
	return e
}

// Lookup returns the cached product for the selection without building:
// ok is false if the product is absent or still being built. A cached
// build failure reports ok=false as well.
func (c *Catalog) Lookup(cfg *feature.Config, opts core.Options) (*core.Product, bool) {
	p, _, ok := c.LookupSelection(selection(cfg, opts))
	return p, ok
}

// LookupSelection is Lookup for a pre-fingerprinted selection, returning
// the slot's serving engine too. Like Lookup it never builds and moves no
// traffic counter, so observers (GET /v1/dialects) can inspect the
// catalog without skewing hits+misses+shared.
func (c *Catalog) LookupSelection(sel Selection) (*core.Product, engine.Engine, bool) {
	c.mu.Lock()
	e, ok := c.entries[sel.fp]
	c.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	select {
	case <-e.done:
		return e.product, e.eng, e.err == nil
	default:
		return nil, nil, false
	}
}

// Len returns the number of catalog entries, including in-flight builds
// and cached failures.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of catalog traffic and occupancy. See the Stats
// type for the concurrency contract.
func (c *Catalog) Stats() Stats {
	s := Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Shared:     c.shared.Load(),
		Promotions: c.promotions.Load(),
	}
	c.mu.Lock()
	s.Entries = len(c.entries)
	for _, e := range c.entries {
		select {
		case <-e.done:
		default:
			s.InFlight++
		}
	}
	c.mu.Unlock()
	return s
}
