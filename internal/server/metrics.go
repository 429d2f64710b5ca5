// metrics.go wires the serving subsystem into the telemetry registry:
// handler-owned counters and histograms, plus scrape-time samplers over
// the counters other packages own (the three internal/cache users —
// product catalog, verdict cache, configuration memo — the engine seam
// and the analysis pass).
package server

import (
	"sync"

	"sqlspl/internal/analyze"
	"sqlspl/internal/cache"
	"sqlspl/internal/configure"
	"sqlspl/internal/engine"
	"sqlspl/internal/product"
	"sqlspl/internal/telemetry"
)

// metricsBundle holds every metric the handlers touch. Per-dialect
// counters are created lazily on first request for a dialect.
type metricsBundle struct {
	reg *telemetry.Registry

	parseReqs          *telemetry.Counter
	batchReqs          *telemetry.Counter
	batchQueries       *telemetry.Counter // queries answered by /v1/batch workers
	formatReqs         *telemetry.Counter // /v1/format requests admitted
	formatErrors       *telemetry.Counter // format requests refused (parse failure or unmodelled statement)
	streamReqs         *telemetry.Counter // /v1/stream requests admitted
	streamStatements   *telemetry.Counter // statements yielded by the streaming scanner
	configureReqs      *telemetry.Counter // /v1/configure requests admitted
	configureConflicts *telemetry.Counter // infeasible selections explained
	rejected           *telemetry.Counter // admission 429s
	timeouts           *telemetry.Counter // deadline 504s
	badRequests        *telemetry.Counter // malformed bodies / unknown dialects
	parseErrors        *telemetry.Counter // well-formed requests whose SQL was rejected
	panics             *telemetry.Counter // handler/parse panics recovered (500)
	inflight           *telemetry.Gauge
	latency            *telemetry.Histogram
	configureLatency   *telemetry.Histogram

	mu        sync.Mutex
	byDialect map[string]*telemetry.Counter
}

func newMetricsBundle(reg *telemetry.Registry, cat *product.Catalog, vcache *product.VerdictCache, solver *configure.Solver) *metricsBundle {
	m := &metricsBundle{
		reg:       reg,
		byDialect: map[string]*telemetry.Counter{},

		parseReqs:          reg.Counter("sqlserved_parse_requests_total", "parse requests admitted"),
		batchReqs:          reg.Counter("sqlserved_batch_requests_total", "batch requests admitted"),
		batchQueries:       reg.Counter("sqlserved_batch_queries_total", "queries answered by the batch endpoint"),
		formatReqs:         reg.Counter("sqlserved_format_requests_total", "format requests admitted"),
		formatErrors:       reg.Counter("sqlserved_format_errors_total", "format requests refused (parse failure or unmodelled statement)"),
		streamReqs:         reg.Counter("sqlserved_stream_requests_total", "stream requests admitted"),
		streamStatements:   reg.Counter("sqlserved_stream_statements_total", "statements checked by the streaming endpoint"),
		configureReqs:      reg.Counter("sqlserved_configure_requests_total", "configure requests admitted"),
		configureConflicts: reg.Counter("sqlserved_configure_conflicts_total", "infeasible selections answered with a minimal conflict set"),
		rejected:           reg.Counter("sqlserved_rejected_total", "requests shed by the admission controller (429)"),
		timeouts:           reg.Counter("sqlserved_timeouts_total", "requests that exceeded the per-request deadline (504)"),
		badRequests:        reg.Counter("sqlserved_bad_requests_total", "malformed requests (400)"),
		parseErrors:        reg.Counter("sqlserved_parse_errors_total", "queries rejected by their dialect's parser"),
		panics:             reg.Counter("sqlserved_parse_panics_total", "panics recovered into 500s instead of killing the daemon"),
		inflight:           reg.Gauge("sqlserved_inflight", "requests currently admitted"),
		latency:            reg.Histogram("sqlserved_parse_latency_seconds", "per-query parse+encode latency", nil),
		configureLatency:   reg.Histogram("sqlserved_configure_latency_seconds", "per-request solver latency", nil),
	}

	// The three caches, sampled at scrape time through one helper. For a
	// server with a private catalog, product-cache hits+misses+shared
	// equals the number of catalog resolutions — one per warmed preset and
	// per admitted parse, format, batch or stream request, none for
	// /v1/dialects — which is how the load generator cross-checks /metrics
	// against its request count.
	cacheSeries(reg, "sqlspl_product_cache", "catalog", func() cache.Stats { return cat.Stats().Stats })
	reg.GaugeFunc("sqlspl_product_cache_inflight_builds", "builds currently running",
		func() float64 { return float64(cat.Stats().InFlight) })
	cacheSeries(reg, "sqlspl_verdict_cache", "verdict cache", vcache.Stats)
	cacheSeries(reg, "sqlspl_configure_cache", "completion memo", solver.CompletionCacheStats)

	// Engine-seam counters: how many builds promoted to a generated
	// backend, and the engine work each backend served — the one place
	// engine work is counted (process-wide, so they include non-server
	// engine calls in the same process; DESIGN §8).
	reg.CounterFunc("sqlspl_catalog_promotions_total", "builds promoted to a registered generated engine",
		func() uint64 { return cat.Stats().Promotions })
	reg.CounterFunc("sqlspl_engine_generated_parses_total", "Parse calls served by generated engines",
		func() uint64 { return engine.HotCounters().GenParses })
	reg.CounterFunc("sqlspl_engine_generated_checks_total", "Check calls served by generated engines",
		func() uint64 { return engine.HotCounters().GenChecks })
	reg.CounterFunc("sqlspl_engine_interpreted_parses_total", "Parse calls served by interpreted engines",
		func() uint64 { return engine.HotCounters().InterpParses })
	reg.CounterFunc("sqlspl_engine_interpreted_checks_total", "Check calls served by interpreted engines",
		func() uint64 { return engine.HotCounters().InterpChecks })
	reg.CounterFunc("sqlspl_engine_diagnoses_total", "Diagnose (statement recovery) calls served by either engine kind",
		func() uint64 { return engine.HotCounters().Diagnoses })
	reg.CounterFunc("sqlspl_engine_diagnose_fallbacks_total", "Diagnose calls generated engines delegated to the interpreted parser",
		func() uint64 { return engine.HotCounters().DiagFallbacks })
	reg.CounterFunc("sqlspl_engine_stale_skips_total", "promotions refused because the registered parser differs from the built product's",
		func() uint64 { return engine.HotCounters().StaleSkips })

	// Analysis-pass counters (process-wide, like the engine counters
	// above): statements analysed and how many were Generic fallbacks the
	// analysis could only flag as incomplete.
	reg.CounterFunc("sqlspl_analyze_statements_total", "statements run through the analysis pass",
		func() uint64 { return analyze.HotCounters().Statements })
	reg.CounterFunc("sqlspl_analyze_incomplete_total", "analysed statements flagged incomplete (unmodelled syntax)",
		func() uint64 { return analyze.HotCounters().Incomplete })
	return m
}

// cacheSeries registers one internal/cache user's counters and entry
// gauge under prefix; what names the cache in the help text.
func cacheSeries(reg *telemetry.Registry, prefix, what string, stats func() cache.Stats) {
	reg.CounterFunc(prefix+"_hits_total", what+" lookups answered by a completed entry",
		func() uint64 { return stats().Hits })
	reg.CounterFunc(prefix+"_misses_total", what+" lookups that computed the entry",
		func() uint64 { return stats().Misses })
	reg.CounterFunc(prefix+"_shared_total", what+" lookups coalesced onto an in-flight computation",
		func() uint64 { return stats().Shared })
	reg.CounterFunc(prefix+"_evictions_total", what+" entries evicted by the per-shard LRU",
		func() uint64 { return stats().Evictions })
	reg.GaugeFunc(prefix+"_entries", what+" entries resident, in-flight computations included",
		func() float64 { return float64(stats().Entries) })
}

// dialect returns the request counter for one dialect label.
func (m *metricsBundle) dialect(name string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.byDialect[name]
	if !ok {
		c = m.reg.Counter("sqlserved_dialect_requests_total", "requests per dialect",
			telemetry.Label{Key: "dialect", Value: name})
		m.byDialect[name] = c
	}
	return c
}
