// metrics.go wires the serving subsystem into the telemetry registry:
// handler-owned counters and histograms, plus scrape-time samplers over
// the counters other packages own (product catalog, verdict cache,
// configuration memo, engine seam, analysis pass).
package server

import (
	"sync"

	"sqlspl/internal/analyze"
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

	// Product-cache counters, sampled from the catalog at scrape time. For
	// a server with a private catalog, hits+misses+shared equals the number
	// of catalog resolutions — one per warmed preset and per admitted
	// parse, format, batch or stream request, none for /v1/dialects — which
	// is how the load generator cross-checks /metrics against its request
	// count.
	reg.CounterFunc("sqlspl_product_cache_hits_total", "catalog requests answered from cache",
		func() uint64 { return cat.Stats().Hits })
	reg.CounterFunc("sqlspl_product_cache_misses_total", "catalog requests that built the product",
		func() uint64 { return cat.Stats().Misses })
	reg.CounterFunc("sqlspl_product_cache_shared_total", "catalog requests coalesced onto an in-flight build",
		func() uint64 { return cat.Stats().Shared })
	reg.GaugeFunc("sqlspl_product_cache_entries", "catalog slots (products, failures, in-flight builds)",
		func() float64 { return float64(cat.Stats().Entries) })
	reg.GaugeFunc("sqlspl_product_cache_inflight_builds", "builds currently running",
		func() float64 { return float64(cat.Stats().InFlight) })

	// Hot-statement verdict cache, sampled at scrape time.
	reg.CounterFunc("sqlspl_verdict_cache_hits_total", "statement verdicts answered from the hot-statement cache",
		func() uint64 { return vcache.Stats().Hits })
	reg.CounterFunc("sqlspl_verdict_cache_misses_total", "statement verdicts computed by an engine",
		func() uint64 { return vcache.Stats().Misses })
	reg.CounterFunc("sqlspl_verdict_cache_shared_total", "verdict lookups coalesced onto an in-flight computation",
		func() uint64 { return vcache.Stats().Shared })
	reg.CounterFunc("sqlspl_verdict_cache_evictions_total", "verdicts evicted by the per-shard LRU",
		func() uint64 { return vcache.Stats().Evictions })
	reg.GaugeFunc("sqlspl_verdict_cache_entries", "verdicts currently cached",
		func() float64 { return float64(vcache.Stats().Entries) })

	// Configuration-completion memo (configure.CachedComplete), behind the
	// same sharded cache primitive.
	reg.CounterFunc("sqlspl_configure_cache_hits_total", "completions answered from the solver memo",
		func() uint64 { return solver.CompletionCacheStats().Hits })
	reg.CounterFunc("sqlspl_configure_cache_misses_total", "completions solved and memoized",
		func() uint64 { return solver.CompletionCacheStats().Misses })
	reg.GaugeFunc("sqlspl_configure_cache_entries", "completion memo entries",
		func() float64 { return float64(solver.CompletionCacheStats().Entries) })

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
