// Package server is the networked parse-serving subsystem: an HTTP
// service that resolves parser products through the product catalog and
// serves parse requests for any preset dialect or explicit feature
// selection, with built-in telemetry.
//
// The paper generates one parser per feature selection; the product
// catalog (internal/product) makes those parsers shareable within a
// process; this package makes them shareable across one. Because the
// catalog coalesces builds and the generated parsers are safe for
// concurrent use, the server holds no per-request parser state at all:
// a request is admission → catalog lookup → parse → encode.
//
// Operational behaviour, in the order a request meets it:
//
//   - Routing: each endpoint is a method pattern, so a wrong method gets
//     the mux's 405 with an Allow header before any handler runs.
//   - Front: /v1/parse, /v1/format, /v1/batch and /v1/stream share one
//     request front — admission, request count, resolve, dialect count —
//     and every JSON body decodes through one decoder that answers 400.
//   - Admission: a semaphore bounds in-flight requests (Config.MaxInFlight).
//     At saturation the server answers 429 with Retry-After immediately
//     rather than queueing — load-shedding at the front door keeps parse
//     latency flat under overload.
//   - Deadline: each admitted request runs under Config.RequestTimeout,
//     on the goroutine net/http serves it on. A parse that overruns gets
//     504 from a callback on the deadline context, with Connection:
//     close; the parse itself runs on to the end (the engine has no
//     preemption points), keeps its admission slot until it does, and
//     its latency is still observed, so neither admission nor the
//     histogram undercounts. A client that goes away is not a timeout.
//     A batch's workers stop claiming queries at the deadline.
//   - Drain: Shutdown first fails readiness (/readyz → 503, so load
//     balancers stop routing), then gracefully drains: in-flight requests
//     complete, work abandoned at its deadline included, and new
//     connections are refused.
//
// Telemetry: every server owns a telemetry.Registry exposed at /metrics
// (Prometheus text or JSON). Request counters, per-dialect counters and
// the parse-latency histogram are maintained by the handlers; the product
// catalog's and verdict cache's counters and the engine seam's per-kind
// counters of engine work are sampled at scrape time.
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"sqlspl/internal/configure"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
	"sqlspl/internal/product"
	"sqlspl/internal/telemetry"

	// The serving surface links the pregenerated preset parsers: the
	// catalog promotes matching products to their generated engines.
	_ "sqlspl/internal/engine/generated"
)

// Config configures a Server. The zero value serves the default catalog
// with sensible bounds.
type Config struct {
	// Catalog resolves products; nil means product.Default().
	Catalog *product.Catalog
	// Registry receives the server's metrics; nil means a fresh registry.
	Registry *telemetry.Registry
	// MaxInFlight bounds concurrently admitted requests; <= 0 means
	// 4 × GOMAXPROCS (parses are CPU-bound; a small multiple keeps the
	// cores busy while bounding memory).
	MaxInFlight int
	// RequestTimeout is the per-request deadline; <= 0 means 10s.
	RequestTimeout time.Duration
	// BatchWorkers is the number of workers that check one /v1/batch or
	// /v1/stream request's statements; <= 0 means GOMAXPROCS. The bound
	// applies per request: each admitted batch or stream may keep that
	// many cores busy. A batch's own request goroutine is one of its
	// workers.
	BatchWorkers int
	// MaxBodyBytes caps request bodies; <= 0 means 4 MiB.
	MaxBodyBytes int64
	// Warm lists presets to build before the server reports ready.
	Warm []dialect.Name
}

// Server is the parse service. Construct with New; a Server serves until
// Shutdown.
type Server struct {
	cfg    Config
	cat    *product.Catalog
	reg    *telemetry.Registry
	solver *configure.Solver
	vcache *product.VerdictCache
	sem    chan struct{}
	mux    *http.ServeMux
	hs     *http.Server
	ln     net.Listener

	ready    atomic.Bool
	draining atomic.Bool

	m *metricsBundle

	// testHookAdmitted, when set, runs inside the admitted section of the
	// parse handler, before the parse. Tests use it to hold requests
	// in-flight deterministically.
	testHookAdmitted func()
	// testHookParse, when set, runs in /v1/parse's work, on the request
	// goroutine under the deadline, before the parse. Tests use it to park
	// a parse past its deadline or to inject a panic into the work.
	testHookParse func()
	// testHookCheck, when set, runs on a /v1/batch or /v1/stream worker
	// before each query or statement is checked, with its text. Tests use
	// it to inject a panic into one statement or to cancel mid-batch.
	testHookCheck func(text string)
}

// New builds a server from the config. It does not listen yet; call Start
// (or mount Handler on a listener of your own).
func New(cfg Config) *Server {
	if cfg.Catalog == nil {
		cfg.Catalog = product.Default()
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	s := &Server{
		cfg:    cfg,
		cat:    cfg.Catalog,
		reg:    cfg.Registry,
		solver: configure.New(cfg.Catalog.Model()),
		sem:    make(chan struct{}, cfg.MaxInFlight),
		vcache: product.NewVerdictCache(product.DefaultVerdictCacheCapacity),
	}
	s.m = newMetricsBundle(s.reg, s.cat, s.vcache, s.solver)

	// Method patterns: the mux answers a wrong method with 405 and an
	// Allow header, so no handler checks r.Method.
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/parse", s.handleParse)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/format", s.handleFormat)
	s.mux.HandleFunc("POST /v1/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/configure", s.handleConfigure)
	s.mux.HandleFunc("GET /v1/dialects", s.handleDialects)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.hs = &http.Server{Handler: s.withRecovery(s.mux), ReadHeaderTimeout: 5 * time.Second}
	return s
}

// withRecovery converts a handler panic into a 500 with the panic counted,
// instead of letting net/http tear down the connection (or, for panics in
// non-handler goroutines, the process). It is the outermost middleware:
// whatever else breaks, the daemon keeps serving.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Inc()
				// Best effort: if the handler already started the response
				// the status is on the wire and this write is dropped.
				writeJSON(w, http.StatusInternalServerError,
					errorBody{Error: fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Handler returns the server's HTTP handler (with panic recovery), for
// mounting under a custom http.Server (tests use this with httptest).
func (s *Server) Handler() http.Handler { return s.withRecovery(s.mux) }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Catalog returns the catalog the server resolves products through.
func (s *Server) Catalog() *product.Catalog { return s.cat }

// Warm builds every preset in Config.Warm through the catalog. It is
// called by Start before readiness; exported so embedders running their
// own listener can warm explicitly.
func (s *Server) Warm() error {
	for _, name := range s.cfg.Warm {
		if _, _, _, err := s.resolve(string(name), nil); err != nil {
			return fmt.Errorf("warm %s: %w", name, err)
		}
	}
	return nil
}

// Start listens on addr (host:port; port 0 picks a free port), warms the
// configured presets, marks the server ready and serves in the background.
// It returns the bound address. The liveness endpoint answers as soon as
// Start's listener is up; readiness flips only after warming.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go func() {
		// ErrServerClosed is the normal Shutdown result; anything else
		// surfaces on the next request, which is as good as a crash here.
		_ = s.hs.Serve(ln)
	}()
	if err := s.Warm(); err != nil {
		ln.Close()
		return "", err
	}
	s.ready.Store(true)
	return ln.Addr().String(), nil
}

// MarkReady flips readiness without Start — for embedders using Handler.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Shutdown drains the server: readiness fails immediately (load balancers
// stop routing), in-flight requests run to completion, and the listener
// closes. It returns when the drain finishes or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ready.Store(false)
	return s.hs.Shutdown(ctx)
}

// admit tries to take an in-flight slot without blocking. Admission is
// deliberately non-queueing: a saturated server sheds load with 429 so
// clients retry against fresh capacity instead of stacking up behind it.
func (s *Server) admit() bool {
	select {
	case s.sem <- struct{}{}:
		s.m.inflight.Add(1)
		return true
	default:
		return false
	}
}

// release returns an admission slot.
func (s *Server) release() {
	s.m.inflight.Add(-1)
	<-s.sem
}

// resolve turns a request's dialect name or explicit feature selection
// into its catalog slot: the product, its serving engine (the generated
// backend for promoted presets, the interpreted backend otherwise;
// explicit selections always interpret, as no parser is pregenerated for
// arbitrary configurations) and the label naming the dialect in metrics,
// "custom" for explicit selections. Every call counts exactly one catalog
// hit, miss or shared lookup. A preset resolves through its
// pre-fingerprinted selection and allocates nothing once built.
func (s *Server) resolve(dialectName string, features []string) (*core.Product, engine.Engine, string, error) {
	switch {
	case dialectName != "" && len(features) > 0:
		return nil, nil, "", fmt.Errorf("request selects both dialect %q and an explicit feature list; choose one", dialectName)
	case dialectName != "":
		sel, err := dialect.Selection(dialect.Name(dialectName))
		if err != nil {
			return nil, nil, "", err
		}
		prod, eng, err := s.cat.ResolveSelection(sel)
		return prod, eng, dialectName, err
	case len(features) > 0:
		prod, eng, err := s.cat.Resolve(feature.NewConfig(features...), core.Options{Product: "custom"})
		return prod, eng, "custom", err
	}
	return nil, nil, "", fmt.Errorf("request selects no dialect and no features")
}
