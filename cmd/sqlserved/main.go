// Command sqlserved serves the product line's parsers over HTTP: parse
// requests for any preset dialect or explicit feature selection resolve
// through the shared product catalog, with admission control, per-request
// deadlines, graceful drain on SIGTERM/SIGINT, and built-in telemetry at
// /metrics (Prometheus text or JSON). Preset dialects serve through their
// pregenerated parsers (the catalog promotes matching builds;
// see sqlspl_catalog_promotions_total in /metrics); explicit feature
// selections serve through the interpreted engine.
//
//	sqlserved -addr :8080 -warm all
//	curl -s localhost:8080/v1/parse -d '{"dialect":"tinysql","sql":"SELECT nodeid FROM sensors SAMPLE PERIOD 1024"}'
//	curl -s localhost:8080/metrics
//
// Load-generator mode starts a private in-process server and drives it
// with internal/workload traffic over real HTTP, printing a per-dialect
// throughput/latency table and cross-checking /metrics against the
// request count — the serving benchmark recorded in EXPERIMENTS.md.
// -hot restricts the pools to a hot set so the verdict cache absorbs the
// load; -stream-mb switches to streaming mode (multi-MB scripts through
// /v1/stream, every statement distinct unless -hot is set);
// -mem-ceiling-mb makes the run's peak heap a hard gate:
//
//	sqlserved -loadgen -n 12000 -loadgen-dialects tinysql,scql,core -concurrency 32
//	sqlserved -loadgen -n 50000 -want verdict -hot 64
//	sqlserved -loadgen -n 2 -stream-mb 64 -hot 512 -loadgen-dialects core -concurrency 1 -mem-ceiling-mb 256
//	sqlserved -loadgen -n 1 -stream-mb 64 -loadgen-dialects core -concurrency 1 -mem-ceiling-mb 256
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sqlspl/internal/dialect"
	"sqlspl/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxInFlight = flag.Int("max-inflight", 0, "admission bound on concurrent requests (0 = 4×GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request deadline")
		workers     = flag.Int("workers", 0, "workers per /v1/batch or /v1/stream request, a batch's own request goroutine included; the bound applies to each request (0 = GOMAXPROCS)")
		warm        = flag.String("warm", "", "comma-separated presets to build before readiness, or 'all'")

		loadgen     = flag.Bool("loadgen", false, "run the load generator against a private in-process server")
		n           = flag.Int("n", 12000, "loadgen: total requests")
		lgDialects  = flag.String("loadgen-dialects", "tinysql,scql,core", "loadgen: comma-separated preset dialects to drive")
		concurrency = flag.Int("concurrency", 32, "loadgen: concurrent client connections")
		want        = flag.String("want", "render", "loadgen: response shape per request (verdict|tree|ast|render|analysis)")
		seed        = flag.Uint64("seed", 1, "loadgen: workload seed")
		hot         = flag.Int("hot", 0, "loadgen: restrict each dialect's pool to this many distinct statements (hot-set cache mode); in stream mode 0 makes every statement distinct")
		streamMB    = flag.Int("stream-mb", 0, "loadgen: stream mode — POST scripts of at least this many MB to /v1/stream")
		memCeiling  = flag.Int("mem-ceiling-mb", 0, "loadgen: fail if peak heap exceeds this many MB during the run")
	)
	flag.Parse()

	if *loadgen {
		if err := runLoadgen(loadgenConfig{
			total:        *n,
			dialects:     splitList(*lgDialects),
			concurrency:  *concurrency,
			want:         *want,
			seed:         *seed,
			timeout:      *timeout,
			hot:          *hot,
			streamMB:     *streamMB,
			memCeilingMB: *memCeiling,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "sqlserved:", err)
			os.Exit(1)
		}
		return
	}

	warmList, err := parseWarm(*warm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlserved:", err)
		os.Exit(1)
	}
	s := server.New(server.Config{
		MaxInFlight:    *maxInFlight,
		RequestTimeout: *timeout,
		BatchWorkers:   *workers,
		Warm:           warmList,
	})
	bound, err := s.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlserved:", err)
		os.Exit(1)
	}
	log.Printf("sqlserved: serving on %s (%d presets warmed, deadline %s)", bound, len(warmList), *timeout)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	stop()
	log.Printf("sqlserved: draining (in-flight requests completing)")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		log.Printf("sqlserved: drain incomplete: %v", err)
		os.Exit(1)
	}
	log.Printf("sqlserved: drained cleanly")
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseWarm resolves the -warm flag to preset names, validating each.
func parseWarm(s string) ([]dialect.Name, error) {
	if s == "" {
		return nil, nil
	}
	if s == "all" {
		return dialect.Names(), nil
	}
	var out []dialect.Name
	for _, part := range splitList(s) {
		name := dialect.Name(part)
		if _, err := dialect.Features(name); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}
