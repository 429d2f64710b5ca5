// loadgen.go is the end-to-end serving benchmark: it starts a private
// sqlserved instance (fresh catalog, fresh registry — so /metrics reflects
// exactly this run), drives it over real HTTP with the deterministic
// workloads from internal/workload, and prints a per-dialect
// throughput/latency table. It then cross-checks the server's own
// telemetry against the client's request count: the latency histogram must
// have observed every request, and the product-cache hit/miss/coalesce
// counters must sum to the request count (every request resolves the
// catalog exactly once). Any request error or telemetry mismatch makes the
// run fail — this is the acceptance gate, not just a benchmark.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlspl/internal/product"
	"sqlspl/internal/server"
	"sqlspl/internal/sql2003"
	"sqlspl/internal/telemetry"
	"sqlspl/internal/workload"
)

type loadgenConfig struct {
	total        int
	dialects     []string
	concurrency  int
	want         string
	seed         uint64
	timeout      time.Duration
	hot          int // >0: restrict each dialect's pool to this many distinct statements
	streamMB     int // >0: stream mode — each request POSTs ≥ this many MB to /v1/stream
	memCeilingMB int // >0: fail if peak heap exceeds this during the run
}

// buildPools pre-generates the traffic: one deterministic pool per dialect,
// cycled by request index. With cfg.hot the pool shrinks to a hot set, so
// after one cold pass every request is a verdict-cache hit.
func buildPools(cfg loadgenConfig, defaultSize int) (map[string][]string, error) {
	poolSize := defaultSize
	if poolSize > 2000 {
		poolSize = 2000 // cycle a bounded pool; determinism is per-seed anyway
	}
	if cfg.hot > 0 && cfg.hot < poolSize {
		poolSize = cfg.hot
	}
	pool := map[string][]string{}
	for i, d := range cfg.dialects {
		queries, ok := workload.ForDialect(d, cfg.seed+uint64(i), poolSize)
		if !ok {
			return nil, fmt.Errorf("loadgen: no workload for dialect %q", d)
		}
		pool[d] = queries
	}
	return pool, nil
}

// runLoadgen drives the benchmark and returns an error on any failed
// request or telemetry mismatch.
func runLoadgen(cfg loadgenConfig) error {
	if cfg.total < 1 {
		return fmt.Errorf("loadgen: -n must be positive")
	}
	if len(cfg.dialects) == 0 {
		return fmt.Errorf("loadgen: no dialects")
	}
	if cfg.concurrency < 1 {
		cfg.concurrency = 1
	}
	if cfg.streamMB > 0 {
		return runStreamLoadgen(cfg)
	}
	if !server.ValidWant(cfg.want) {
		return fmt.Errorf("loadgen: unknown want %q", cfg.want)
	}

	// Request i targets dialect i%len — round-robin, so every dialect's
	// parser serves interleaved traffic, the serving shape the catalog
	// exists for.
	pool, err := buildPools(cfg, cfg.total/len(cfg.dialects)+1)
	if err != nil {
		return err
	}

	// Private server: its catalog and registry see only this run.
	s := server.New(server.Config{
		Catalog:        product.NewCatalog(sql2003.MustModel(), sql2003.Registry{}),
		Registry:       telemetry.NewRegistry(),
		MaxInFlight:    2 * cfg.concurrency, // never shed our own load
		RequestTimeout: cfg.timeout,
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	base := "http://" + addr
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.concurrency * 2,
		MaxIdleConnsPerHost: cfg.concurrency * 2,
	}}
	defer client.CloseIdleConnections()
	if err := waitReady(client, base, 10*time.Second); err != nil {
		return err
	}

	hotNote := ""
	if cfg.hot > 0 {
		hotNote = fmt.Sprintf(", hot set %d", cfg.hot)
	}
	fmt.Printf("loadgen: %d requests, dialects [%s], concurrency %d, want %s, seed %d%s\n",
		cfg.total, strings.Join(cfg.dialects, " "), cfg.concurrency, cfg.want, cfg.seed, hotNote)

	sampleMem := startMemSampler()

	// Fire. Latencies land in a preallocated per-request slice (workers
	// write disjoint indices; no lock), errors in a bounded sample.
	latencies := make([]time.Duration, cfg.total)
	failed := make([]bool, cfg.total)
	var errCount atomic.Uint64
	var errSample sync.Map
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.total {
					return
				}
				d := cfg.dialects[i%len(cfg.dialects)]
				q := pool[d][(i/len(cfg.dialects))%len(pool[d])]
				t0 := time.Now()
				err := postParse(client, base, server.ParseRequest{Dialect: d, SQL: q, Want: cfg.want})
				latencies[i] = time.Since(t0)
				if err != nil {
					failed[i] = true
					errCount.Add(1)
					errSample.LoadOrStore(fmt.Sprintf("%s: %v", d, err), true)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	peak := sampleMem()

	printTable(cfg, latencies, failed, elapsed)
	errs := int(errCount.Load())
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d/%d requests failed; sample:\n", errs, cfg.total)
		shown := 0
		errSample.Range(func(k, _ any) bool {
			fmt.Fprintf(os.Stderr, "  %s\n", k)
			shown++
			return shown < 5
		})
	}

	// Probe pass: one want=ast and one want=analysis parse plus a canonical
	// and a minified format per dialect, with fixed inputs whose outputs are
	// known — exercising the query-intelligence surface end to end on every
	// loadgen run and folding the requests into the telemetry cross-check.
	probeParse, probeFormat := 0, 0
	for _, d := range cfg.dialects {
		for _, w := range []string{server.WantAST, server.WantAnalysis} {
			if err := postParse(client, base, server.ParseRequest{Dialect: d, SQL: "SELECT a FROM t", Want: w}); err != nil {
				return fmt.Errorf("loadgen: probe want=%s dialect %s: %w", w, d, err)
			}
			probeParse++
		}
		for _, minify := range []bool{false, true} {
			got, err := postFormat(client, base, server.FormatRequest{Dialect: d, SQL: "select   a  from t", Minify: minify})
			if err != nil {
				return fmt.Errorf("loadgen: probe format dialect %s: %w", d, err)
			}
			if got != "SELECT a FROM t" { // every inter-word space is load-bearing: minified == canonical here
				return fmt.Errorf("loadgen: probe format dialect %s: got %q", d, got)
			}
			probeFormat++
		}
	}
	fmt.Printf("loadgen: probes OK — %d ast/analysis parses, %d formats\n", probeParse, probeFormat)

	// Only want=verdict rides the verdict cache; every such request is
	// exactly one lookup, and misses cannot exceed the distinct statements
	// driven (the pools fit the cache, so nothing evicts mid-run). The
	// probes above ride the parse histogram too.
	expect := metricsExpect{
		parseReqs:       cfg.total + probeParse,
		formatReqs:      probeFormat,
		latencyObserved: cfg.total + probeParse + probeFormat,
		catalogResolves: cfg.total + probeParse + probeFormat,
		verdictLookups:  -1,
		generatedParses: cfg.total + probeParse + probeFormat,
	}
	if cfg.want == server.WantVerdict {
		expect.verdictLookups = int64(cfg.total)
		expect.generatedParses -= cfg.total
		for _, d := range cfg.dialects {
			expect.verdictDistinct += int64(len(pool[d]))
		}
	}
	mismatches, err := verifyMetrics(client, base, expect)
	if err != nil {
		return err
	}
	if err := checkPeakHeap(peak, cfg.memCeilingMB); err != nil {
		return err
	}
	if errs > 0 || mismatches > 0 {
		return fmt.Errorf("loadgen: %d request errors, %d telemetry mismatches", errs, mismatches)
	}
	fmt.Printf("loadgen: OK — %d requests, zero errors, telemetry consistent\n", cfg.total)
	return nil
}

// scriptGen synthesizes a ';'-separated SQL script of at least target bytes
// by cycling a statement pool — the streaming request body. It implements
// io.Reader so the script is never materialized: the client chunks it onto
// the wire as the server consumes it.
//
// Each statement carries a leading comment. A statement's leading trivia
// is part of its text, and so of its verdict-cache key, so the comment
// sets how many distinct statements the stream holds: with hot > 0 the
// script cycles exactly hot distinct statements, otherwise every statement
// of every request is distinct and each one misses the cache.
type scriptGen struct {
	pool    []string
	target  int64
	hot     int // >0: cycle this many distinct statements
	req     int // request index, tags cold statements
	written int64
	stmts   int64
	pending string
	i       int
}

func (g *scriptGen) Read(p []byte) (int, error) {
	if g.pending == "" {
		if g.written >= g.target {
			return 0, io.EOF
		}
		if g.hot > 0 {
			k := g.i % g.hot
			g.pending = fmt.Sprintf("\n/* h%d */ %s;", k, g.pool[k%len(g.pool)])
		} else {
			g.pending = fmt.Sprintf("\n/* r%d s%d */ %s;", g.req, g.i, g.pool[g.i%len(g.pool)])
		}
		g.i++
		g.written += int64(len(g.pending))
		g.stmts++
	}
	n := copy(p, g.pending)
	g.pending = g.pending[n:]
	return n, nil
}

// runStreamLoadgen is loadgen's streaming mode: each request POSTs a
// synthesized multi-MB script to /v1/stream and consumes the NDJSON
// response incrementally, verifying the summary trailer accounts for every
// generated statement with zero rejections. A heap sampler runs throughout
// — the point of the mode is that peak memory stays flat no matter how
// many MB stream through, and -mem-ceiling-mb turns that into a hard gate.
// With cfg.hot the streams cycle that many distinct statements per dialect
// and are answered mostly from the verdict cache; without it every
// statement is distinct, so each one is checked by a pipeline worker.
func runStreamLoadgen(cfg loadgenConfig) error {
	pool, err := buildPools(cfg, 512)
	if err != nil {
		return err
	}

	s := server.New(server.Config{
		Catalog:        product.NewCatalog(sql2003.MustModel(), sql2003.Registry{}),
		Registry:       telemetry.NewRegistry(),
		MaxInFlight:    2 * cfg.concurrency,
		RequestTimeout: cfg.timeout,
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	base := "http://" + addr
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.concurrency * 2,
		MaxIdleConnsPerHost: cfg.concurrency * 2,
	}}
	defer client.CloseIdleConnections()
	if err := waitReady(client, base, 10*time.Second); err != nil {
		return err
	}

	distinctNote := "every statement distinct"
	if cfg.hot > 0 {
		distinctNote = fmt.Sprintf("hot set %d", cfg.hot)
	}
	fmt.Printf("loadgen: %d stream requests × ≥%d MB, dialects [%s], concurrency %d, seed %d, %s\n",
		cfg.total, cfg.streamMB, strings.Join(cfg.dialects, " "), cfg.concurrency, cfg.seed, distinctNote)

	sampleMem := startMemSampler()
	var (
		totalStatements atomic.Int64
		totalBytes      atomic.Int64
		errCount        atomic.Uint64
		errSample       sync.Map
		next            atomic.Int64
		wg              sync.WaitGroup
	)
	workers := cfg.concurrency
	if workers > cfg.total {
		workers = cfg.total
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.total {
					return
				}
				d := cfg.dialects[i%len(cfg.dialects)]
				gen := &scriptGen{pool: pool[d], target: int64(cfg.streamMB) << 20, hot: cfg.hot, req: i}
				stmts, err := postStream(client, base, d, gen)
				totalStatements.Add(stmts)
				totalBytes.Add(gen.written)
				if err != nil {
					errCount.Add(1)
					errSample.LoadOrStore(fmt.Sprintf("%s: %v", d, err), true)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	peak := sampleMem()

	mb := float64(totalBytes.Load()) / (1 << 20)
	fmt.Printf("stream: %d requests, %.0f MB, %d statements in %s (%.0f MB/s, %.0f stmt/s), peak heap %.1f MB\n",
		cfg.total, mb, totalStatements.Load(), elapsed.Round(time.Millisecond),
		mb/elapsed.Seconds(), float64(totalStatements.Load())/elapsed.Seconds(), float64(peak)/(1<<20))

	errs := int(errCount.Load())
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d/%d stream requests failed; sample:\n", errs, cfg.total)
		shown := 0
		errSample.Range(func(k, _ any) bool {
			fmt.Fprintf(os.Stderr, "  %s\n", k)
			shown++
			return shown < 5
		})
	}

	// Every distinct statement misses exactly once: a hot set fits the
	// verdict cache, and a cold stream never repeats a statement.
	expect := metricsExpect{
		catalogResolves:  cfg.total,
		streamReqs:       cfg.total,
		streamStatements: totalStatements.Load(),
		verdictLookups:   totalStatements.Load(),
		verdictDistinct:  totalStatements.Load(),
		verdictExact:     true,
	}
	if cfg.hot > 0 {
		expect.verdictDistinct = int64(cfg.hot * min(cfg.total, len(cfg.dialects)))
	}
	mismatches, err := verifyMetrics(client, base, expect)
	if err != nil {
		return err
	}
	if err := checkPeakHeap(peak, cfg.memCeilingMB); err != nil {
		return err
	}
	if errs > 0 || mismatches > 0 {
		return fmt.Errorf("loadgen: %d request errors, %d telemetry mismatches", errs, mismatches)
	}
	fmt.Printf("loadgen: OK — %d stream requests, %d statements, zero errors, telemetry consistent\n",
		cfg.total, totalStatements.Load())
	return nil
}

// postStream issues one streaming request and consumes the NDJSON response
// line by line, never holding more than one record. It returns the number
// of statements the generator emitted and an error unless the summary
// trailer accounts for exactly that many statements, all accepted.
func postStream(client *http.Client, base string, dialect string, gen *scriptGen) (int64, error) {
	resp, err := client.Post(base+"/v1/stream?dialect="+dialect, "application/sql", gen)
	if err != nil {
		return gen.stmts, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return gen.stmts, fmt.Errorf("status %d: %s", resp.StatusCode, truncate(string(data), 200))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	records := int64(0)
	var last string
	for sc.Scan() {
		records++
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		return gen.stmts, fmt.Errorf("reading stream response: %w", err)
	}
	var sum server.StreamSummary
	if err := json.Unmarshal([]byte(last), &sum); err != nil || !sum.Summary {
		return gen.stmts, fmt.Errorf("stream response did not end in a summary trailer: %q", truncate(last, 200))
	}
	if sum.Error != "" {
		return gen.stmts, fmt.Errorf("stream aborted: %s", sum.Error)
	}
	if int64(sum.Statements) != gen.stmts || records-1 != gen.stmts {
		return gen.stmts, fmt.Errorf("stream answered %d statements (%d records) for %d sent",
			sum.Statements, records-1, gen.stmts)
	}
	if sum.Rejected != 0 {
		return gen.stmts, fmt.Errorf("stream rejected %d statements", sum.Rejected)
	}
	return gen.stmts, nil
}

// startMemSampler watches the heap until stopped and reports the peak
// HeapAlloc observed, in bytes. 25ms sampling is coarse, but the streaming
// scanner's window is steady-state — a leak proportional to input size
// cannot hide between samples.
func startMemSampler() (stop func() uint64) {
	var peak atomic.Uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak.Load()
	}
}

// checkPeakHeap turns the sampled peak into a hard gate when a ceiling was
// requested. The peak covers client and in-process server together — an
// over-ceiling reading on either side fails the soak.
func checkPeakHeap(peak uint64, ceilingMB int) error {
	if ceilingMB <= 0 {
		return nil
	}
	if peak > uint64(ceilingMB)<<20 {
		return fmt.Errorf("loadgen: peak heap %.1f MB exceeds ceiling %d MB", float64(peak)/(1<<20), ceilingMB)
	}
	fmt.Printf("loadgen: peak heap %.1f MB within ceiling %d MB\n", float64(peak)/(1<<20), ceilingMB)
	return nil
}

// postParse issues one parse request; any transport failure, non-200
// status or ok=false response is an error.
func postParse(client *http.Client, base string, req server.ParseRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/parse", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, truncate(string(data), 200))
	}
	var pr server.ParseResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return err
	}
	if !pr.OK {
		return fmt.Errorf("parse rejected: %s", truncate(pr.Error.Message, 200))
	}
	return nil
}

// postFormat issues one format request and returns the formatted SQL; any
// transport failure, non-200 status or ok=false response is an error.
func postFormat(client *http.Client, base string, req server.FormatRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := client.Post(base+"/v1/format", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, truncate(string(data), 200))
	}
	var fr server.FormatResponse
	if err := json.Unmarshal(data, &fr); err != nil {
		return "", err
	}
	if !fr.OK {
		return "", fmt.Errorf("format refused: %s", truncate(fr.Error.Message, 200))
	}
	return fr.SQL, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// waitReady polls /readyz until 200 or the deadline.
func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %s", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// printTable renders the per-dialect and total throughput/latency rows.
func printTable(cfg loadgenConfig, latencies []time.Duration, failed []bool, elapsed time.Duration) {
	fmt.Printf("%-11s %9s %7s %11s %9s %9s %9s\n",
		"DIALECT", "REQUESTS", "ERRORS", "QPS", "P50", "P95", "P99")
	row := func(name string, lats []time.Duration, errs int, wall time.Duration) {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) time.Duration {
			if len(lats) == 0 {
				return 0
			}
			i := int(p * float64(len(lats)))
			if i >= len(lats) {
				i = len(lats) - 1
			}
			return lats[i]
		}
		qps := float64(len(lats)) / wall.Seconds()
		fmt.Printf("%-11s %9d %7d %11.0f %9s %9s %9s\n", name, len(lats), errs, qps,
			q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond), q(0.99).Round(time.Microsecond))
	}
	for di, d := range cfg.dialects {
		var lats []time.Duration
		errs := 0
		for i := di; i < cfg.total; i += len(cfg.dialects) {
			lats = append(lats, latencies[i])
			if failed[i] {
				errs++
			}
		}
		// Per-dialect QPS shares the wall clock: dialects are interleaved,
		// so each row reports its share of the total rate.
		row(d, lats, errs, elapsed)
	}
	all := make([]time.Duration, len(latencies))
	copy(all, latencies)
	totalErrs := 0
	for _, f := range failed {
		if f {
			totalErrs++
		}
	}
	row("TOTAL", all, totalErrs, elapsed)
}

// metricsExpect is what a loadgen run expects /metrics to show afterwards.
// verdictLookups < 0 skips the verdict-cache assertions (non-verdict wants
// never touch that cache).
type metricsExpect struct {
	parseReqs        int   // /v1/parse requests (requests_total)
	formatReqs       int   // /v1/format requests (requests_total; errors must be zero)
	latencyObserved  int   // latency histogram count (parse + format requests)
	catalogResolves  int   // product-cache hits+misses+shared must sum to this
	streamReqs       int   // /v1/stream requests
	streamStatements int64 // statements answered across all streams
	verdictLookups   int64 // verdict-cache hits+misses+shared must sum to this
	verdictDistinct  int64 // ... and misses must not exceed this
	verdictExact     bool  // ... or, when set, must equal it
	generatedParses  int   // generated Parse calls: parse and format requests not answered by verdict
}

// verifyMetrics scrapes /metrics as JSON and asserts the loadgen
// invariants: the latency histogram observed every parse request, the
// product-cache counters sum to the resolve count (every request resolves
// the catalog exactly once), the stream counters account for every
// streamed request and statement, and — on the verdict path — the verdict
// cache saw exactly one lookup per statement with misses bounded by the
// distinct statements driven. The engine seam's counters must agree: one
// generated Check per verdict-cache miss, one generated Parse per other
// parse or format request, and no interpreted work or Diagnose, since
// loadgen sends only valid preset statements.
func verifyMetrics(client *http.Client, base string, expect metricsExpect) (mismatches int, err error) {
	resp, err := client.Get(base + "/metrics?format=json")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, fmt.Errorf("metrics scrape: %w", err)
	}
	value := func(name string) float64 {
		if m := snap.Find(name); m != nil {
			return m.Value
		}
		return -1
	}

	hist := snap.Find("sqlserved_parse_latency_seconds")
	histCount := uint64(0)
	if hist != nil {
		histCount = hist.Count
	}
	if histCount != uint64(expect.latencyObserved) {
		fmt.Printf("telemetry MISMATCH: latency histogram count = %d, want %d\n", histCount, expect.latencyObserved)
		mismatches++
	} else if hist != nil && histCount > 0 {
		fmt.Printf("telemetry: latency histogram count = %d, p50 %.0fµs, p95 %.0fµs, p99 %.0fµs\n",
			hist.Count, hist.P50*1e6, hist.P95*1e6, hist.P99*1e6)
	}

	hits := value("sqlspl_product_cache_hits_total")
	misses := value("sqlspl_product_cache_misses_total")
	shared := value("sqlspl_product_cache_shared_total")
	if sum := hits + misses + shared; sum != float64(expect.catalogResolves) {
		fmt.Printf("telemetry MISMATCH: cache hits(%.0f)+misses(%.0f)+shared(%.0f) = %.0f, want %d\n",
			hits, misses, shared, sum, expect.catalogResolves)
		mismatches++
	} else {
		fmt.Printf("telemetry: cache hits %.0f + misses %.0f + coalesced %.0f = %d requests\n",
			hits, misses, shared, expect.catalogResolves)
	}
	if expect.parseReqs > 0 {
		if reqs := value("sqlserved_parse_requests_total"); reqs != float64(expect.parseReqs) {
			fmt.Printf("telemetry MISMATCH: parse_requests_total = %.0f, want %d\n", reqs, expect.parseReqs)
			mismatches++
		}
	}
	if expect.formatReqs > 0 {
		if reqs := value("sqlserved_format_requests_total"); reqs != float64(expect.formatReqs) {
			fmt.Printf("telemetry MISMATCH: format_requests_total = %.0f, want %d\n", reqs, expect.formatReqs)
			mismatches++
		}
		if errs := value("sqlserved_format_errors_total"); errs != 0 {
			fmt.Printf("telemetry MISMATCH: format_errors_total = %.0f, want 0\n", errs)
			mismatches++
		}
	}
	if expect.streamReqs > 0 {
		if reqs := value("sqlserved_stream_requests_total"); reqs != float64(expect.streamReqs) {
			fmt.Printf("telemetry MISMATCH: stream_requests_total = %.0f, want %d\n", reqs, expect.streamReqs)
			mismatches++
		}
		if sts := value("sqlserved_stream_statements_total"); sts != float64(expect.streamStatements) {
			fmt.Printf("telemetry MISMATCH: stream_statements_total = %.0f, want %d\n", sts, expect.streamStatements)
			mismatches++
		}
	}
	if expect.verdictLookups >= 0 {
		vh := value("sqlspl_verdict_cache_hits_total")
		vm := value("sqlspl_verdict_cache_misses_total")
		vs := value("sqlspl_verdict_cache_shared_total")
		if sum := vh + vm + vs; sum != float64(expect.verdictLookups) {
			fmt.Printf("telemetry MISMATCH: verdict cache hits(%.0f)+misses(%.0f)+shared(%.0f) = %.0f, want %d\n",
				vh, vm, vs, sum, expect.verdictLookups)
			mismatches++
		} else if expect.verdictExact && vm != float64(expect.verdictDistinct) {
			fmt.Printf("telemetry MISMATCH: verdict cache misses %.0f, want exactly the %d distinct statements driven\n",
				vm, expect.verdictDistinct)
			mismatches++
		} else if vm > float64(expect.verdictDistinct) {
			fmt.Printf("telemetry MISMATCH: verdict cache misses %.0f exceed the %d distinct statements driven\n",
				vm, expect.verdictDistinct)
			mismatches++
		} else {
			bound := "≤"
			if expect.verdictExact {
				bound = "misses = "
			}
			fmt.Printf("telemetry: verdict cache hits %.0f + misses %.0f + coalesced %.0f = %d lookups (%s%d distinct)\n",
				vh, vm, vs, expect.verdictLookups, bound, expect.verdictDistinct)
		}
	}

	before := mismatches
	parses := value("sqlspl_engine_generated_parses_total")
	if parses != float64(expect.generatedParses) {
		fmt.Printf("telemetry MISMATCH: engine generated parses %.0f, want %d\n", parses, expect.generatedParses)
		mismatches++
	}
	checks, vm := value("sqlspl_engine_generated_checks_total"), value("sqlspl_verdict_cache_misses_total")
	if checks != vm {
		fmt.Printf("telemetry MISMATCH: engine generated checks %.0f, want the %.0f verdict-cache misses\n", checks, vm)
		mismatches++
	}
	for _, name := range []string{
		"sqlspl_engine_interpreted_parses_total",
		"sqlspl_engine_interpreted_checks_total",
		"sqlspl_engine_diagnoses_total",
		"sqlspl_engine_diagnose_fallbacks_total",
	} {
		if v := value(name); v != 0 {
			fmt.Printf("telemetry MISMATCH: %s = %.0f, want 0\n", name, v)
			mismatches++
		}
	}
	if mismatches == before {
		fmt.Printf("telemetry: engine seam generated parses %.0f, checks %.0f (= verdict misses), no interpreted work or Diagnose\n",
			parses, checks)
	}
	return mismatches, nil
}
