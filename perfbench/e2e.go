package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// slices is how many daemon processes one run measures in turn, each
	// started cold (one set-up sample each) and measured for an equal share
	// of the run. Pooling several processes averages out what differs from
	// one process to the next: memory layout, hash seeds, the collector's
	// phase. On a 2-core host the run-to-run spread of one process per run
	// was 10-15%.
	slices = 5
	// warmup is the steady-state traffic each daemon gets before it is
	// measured.
	warmup = 500 * time.Millisecond
	// windowLen is the granularity at which the measured phase is checked
	// for time stolen by the hypervisor.
	windowLen = time.Second
	// maxSteal is the share of the machine's CPU time the hypervisor may
	// have stolen during a window for the window to count. A quiet host
	// steals under 1%; a busy one 10-20%, which stretches every latency.
	maxSteal = 0.03
	// maxStretch bounds how long a slice keeps measuring, as a multiple of
	// its share of the run, while it waits for quiet windows: a 25 s run on
	// a host that is busy throughout ends after about 45 s.
	maxStretch = 1.5
)

// recorder accumulates what the client saw.
type recorder struct {
	latUS     []float64     // per measured request, µs
	busy      time.Duration // summed latency of measured requests
	stmts     int64         // statements carried by measured requests
	windows   []window      // the measured phase, cut into windows
	attempted int64         // statements sent and checked, any phase
	failed    int64         // statements answered wrongly, any phase
	rejects   int64         // known-invalid statements sent, any phase
	firstErr  error
}

// window is one stretch of the measured phase: the requests latUS[from:to],
// their summed latency and statements, and the share of the machine's CPU
// time the hypervisor stole meanwhile.
type window struct {
	from, to int
	busy     time.Duration
	stmts    int64
	steal    float64
}

// post sends one request and reads the whole response. The latency runs
// from send until the last response byte is read; checking the answer is
// the client's own cost and is left out.
func (d *daemon) post(r *request) (time.Duration, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if err != nil {
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("%s answered %d: %.200s", r.path, resp.StatusCode, body)
	}
	return elapsed, body, nil
}

// send posts r, checks the answer against the generator's and records it.
// It returns the latency and body of a correctly answered request.
func (rec *recorder) send(d *daemon, r *request, measured bool) (time.Duration, []byte, bool) {
	elapsed, body, err := d.post(r)
	n := int64(len(r.stmts))
	bad := n
	if err == nil {
		var b int
		b, err = check(r, body)
		bad = int64(b)
	}
	rec.attempted += n
	for _, s := range r.stmts {
		if !s.valid {
			rec.rejects++
		}
	}
	if bad > 0 {
		rec.failed += bad
		if rec.firstErr == nil {
			rec.firstErr = err
		}
		return 0, nil, false
	}
	if measured {
		rec.latUS = append(rec.latUS, float64(elapsed.Nanoseconds())/1e3)
		rec.busy += elapsed
		rec.stmts += n
	}
	return elapsed, body, true
}

// drive runs an unmeasured closed loop until the deadline: the next
// request is sent only once the previous one has been answered.
func (rec *recorder) drive(d *daemon, w workload, until time.Time) {
	for time.Now().Before(until) {
		rec.send(d, w.next(), false)
	}
}

// measure runs the measured closed loop in windows of about windowLen,
// each tagged with the hypervisor's steal, until the windows with at most
// maxSteal add up to target or the loop has run maxStretch times target.
func (rec *recorder) measure(d *daemon, w workload, target time.Duration) {
	var quiet time.Duration
	limit := time.Duration(maxStretch * float64(target))
	for start := time.Now(); quiet < target && time.Since(start) < limit; {
		win := window{from: len(rec.latUS), busy: rec.busy, stmts: rec.stmts}
		winStart, steal0 := time.Now(), stealTicks()
		for time.Since(winStart) < windowLen {
			rec.send(d, w.next(), true)
		}
		length := time.Since(winStart)
		win.to, win.busy, win.stmts = len(rec.latUS), rec.busy-win.busy, rec.stmts-win.stmts
		win.steal = float64(stealTicks()-steal0) / (length.Seconds() * clockTicks * float64(runtime.NumCPU()))
		rec.windows = append(rec.windows, win)
		if win.steal <= maxSteal {
			quiet += length
		}
	}
}

// measured pools the quiet windows — those in which the hypervisor stole
// at most maxSteal of the machine's CPU time, or, on a host that was busy
// for most of the run, the quieter half — and returns their latencies,
// request time and statements, plus how many windows were kept.
func (rec *recorder) measured() (latUS []float64, busy time.Duration, stmts int64, kept int) {
	var steals []float64
	for _, w := range rec.windows {
		steals = append(steals, w.steal)
	}
	limit := max(maxSteal, median(steals))
	for _, w := range rec.windows {
		if w.steal <= limit {
			latUS = append(latUS, rec.latUS[w.from:w.to]...)
			busy += w.busy
			stmts += w.stmts
			kept++
		}
	}
	return latUS, busy, stmts, kept
}

// calibrate times a fixed amount of hashing: a host-speed reading taken at
// the start and end of each run, printed as a diagnostic only.
func calibrate() time.Duration {
	buf := make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 32; i++ {
		buf[0] = byte(i)
		sum := sha256.Sum256(buf)
		buf[1] = sum[0]
	}
	return time.Since(start)
}

// daemonRun is what one run against the daemon measured.
type daemonRun struct {
	rec        *recorder
	setups     []float64 // seconds from exec to steady state, per cold start
	rss        []float64 // peak RSS per daemon, MB
	cpu        float64   // daemon CPU seconds over the measured phases
	hits, seen float64   // verdict-cache hits and lookups over the measured phases
	gateErr    error     // first workload-shape gate failure
}

// measureDaemon measures the workload on n daemons in turn, each for
// measure/n.
func measureDaemon(bin string, w workload, n int, measure time.Duration) (*daemonRun, error) {
	run := &daemonRun{rec: &recorder{}}
	for i := 0; i < n; i++ {
		if err := run.slice(bin, w, measure/time.Duration(n)); err != nil {
			return nil, err
		}
	}
	if run.rec.stmts == 0 {
		return nil, fmt.Errorf("no request completed in the measured phase: %v", run.rec.firstErr)
	}
	return run, nil
}

// slice starts one daemon cold and times it to steady state (readiness
// plus the workload's own product builds), primes and warms it, measures
// a closed loop for the given quiet time and reads the daemon's counters.
func (run *daemonRun) slice(bin string, w workload, measure time.Duration) error {
	rec := run.rec
	d, ready, err := startDaemon(bin)
	if err != nil {
		return err
	}
	defer d.stop()
	start := time.Now()
	for _, r := range w.setup() {
		rec.send(d, r, false)
	}
	run.setups = append(run.setups, (ready + time.Since(start)).Seconds())

	m0, err := d.counters()
	if err != nil {
		return err
	}
	rejects0 := rec.rejects
	for _, r := range w.prime() {
		rec.send(d, r, false)
	}
	rec.drive(d, w, time.Now().Add(warmup))
	m1, err := d.counters()
	if err != nil {
		return err
	}
	pid := d.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	rec.measure(d, w, measure)
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	m2, err := d.counters()
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return err
	}
	run.rss = append(run.rss, rss)
	run.cpu += cpu1 - cpu0
	hits := m2["sqlspl_verdict_cache_hits_total"] - m1["sqlspl_verdict_cache_hits_total"]
	misses := m2["sqlspl_verdict_cache_misses_total"] - m1["sqlspl_verdict_cache_misses_total"]
	run.hits += hits
	run.seen += hits + misses
	if err := shapeGate(w, ratio(hits, hits+misses), rec.rejects-rejects0, m0, m2); err != nil && run.gateErr == nil {
		run.gateErr = err
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runE2E measures the end-to-end metrics of one workload against the
// daemon binary.
func runE2E(bin, name string, seed uint64, seconds int) (*result, error) {
	// The client is one sequential loop: one processor and a lazy collector
	// keep it from competing with the daemon for the two cores.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	calStart := calibrate()
	run, err := measureDaemon(bin, w, slices, time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	calEnd := calibrate()
	rec := run.rec
	latUS, busy, stmts, kept := rec.measured()
	var steal []float64
	for _, w := range rec.windows {
		steal = append(steal, w.steal)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests, %d statements in %.2fs of request time, from %d of %d windows (hypervisor steal per window, median %.3f, max %.3f); daemon cpu %.1fus/stmt; failed_ratio %g\n",
		name, seed, len(latUS), stmts, busy.Seconds(), kept, len(rec.windows), median(steal), quantile(steal, 1),
		run.cpu*1e6/float64(rec.stmts), float64(rec.failed)/float64(rec.attempted))
	fmt.Fprintf(os.Stderr, "perfbench: set-up per cold start (s): %.3f; host calibration %.1fms at start, %.1fms at end\n",
		run.setups, ms(calStart), ms(calEnd))
	report(rec, run.gateErr)
	return &result{
		Correct:   rec.failed == 0 && run.gateErr == nil,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics: map[string]metric{
			"setup_s":     {median(run.setups), "s"},
			"stmts_per_s": {float64(stmts) / busy.Seconds(), "1/s"},
			"p50_us":      {quantile(latUS, 0.50), "us"},
			"p90_us":      {quantile(latUS, 0.90), "us"},
			"peak_rss_mb": {median(run.rss), "MB"},
		},
	}, nil
}

// report prints the first wrong answer and any gate failure.
func report(rec *recorder, gateErr error) {
	if rec.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first wrong answer:", rec.firstErr)
	}
	if gateErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: workload shape gate failed:", gateErr)
	}
}

// shapeGate fails the run when the daemon's own counters show the workload
// did not have its intended shape: hot traffic missing the verdict cache,
// cold traffic hitting it, interpreted traffic reaching a generated engine,
// or products built more often than the workload has products. hitRatio
// covers the measured phase; rejects and the m0→m2 deltas cover priming,
// warm-up and measured traffic.
func shapeGate(w workload, hitRatio float64, rejects int64, m0, m2 map[string]float64) error {
	if got := m2["sqlspl_product_cache_misses_total"]; got != float64(w.products()) {
		return fmt.Errorf("product cache built %v products, want %d", got, w.products())
	}
	switch w.(type) {
	case *interactive:
		if hitRatio < 0.99 {
			return fmt.Errorf("verdict cache hit ratio %.4f on hot traffic, want >= 0.99", hitRatio)
		}
	case *streamCold:
		if hitRatio > 0.01 {
			return fmt.Errorf("verdict cache hit ratio %.4f on cold traffic, want <= 0.01", hitRatio)
		}
		key := "sqlspl_engine_diagnose_fallbacks_total"
		if got := m2[key] - m0[key]; got != float64(rejects) {
			return fmt.Errorf("%v diagnose fallbacks for %d rejected statements", got, rejects)
		}
	case *batchCustom:
		if hitRatio > 0.01 {
			return fmt.Errorf("verdict cache hit ratio %.4f on cold traffic, want <= 0.01", hitRatio)
		}
		if got := m2["sqlspl_engine_generated_checks_total"]; got != 0 {
			return fmt.Errorf("%v generated-engine checks on interpreted-only traffic", got)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
