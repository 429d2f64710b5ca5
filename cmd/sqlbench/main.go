// Command sqlbench drives the experiment harness and prints the series
// recorded in EXPERIMENTS.md. Each experiment can be run alone with -exp.
//
//	sqlbench             # run all experiments
//	sqlbench -exp E6     # grammar/parser size vs dialect
//	sqlbench -exp E7     # composition + generation cost vs dialect
//	sqlbench -exp E8     # parse throughput: products vs monolithic baseline
//	sqlbench -exp E9     # extension composability (sensor clauses)
//	sqlbench -exp E11    # engine comparison: interpreted vs generated per preset
//	sqlbench -exp E12    # verdict serving: cold vs cached-hit vs streamed, per layer
//	sqlbench -exp E11,E12 -json BENCH_parse.json   # the benchgate series
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"sqlspl/internal/baseline"
	"sqlspl/internal/codegen"
	"sqlspl/internal/core"
	"sqlspl/internal/dialect"
	"sqlspl/internal/engine"
	"sqlspl/internal/feature"
	"sqlspl/internal/product"
	"sqlspl/internal/sql2003"
	"sqlspl/internal/stream"
	"sqlspl/internal/workload"

	// Link the pregenerated preset parsers so E11 benchmarks the real
	// serving configuration: presets promote to generated engines.
	_ "sqlspl/internal/engine/generated"
)

// experiments is the known experiment set, in run order. -exp is validated
// against it so a typo fails loudly instead of silently running nothing.
var experiments = []struct {
	name string
	f    func(int)
}{
	{"E6", e6Size},
	{"E7", e7Composition},
	{"E8", e8Throughput},
	{"E9", e9Extension},
	{"E11", e11Engines},
	{"E12", e12Verdicts},
}

func main() {
	var (
		exp  = flag.String("exp", "", "experiments to run, comma-separated: E6|E7|E8|E9|E11|E12 (default all)")
		iter = flag.Int("n", 2000, "queries per throughput measurement")
		jout = flag.String("json", "", "write the E8/E11/E12 benchmark series (ns/query, MB/s, allocs/query per workload/parser) to this file, e.g. BENCH_parse.json")
	)
	flag.Parse()
	jsonPath = *jout

	var selected []string
	if *exp != "" {
		names := make([]string, len(experiments))
		for i, e := range experiments {
			names[i] = e.name
		}
		for _, part := range strings.Split(*exp, ",") {
			part = strings.TrimSpace(part)
			known := false
			for _, name := range names {
				known = known || strings.EqualFold(part, name)
			}
			if !known {
				fmt.Fprintf(os.Stderr, "sqlbench: unknown experiment %q (valid: %s)\n",
					part, strings.Join(names, ", "))
				os.Exit(2)
			}
			selected = append(selected, part)
		}
	}
	runs := func(name string) bool {
		if len(selected) == 0 {
			return true
		}
		for _, s := range selected {
			if strings.EqualFold(s, name) {
				return true
			}
		}
		return false
	}
	for _, e := range experiments {
		if runs(e.name) {
			e.f(*iter)
			fmt.Println()
		}
	}
	if jsonPath != "" {
		if err := writeBenchJSON(jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "sqlbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d benchmark rows to %s\n", len(benchRows), jsonPath)
	}
}

// benchRow is one machine-readable measurement of the E8/E11 series: one
// workload parsed by one parser (for E11, one preset's corpus parsed by
// one engine backend). allocs/bytes per query are measured with
// runtime.MemStats deltas around the timed loop, the same quantities
// go test -benchmem reports.
type benchRow struct {
	Workload       string  `json:"workload"`
	Parser         string  `json:"parser"`
	Queries        int     `json:"queries"`
	Accepted       int     `json:"accepted"`
	NsPerQuery     int64   `json:"ns_per_query"`
	QPS            float64 `json:"qps"`
	MBPerSec       float64 `json:"mb_per_sec"`
	AllocsPerQuery float64 `json:"allocs_per_query"`
	BytesPerQuery  float64 `json:"bytes_per_query"`
	// E11 generated rows relate to their interpreted twin measured on the
	// same corpus: negative means the generated engine is faster /
	// allocates less. Absent on absolute rows.
	NsVsInterpretedPct  *float64 `json:"ns_vs_interpreted_pct,omitempty"`
	AllocsVsInterpreted *float64 `json:"allocs_vs_interpreted,omitempty"`
	// E12 cached-hit, scan-only and streamed rows relate to the uncached
	// verdict pass over the same corpus: >1 means faster than a cold engine
	// Check.
	SpeedupVsUncached *float64 `json:"speedup_vs_uncached,omitempty"`
}

// jsonPath, when set by -json, makes report() collect rows for the series
// file written at exit.
var (
	jsonPath  string
	benchRows []benchRow
)

func writeBenchJSON(path string) error {
	out := struct {
		GoVersion string     `json:"go_version"`
		Timestamp string     `json:"timestamp"`
		Rows      []benchRow `json:"rows"`
	}{
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Rows:      benchRows,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// buildOrDie resolves a preset through the product catalog (dialect.Build):
// experiments that reuse a dialect share one cached build.
func buildOrDie(name dialect.Name) *core.Product {
	p, err := dialect.Build(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqlbench: build %s: %v\n", name, err)
		os.Exit(1)
	}
	return p
}

// e6Size prints grammar and parser size per dialect (experiment E6): the
// customizability benefit the paper motivates for embedded systems.
func e6Size(int) {
	fmt.Println("E6: product size vs selected features (paper: scaled-down SQL for embedded systems)")
	fmt.Printf("%-10s %9s %6s %12s %13s %8s %9s %10s\n",
		"DIALECT", "FEATURES", "UNITS", "PRODUCTIONS", "ALTERNATIVES", "TOKENS", "KEYWORDS", "GEN-BYTES")
	for _, name := range dialect.Names() {
		p := buildOrDie(name)
		s := p.Stats()
		src, err := codegen.Generate(p.Parser, "p")
		genBytes := 0
		if err == nil {
			genBytes = len(src)
		}
		fmt.Printf("%-10s %9d %6d %12d %13d %8d %9d %10d\n",
			name, s.Features, s.Units, s.Productions, s.Grammar.Alternatives,
			s.Tokens, s.Keywords, genBytes)
	}
	fmt.Println("baseline   (monolithic: every keyword always reserved)")
	fmt.Printf("%-10s %9s %6s %12s %13s %8s %9d\n", "baseline", "-", "-", "-", "-", "-",
		len(baseline.MustNew().Keywords()))
}

// e7Composition times the product-line build step per dialect (experiment
// E7): validate + sequence + compose + erase + parser generation. Each
// preset is built once untimed first: the first build also parses the
// preset's sql2003 units, which the registry then caches.
func e7Composition(int) {
	fmt.Println("E7: parser generation cost vs selected features")
	fmt.Printf("%-10s %9s %14s %14s\n", "DIALECT", "FEATURES", "BUILD-TIME", "PER-PRODUCTION")
	m := sql2003.MustModel()
	for _, name := range dialect.Names() {
		feats, err := dialect.Features(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlbench:", err)
			os.Exit(1)
		}
		cfg := feature.NewConfig(feats...)
		const rounds = 10
		var start time.Time
		var prods, features int
		for i := -1; i < rounds; i++ { // round -1 is the untimed first build
			if i == 0 {
				start = time.Now()
			}
			p, err := core.Build(m, sql2003.Registry{}, cfg, core.Options{Product: string(name)})
			if err != nil {
				fmt.Fprintln(os.Stderr, "sqlbench:", err)
				os.Exit(1)
			}
			prods = p.Grammar.Len()
			features = p.Config.Len()
		}
		per := time.Since(start) / rounds
		fmt.Printf("%-10s %9d %14s %14s\n", name, features, per, per/time.Duration(max(prods, 1)))
	}
}

// e8Throughput compares parse throughput of composed dialect parsers
// against the monolithic baseline on dialect-appropriate workloads
// (experiment E8).
func e8Throughput(n int) {
	fmt.Println("E8: parse throughput, composed products vs monolithic baseline")
	fmt.Printf("%-11s %-10s %10s %12s %10s\n", "WORKLOAD", "PARSER", "QUERIES/S", "NS/QUERY", "MB/S")

	type row struct {
		workload string
		queries  []string
		name     dialect.Name
	}
	rows := []row{
		{"minimal", workload.Minimal(11, n), dialect.Minimal},
		{"sensor", workload.Sensor(12, n), dialect.TinySQL},
		{"smartcard", workload.SmartCard(13, n), dialect.SCQL},
		{"oltp", workload.OLTP(14, n), dialect.Core},
		{"analytics", workload.Analytics(15, n), dialect.Warehouse},
	}
	base := baseline.MustNew()
	full := buildOrDie(dialect.Full)
	for _, r := range rows {
		p := buildOrDie(r.name)
		report(r.workload, "product", r.queries, func(q string) bool { return p.Accepts(q) })
		report(r.workload, "full-prod", r.queries, func(q string) bool { return full.Accepts(q) })
		report(r.workload, "baseline", r.queries, base.Accepts)
	}
	fmt.Println("(product = scaled-down composed parser; full-prod = every feature composed;")
	fmt.Println(" baseline = conventional hand-written monolith, no extension mechanism)")
}

// measurement is one timed accepts run over a corpus, captured after an
// untimed warmup pass so pooled run state, memo tables, and scratch
// buffers reach steady state before the clock starts. The ns/query
// figure is the best of three timed passes: on small shared runners a
// single pass is dominated by scheduler and GC noise.
type measurement struct {
	queries  int
	accepted int
	nsq      int64 // ns/query, best pass
	qps      float64
	mbs      float64
	allocs   float64 // allocs/query, averaged over the timed passes
	bytes    float64
}

func measure(queries []string, accepts func(string) bool) measurement {
	ok := 0
	for _, q := range queries { // warmup: pool and memo growth off the clock
		if accepts(q) {
			ok++
		}
	}
	if ok == 0 {
		return measurement{queries: len(queries)}
	}
	return measureLoop(len(queries), ok, int(workload.Bytes(queries)), func() {
		for _, q := range queries {
			accepts(q)
		}
	})
}

// measureLoop times loop — one full pass over a corpus of the given query
// count and byte size — after one further untimed warmup pass. It is the
// common core of measure and the E12 streaming measurement, whose unit of
// work is a whole-script scan rather than a per-query call.
func measureLoop(queries, accepted, corpusBytes int, loop func()) measurement {
	loop()
	m := measurement{queries: queries, accepted: accepted}
	const passes = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	best := time.Duration(-1)
	for p := 0; p < passes; p++ {
		start := time.Now()
		loop()
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(queries)
	m.nsq = best.Nanoseconds() / int64(queries)
	m.qps = n / best.Seconds()
	m.mbs = float64(corpusBytes) / (1 << 20) / best.Seconds()
	m.allocs = float64(after.Mallocs-before.Mallocs) / (n * passes)
	m.bytes = float64(after.TotalAlloc-before.TotalAlloc) / (n * passes)
	return m
}

// pairPasses is how many timed passes measurePair runs per side: E11's
// two engines, E12's uncached and cached-hit rows. The passes of the two
// sides alternate and each side reports its median pass, so a burst of
// noise on a shared host shifts one pass of each side, not one side's
// whole figure — nor a ratio of the two.
const pairPasses = 15

// measurePair times two accepts functions over one corpus in pairPasses
// alternating passes, after an untimed warmup pass of each, and reports
// each side's median pass; allocations are averaged over that side's
// passes. The side that goes first alternates too.
func measurePair(queries []string, sides [2]func(string) bool) [2]measurement {
	var out [2]measurement
	var times [2][]time.Duration
	var mallocs, bytes [2]uint64
	for s, accepts := range sides {
		out[s].queries = len(queries)
		for _, q := range queries {
			if accepts(q) {
				out[s].accepted++
			}
		}
	}
	var before, after runtime.MemStats
	for p := 0; p < pairPasses; p++ {
		for _, s := range [2]int{p % 2, 1 - p%2} {
			runtime.ReadMemStats(&before)
			start := time.Now()
			for _, q := range queries {
				sides[s](q)
			}
			times[s] = append(times[s], time.Since(start))
			runtime.ReadMemStats(&after)
			mallocs[s] += after.Mallocs - before.Mallocs
			bytes[s] += after.TotalAlloc - before.TotalAlloc
		}
	}
	n := float64(len(queries))
	for s := range out {
		slices.Sort(times[s])
		median := times[s][pairPasses/2]
		out[s].nsq = median.Nanoseconds() / int64(len(queries))
		out[s].qps = n / median.Seconds()
		out[s].mbs = float64(workload.Bytes(queries)) / (1 << 20) / median.Seconds()
		out[s].allocs = float64(mallocs[s]) / (n * pairPasses)
		out[s].bytes = float64(bytes[s]) / (n * pairPasses)
	}
	return out
}

// relDelta relates an E11 generated measurement to the interpreted one
// taken on the same corpus.
type relDelta struct {
	nsPct  float64
	allocs float64
}

// record appends a JSON series row when -json is set.
func record(workloadName, parserName string, m measurement, rel *relDelta) {
	if jsonPath == "" {
		return
	}
	row := benchRow{
		Workload:       workloadName,
		Parser:         parserName,
		Queries:        m.queries,
		Accepted:       m.accepted,
		NsPerQuery:     m.nsq,
		QPS:            m.qps,
		MBPerSec:       m.mbs,
		AllocsPerQuery: m.allocs,
		BytesPerQuery:  m.bytes,
	}
	if rel != nil {
		nsPct, allocs := rel.nsPct, rel.allocs
		row.NsVsInterpretedPct = &nsPct
		row.AllocsVsInterpreted = &allocs
	}
	benchRows = append(benchRows, row)
}

func report(workloadName, parserName string, queries []string, accepts func(string) bool) {
	m := measure(queries, accepts)
	if m.accepted == 0 {
		fmt.Printf("%-11s %-10s %10s (workload not parseable: out-of-dialect)\n",
			workloadName, parserName, "-")
		return
	}
	record(workloadName, parserName, m, nil)
	note := ""
	if m.accepted < m.queries {
		note = fmt.Sprintf("  (!! only %d/%d accepted)", m.accepted, m.queries)
	}
	fmt.Printf("%-11s %-10s %10.0f %12d %10.2f%s\n", workloadName, parserName, m.qps, m.nsq, m.mbs, note)
}

// e9Extension demonstrates language extension by composition (experiment
// E9): the sensor clauses attach to the SELECT base without modifying it,
// and disappear when deselected.
func e9Extension(int) {
	fmt.Println("E9: extension composability (TinySQL acquisitional clauses)")
	withExt := buildOrDie(dialect.TinySQL)

	feats, _ := dialect.Features(dialect.TinySQL)
	cfg := feature.NewConfig(feats...)
	cfg.Deselect("sensor_extensions", "sample_period", "sample_for_duration",
		"sensor_duration_node", "epoch_duration", "lifetime_clause",
		"on_event", "event_arguments", "storage_point")
	withoutExt, err := core.Build(sql2003.MustModel(), sql2003.Registry{}, cfg,
		core.Options{Product: "tinysql-without-sensor"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sqlbench:", err)
		os.Exit(1)
	}

	probes := []struct {
		sql  string
		kind string
	}{
		{"SELECT nodeid, light FROM sensors", "base"},
		{"SELECT AVG(temp) FROM sensors GROUP BY roomno", "base"},
		{"SELECT nodeid FROM sensors SAMPLE PERIOD 1024", "extension"},
		{"SELECT nodeid FROM sensors EPOCH DURATION 512", "extension"},
		{"SELECT COUNT(*) FROM sensors LIFETIME 30", "extension"},
	}
	fmt.Printf("%-55s %-10s %8s %8s\n", "QUERY", "KIND", "WITH", "WITHOUT")
	for _, probe := range probes {
		fmt.Printf("%-55s %-10s %8v %8v\n", probe.sql, probe.kind,
			withExt.Accepts(probe.sql), withoutExt.Accepts(probe.sql))
	}
	fmt.Printf("grammar: %d productions with extension, %d without (delta %+d; base unchanged)\n",
		withExt.Grammar.Len(), withoutExt.Grammar.Len(),
		withExt.Grammar.Len()-withoutExt.Grammar.Len())
}

// e11Engines compares the two parse-engine backends head-to-head per
// preset (experiment E11): the interpreted packrat engine versus the
// pregenerated parser the catalog promotes the preset to. Both run the
// same dialect-appropriate corpus through the engine seam's membership
// test (Accepts) in alternating passes (measurePair).
func e11Engines(n int) {
	fmt.Println("E11: engine comparison — interpreted vs generated, per preset")
	fmt.Printf("%-11s %-12s %10s %12s %10s %10s %9s\n",
		"PRESET", "ENGINE", "QUERIES/S", "NS/QUERY", "MB/S", "VS-INTERP", "D-ALLOCS")
	rows := []struct {
		name    dialect.Name
		queries []string
	}{
		{dialect.Minimal, workload.Minimal(21, n)},
		{dialect.TinySQL, workload.Sensor(22, n)},
		{dialect.SCQL, workload.SmartCard(23, n)},
		{dialect.Core, workload.OLTP(24, n)},
		{dialect.Warehouse, workload.Analytics(25, n)},
		{dialect.Full, workload.Analytics(26, n)},
	}
	for _, r := range rows {
		p := buildOrDie(r.name)
		eng, err := dialect.Engine(r.name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlbench: engine %s: %v\n", r.name, err)
			os.Exit(1)
		}
		interp := engine.Interpreted(p, "")
		if eng.Info().Kind != engine.KindGenerated {
			mi := measure(r.queries, interp.Accepts)
			record(string(r.name), "interpreted", mi, nil)
			printE11(string(r.name), "interpreted", mi, nil)
			fmt.Printf("%-11s %-12s %10s (no generated parser registered for this preset)\n",
				r.name, "generated", "-")
			continue
		}
		m := measurePair(r.queries, [2]func(string) bool{interp.Accepts, eng.Accepts})
		mi, mg := m[0], m[1]
		record(string(r.name), "interpreted", mi, nil)
		printE11(string(r.name), "interpreted", mi, nil)
		rel := &relDelta{
			nsPct:  100 * (float64(mg.nsq) - float64(mi.nsq)) / float64(mi.nsq),
			allocs: mg.allocs - mi.allocs,
		}
		record(string(r.name), "generated", mg, rel)
		printE11(string(r.name), "generated", mg, rel)
	}
	fmt.Println("(generated = pregenerated parser on the shared runtime, promoted by catalog fingerprint;")
	fmt.Println(" interpreted = packrat interpreter over the composed grammar;")
	fmt.Println(" VS-INTERP = generated ns/query relative to interpreted, negative is faster;")
	fmt.Printf(" each engine's median of %d alternating passes)\n", pairPasses)
}

// printE11 renders one E11 table row, with the relative-delta columns
// filled on generated rows.
func printE11(preset, engineName string, m measurement, rel *relDelta) {
	if m.accepted == 0 {
		fmt.Printf("%-11s %-12s %10s (workload not parseable: out-of-dialect)\n",
			preset, engineName, "-")
		return
	}
	delta, dAllocs := "-", "-"
	if rel != nil {
		delta = fmt.Sprintf("%+.1f%%", rel.nsPct)
		dAllocs = fmt.Sprintf("%+.2f", rel.allocs)
	}
	note := ""
	if m.accepted < m.queries {
		note = fmt.Sprintf("  (!! only %d/%d accepted)", m.accepted, m.queries)
	}
	fmt.Printf("%-11s %-12s %10.0f %12d %10.2f %10s %9s%s\n",
		preset, engineName, m.qps, m.nsq, m.mbs, delta, dAllocs, note)
}

// e12Verdicts measures the verdict serving paths this repo's streaming
// endpoint is built from (experiment E12), one layer per row: a cold
// engine Check per query ("uncached"), the same corpus answered from a
// warmed hot-statement verdict cache ("cached-hit", the steady state of
// /v1/parse want=verdict under repeated traffic), and the corpus joined
// into one ';'-separated script walked by the streaming scanner alone
// ("scan-only"), with a fresh verdict cache per pass ("streamed-cold", a
// never-repeating /v1/stream script) and with a warmed one
// ("streamed-hit", a repeated script). Every row is serial, so none of
// them includes the /v1/stream worker pipeline or HTTP.
func e12Verdicts(n int) {
	fmt.Println("E12: verdict serving — cold engine vs cached hit vs streamed script")
	fmt.Printf("%-11s %-13s %12s %12s %9s %9s\n",
		"PRESET", "PATH", "VERDICTS/S", "NS/VERDICT", "SPEEDUP", "ALLOCS/V")
	rows := []struct {
		name    dialect.Name
		queries []string
	}{
		{dialect.Minimal, workload.Minimal(31, n)},
		{dialect.TinySQL, workload.Sensor(32, n)},
		{dialect.SCQL, workload.SmartCard(33, n)},
		{dialect.Core, workload.OLTP(34, n)},
		{dialect.Warehouse, workload.Analytics(35, n)},
		{dialect.Full, workload.Analytics(36, n)},
	}
	for _, r := range rows {
		prod, eng, err := dialect.Resolve(r.name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sqlbench: resolve %s: %v\n", r.name, err)
			os.Exit(1)
		}

		// The cached-hit speedup divides by the uncached time, so the two
		// rows are timed in alternating passes. measurePair's untimed pass
		// fills the cache, and the timed passes hit it.
		vc := product.NewVerdictCache(0)
		pair := measurePair(r.queries, [2]func(string) bool{
			func(q string) bool { return eng.Check(q) == nil },
			func(q string) bool { return vc.Verdict(eng, q).OK() },
		})
		cold := pair[0]
		record(string(r.name), "uncached", cold, nil)
		printE12(string(r.name), "uncached", cold, nil)
		if cold.accepted == 0 {
			continue
		}
		row := func(path string, m measurement) {
			speedup := float64(cold.nsq) / float64(m.nsq)
			recordE12(string(r.name), path, m, speedup)
			printE12(string(r.name), path, m, &speedup)
		}

		row("cached-hit", pair[1])

		// The streamed unit of work is one scan of the whole script. Its
		// statement texts keep the ';' and separators, so they differ from
		// the bare queries and get cache entries of their own.
		script := strings.Join(r.queries, ";\n") + ";\n"
		lx := prod.Parser.Lexer()
		scan := func(verdict func(string)) {
			sc := stream.NewScanner(lx, strings.NewReader(script), stream.Config{})
			for {
				st, err := sc.Next()
				if err != nil {
					break
				}
				if len(st.Tokens) == 0 && st.Err == nil {
					continue
				}
				verdict(st.Text)
			}
		}
		loop := func(pass func()) measurement {
			return measureLoop(len(r.queries), cold.accepted, len(script), pass)
		}
		row("scan-only", loop(func() { scan(func(string) {}) }))
		row("streamed-cold", loop(func() {
			fresh := product.NewVerdictCache(0)
			scan(func(q string) { fresh.Verdict(eng, q) })
		}))
		row("streamed-hit", loop(func() { scan(func(q string) { vc.Verdict(eng, q) }) }))
	}
	fmt.Println("(uncached = engine Check per query; cached-hit = warmed verdict cache, the")
	fmt.Println(" /v1/parse want=verdict steady state; scan-only = the streaming scanner over")
	fmt.Println(" one ';'-joined script; streamed-cold = scanner + a fresh verdict cache per")
	fmt.Println(" pass; streamed-hit = scanner + a warmed one; all serial, no worker")
	fmt.Println(" pipeline or HTTP; speedup vs uncached; uncached and cached-hit are each")
	fmt.Printf(" the median of %d alternating passes, the other rows the best of three)\n", pairPasses)
}

// recordE12 is record for the E12 series rows, which relate to the
// preset's uncached pass instead of an interpreted twin.
func recordE12(workloadName, parserName string, m measurement, speedup float64) {
	if jsonPath == "" {
		return
	}
	row := benchRow{
		Workload:          workloadName,
		Parser:            parserName,
		Queries:           m.queries,
		Accepted:          m.accepted,
		NsPerQuery:        m.nsq,
		QPS:               m.qps,
		MBPerSec:          m.mbs,
		AllocsPerQuery:    m.allocs,
		BytesPerQuery:     m.bytes,
		SpeedupVsUncached: &speedup,
	}
	benchRows = append(benchRows, row)
}

// printE12 renders one E12 table row.
func printE12(preset, path string, m measurement, speedup *float64) {
	if m.accepted == 0 {
		fmt.Printf("%-11s %-13s %12s (workload not parseable: out-of-dialect)\n", preset, path, "-")
		return
	}
	sp := "-"
	if speedup != nil {
		sp = fmt.Sprintf("×%.1f", *speedup)
	}
	note := ""
	if m.accepted < m.queries {
		note = fmt.Sprintf("  (!! only %d/%d accepted)", m.accepted, m.queries)
	}
	fmt.Printf("%-11s %-13s %12.0f %12d %9s %9.2f%s\n", preset, path, m.qps, m.nsq, sp, m.allocs, note)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
