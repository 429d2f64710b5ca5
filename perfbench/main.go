// Command perfbench is the repository benchmark. It drives the shipped
// sqlserved daemon as a child process over one keep-alive connection in a
// closed loop, checks every answer against what its seeded generator
// knows, and prints one JSON result line.
//
//	perfbench -workload interactive|stream-cold|batch-custom -seed N -seconds S -trace 0|1
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// the same seeded inputs through an in-process server, times the public
// functions of each module from outside, writes the spans to a file and
// prints a per-layer waterfall on standard error. run.py builds the daemon
// and this program from source and passes the daemon's path in -daemon.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: interactive | stream-cold | batch-custom")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
		bin     = flag.String("daemon", ".bench_build/sqlserved", "sqlserved binary")
		spans   = flag.String("spans", "", "traced run: span file to write (default .bench_build/spans-WORKLOAD.json)")
	)
	flag.Parse()
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	var (
		res *result
		err error
	)
	switch *trace {
	case 0:
		res, err = runE2E(*bin, *name, *seed, *seconds)
	case 1:
		if *spans == "" {
			*spans = filepath.Join(".bench_build", "spans-"+*name+".json")
		}
		res, err = runTrace(*bin, *name, *seed, *seconds, *spans)
	default:
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
