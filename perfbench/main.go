// Command perfbench is the repository's benchmark.  One invocation runs
// one seeded workload for a fixed time, checks every output of every
// measured pass against a reference computed during set-up, and prints
// the metrics named in BENCHMARK.json as the last line of standard
// output:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run alternates untraced and traced passes, records spans around every
// call into a layer, writes them to the work directory and prints the
// per-layer metrics, including the tracing overhead.
//
// Workloads (see README.md in this directory for sizes and reasons):
//
//	coexpr   expression matrix -> correlation graph -> cliques -> paracliques
//	spill    one graph under a memory cap through hybrid, ooc and dist
//	cliqued  an in-process query server under a closed loop of 2 clients
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload coexpr --seed 1 --seconds 25 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: coexpr, spill or cliqued")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "how long the measured phase runs")
		traced   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for spill files and span dumps")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		fatalf("-seconds must be positive, got %v", *seconds)
	}
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want coexpr, spill or cliqued)", *workload)
	}
	dir, err := os.MkdirTemp(mustMkdir(*workdir), *workload+"-")
	if err != nil {
		fatalf("work directory: %v", err)
	}
	cfg := config{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		dir:     dir,
		full:    true,
	}
	res, err := run(cfg)
	if err != nil {
		_ = os.RemoveAll(dir) // best effort; the run already failed
		fatalf("%s: %v", *workload, err)
	}
	if cfg.trace {
		// The span dump outlives the run; everything else in dir was
		// spill scratch.
		err = res.writeSpans(filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.json", *workload, *seed)))
		if err != nil {
			_ = os.RemoveAll(dir)
			fatalf("write spans: %v", err)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		fatalf("remove work directory: %v", err)
	}
	if err := res.print(os.Stdout, cfg.trace); err != nil {
		fatalf("%v", err)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("work directory: %v", err)
	}
	return dir
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
