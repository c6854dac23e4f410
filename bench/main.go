// Command bench is the repository's serving benchmark: it builds
// cmd/sti-serve, runs it as a child process under one of four pinned
// workloads, drives the real /v2/infer + SSE + /v1/budget surface, checks
// every response against an in-process reference, and reports the
// end-to-end metrics (-trace 0) or the per-layer metrics of a traced run
// (-trace 1) named in BENCHMARK.json. See README.md beside this file.
//
//	go run ./bench                                   # every workload, both runs
//	go run ./bench -workload classify_steady -seed 7 -seconds 20 -trace 0
//	go run ./bench compare <before-dir> <after-dir>  # bounds from BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run (default: all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "workload seed: inputs, tiers and arrival schedule")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	pprofOn := flag.Bool("pprof", false, "also pull CPU and heap profiles from the child into the output directory")
	outDir := flag.String("out", "", "directory for result, trace and profile files (default bench/out)")
	flag.Parse()

	// SIGINT/SIGTERM cancel the run; every child is stopped on the way out
	// because all exits below happen after run returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *name, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, pprof: *pprofOn, outDir: *outDir})
	stop()
	os.Exit(code)
}

func run(ctx context.Context, name string, cfg runConfig) int {
	e, err := findEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if cfg.outDir == "" {
		cfg.outDir = e.out
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	if name != "" {
		cfg.workload = findWorkload(name)
		if cfg.workload == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		return runOne(ctx, e, cfg, true)
	}
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg.workload, cfg.trace = w, traced
			if c := runOne(ctx, e, cfg, false); c != 0 {
				code = c
			}
		}
	}
	return code
}

// runOne runs one workload once, prints its metrics, and — when it is the
// whole invocation — ends standard output with the verdict line.
func runOne(ctx context.Context, e *env, cfg runConfig, last bool) int {
	var res *result
	var err error
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		res, err = runTraced(ctx, e, cfg)
	} else {
		res, err = runEndToEnd(ctx, e, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload.Name, err)
		return 1
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", cfg.workload.Name, d.Name)
			return 1
		}
	}
	path, err := writeResult(cfg.outDir, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	rel, _ := filepath.Rel(e.root, path) // for display only
	printMetrics(os.Stdout, fmt.Sprintf("%s seed=%d trace=%v -> %s", cfg.workload.Name, cfg.seed, cfg.trace, rel), defs, res)
	if last {
		line, err := json.Marshal(res.verdict)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if !res.Correct {
		return 1
	}
	return 0
}
