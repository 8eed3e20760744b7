// Command bench runs the canonical performance-scenario matrix and writes
// a machine-comparable BENCH_<label>.json report: throughput and
// persistence-instruction metrics for every (engine, procs, shards, mix)
// hash-map cell, plus the timed every-crash-point conformance sweep. CI
// archives one report per commit; diff two reports to see what a change
// did to the simulator's hot paths.
//
// Usage:
//
//	go run ./cmd/bench                         # BENCH_local.json, full matrix
//	go run ./cmd/bench -label abc123 -out BENCH_abc123.json
//	go run ./cmd/bench -quick                  # small matrix (CI smoke)
//	go run ./cmd/bench -check BENCH_x.json     # validate an existing report
//	go run ./cmd/bench -compare BENCH_baseline.json
//	                                           # run, then gate against a baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	label := flag.String("label", "local", "report label (e.g. short commit sha)")
	out := flag.String("out", "", "output path (default BENCH_<label>.json)")
	procs := flag.String("procs", "", "comma-separated proc counts (default 1,2,4,8)")
	shards := flag.String("shards", "", "comma-separated shard counts (default 1,16)")
	ops := flag.Int("ops", 0, "operations per proc per cell (default 2000)")
	faultRates := flag.String("serve-fault-rates", "", "comma-separated serve-cell fault rates in connection kills per KiB (default 0,0.5; rate 0 is every fault-free cell)")
	quick := flag.Bool("quick", false, "small matrix for smoke runs")
	check := flag.String("check", "", "validate an existing report file and exit")
	compare := flag.String("compare", "", "baseline report to gate the fresh run against (fails when a cell falls >15% behind the pair's median throughput ratio or grows persists/op, or when the fresh run's largest serve batch does not undercut its batch=1 anchor's syncs/op)")
	verbose := flag.Bool("v", false, "print each scenario cell's metric line")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *check != "" && *compare != "" {
		fail(fmt.Errorf("-check and -compare are mutually exclusive: -check validates an existing report without running, -compare runs the matrix and gates it"))
	}

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fail(err)
		}
		if err := bench.Validate(data); err != nil {
			fail(err)
		}
		fmt.Printf("%s: valid bench report\n", *check)
		return
	}

	// Vet the baseline BEFORE the multi-minute run: a missing, corrupt or
	// stale-schema baseline must fail in milliseconds, not after the whole
	// matrix has been measured.
	var baseline []byte
	if *compare != "" {
		var err error
		baseline, err = os.ReadFile(*compare)
		if err != nil {
			fail(err)
		}
		if err := bench.CheckBaseline(baseline); err != nil {
			fail(err)
		}
	}

	// -quick supplies smaller defaults; explicit flags always win.
	p := bench.Params{Label: *label}
	if *quick {
		p = bench.QuickParams()
		p.Label = *label
	}
	if *ops != 0 {
		p.OpsPerProc = *ops
	}
	if flagProcs, err := parseInts(*procs); err != nil {
		fail(err)
	} else if flagProcs != nil {
		p.Procs = flagProcs
	}
	if flagShards, err := parseInts(*shards); err != nil {
		fail(err)
	} else if flagShards != nil {
		p.Shards = flagShards
	}
	if flagRates, err := parseFloats(*faultRates); err != nil {
		fail(err)
	} else if flagRates != nil {
		p.ServeFaultRates = flagRates
	}

	rep, err := bench.Run(p)
	if err != nil {
		fail(err)
	}
	data, err := bench.Marshal(rep)
	if err != nil {
		fail(err)
	}
	// The gate CI relies on: a report that fails validation is never
	// written with exit status 0.
	if err := bench.Validate(data); err != nil {
		fail(err)
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
	if *verbose {
		for _, pt := range rep.Scenarios {
			// Point.Stats routes through isb.Stats — the same renderer the
			// root benchmarks report with.
			fmt.Printf("%s: %.0f ops/s %s\n", pt.Name, pt.OpsPerSec, pt.Stats())
		}
	}
	fmt.Printf("wrote %s: %d scenario cells, %d sweep scenarios, sweep %.2fs\n",
		path, len(rep.Scenarios), len(rep.Sweeps), rep.SweepSeconds)
	if *compare != "" {
		// The performance gates ride here, not in Validate: they assert
		// scheduler outcomes, which a tier-1 test on two cores cannot.
		if err := bench.ServeBatchGate(data); err != nil {
			fail(err)
		}
		if err := bench.Compare(baseline, data); err != nil {
			fail(err)
		}
		fmt.Printf("no regression vs %s\n", *compare)
	}
}
