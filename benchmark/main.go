// Command benchmark is the repository's benchmark: five workloads that
// stress different layers of the stack, each checked against an oracle,
// with end-to-end metrics from an untraced run and per-layer metrics from
// a separate traced run. See README.md in this directory.
//
//	go run ./benchmark -workload serve_pipelined -seed 1
//	go run ./benchmark -workload crash_recover -seed 1 -trace 1
//	go run ./benchmark -all -out base.jsonl
//	go run ./benchmark -compare base.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
)

// report is everything one run of one workload measured: the line -out
// appends and -compare reads.
type report struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	Reps       int    `json:"reps"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Transport  string `json:"transport"`
	Attempted  uint64 `json:"attempted"`
	Failed     uint64 `json:"failed"`
	// FailedShare is Failed / Attempted: operations that errored, were
	// refused, timed out or disagreed with the oracle.
	FailedShare float64                `json:"failed_share"`
	Request     string                 `json:"request"`
	EndToEnd    map[string]measurement `json:"end_to_end,omitempty"`
	// LatencyUs holds quantiles of the request latency, for reading the
	// tail's shape; p50_us and p98_us are per-layer metrics as well.
	LatencyUs map[string]float64     `json:"latency_us,omitempty"`
	PerLayer  map[string]measurement `json:"per_layer,omitempty"`
	Ladder    []ladderRow            `json:"ladder,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// repsFor fixes the number of timed repetitions from the requested
// measuring time: a repetition is a fixed amount of work sized to take
// about one second at the seed commit, so the work of a run is a function
// of its arguments only and the same on both sides of a comparison.
func repsFor(seconds int) int { return max(3, seconds) }

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 12
	tracedReps     = 2
	ladderOps      = 20_000
	traceDir       = "benchmark/out"
)

// tally sums the attempted and failed operations of repetitions.
func tally(reps []repResult) (attempted, failed uint64) {
	for _, r := range reps {
		attempted += r.ops
		failed += r.failed
	}
	return attempted, failed
}

// runUntraced measures a workload's end-to-end metrics.
func runUntraced(w workloadDef, cx runCtx, reps int) report {
	rs := runReps(w, cx, 0, reps, nil)
	rep := newReport(w, cx, false, len(rs))
	rep.Attempted, rep.Failed = tally(rs)
	rep.EndToEnd = endToEndOf(rs)
	rep.LatencyUs = latencyQuantiles(rs)
	return rep
}

// stackCosts is the part of a traced run that does not depend on the
// workload: the calibration reading, the layer ladder and the codec cost.
// A process measures it once, whatever number of workloads it runs.
type stackCosts struct {
	layer  map[string]float64
	ladder []ladderRow
	failed uint64
}

func measureStack(cx runCtx, cal calibration) stackCosts {
	sc := stackCosts{layer: map[string]float64{
		"pmem.psync_ns":       cal.psyncNs,
		"pmem.pwb_ns":         cal.pwbNs,
		"pmem.calib_attempts": float64(cal.attempts),
	}}
	sc.ladder = runLadder(cx.seed, cx.n(ladderOps, 64))
	ladderLayer(sc.ladder, sc.layer)
	sc.layer["proto.codec_ns"], sc.layer["proto.mallocs_per_req"], sc.failed = codecCost(cx.n(ladderOps, 64))
	return sc
}

// runTraced measures a workload's per-layer metrics: the stack costs, the
// workload's counters from untraced repetitions, and tracedReps more with
// spans recorded, whose slowdown against the untraced ones is the tracing
// overhead.
func runTraced(w workloadDef, cx runCtx, sc stackCosts, reps int, outDir string) (report, error) {
	layer := maps.Clone(sc.layer)

	// Half the repetitions of an untraced run are enough for counters, and
	// keep the traced pass over every workload within a minute or so.
	plain := runReps(w, cx, 0, max(2, reps/2-1), nil)
	tr := newTracer()
	traced := runReps(w, cx, len(plain)+1, tracedReps, tr)
	for name, v := range layerOf(plain) {
		layer[name] = v
	}
	e2e, e2eTraced := endToEndOf(plain), endToEndOf(traced)
	layer["trace.overhead_share"] = 1 - ratio(e2eTraced["ops_per_s"].Value, e2e["ops_per_s"].Value)
	if w.Name == "serve_pingpong" {
		layer["ladder.reconstruct_ratio"] = ratio(layer["wire.tcp_rtt_ns"]/1e3, layer["p50_us"])
	}

	rep := newReport(w, cx, true, len(plain))
	rep.Attempted, rep.Failed = tally(append(plain, traced...))
	rep.Failed += sc.failed
	for _, r := range sc.ladder {
		rep.Attempted += uint64(r.Ops)
		rep.Failed += r.Failed
	}
	rep.Ladder = sc.ladder
	rep.PerLayer = map[string]measurement{}
	for _, d := range perLayer {
		rep.PerLayer[d.Name] = measurement{Value: layer[d.Name], Unit: d.Unit, Min: layer[d.Name], Max: layer[d.Name], N: 1}
	}
	path, err := tr.write(outDir, w.Name)
	if err != nil {
		return rep, err
	}
	rep.TraceFile = path
	return rep, nil
}

func newReport(w workloadDef, cx runCtx, traced bool, reps int) report {
	return report{
		Workload: w.Name, Seed: cx.seed, Traced: traced, Reps: reps,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Transport: "host loopback TCP (serve workloads); in process (others)",
		Request:   w.Request,
	}
}

// resultOf renders a report as the driver's line.
func resultOf(rep report) result {
	ms := rep.EndToEnd
	if rep.Traced {
		ms = rep.PerLayer
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultValue{}}
	for name, m := range ms {
		res.Metrics[name] = resultValue{m.Value, m.Unit}
	}
	return res
}

// emit prints the report and then the driver's line, and appends the
// report to outPath when one was given.
func emit(rep report, outPath string) error {
	if rep.Attempted > 0 {
		rep.FailedShare = float64(rep.Failed) / float64(rep.Attempted)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	fmt.Printf("%s\n", line)
	if outPath != "" {
		f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("open -out file: %w", err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return fmt.Errorf("append to -out file: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close -out file: %w", err)
		}
	}
	last, err := json.Marshal(resultOf(rep))
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Printf("%s\n", last)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run: one of the names in BENCHMARK.json")
		all      = flag.Bool("all", false, "run every workload, one after the other")
		seed     = flag.Int64("seed", 1, "seed every input is drawn from")
		seconds  = flag.Int("seconds", defaultSeconds, "nominal measuring time; fixes the number of repetitions (one a second, at least 3)")
		trace    = flag.Int("trace", 0, "1: the traced run (layer ladder, per-layer metrics, spans written to benchmark/out); 0: end-to-end metrics")
		out      = flag.String("out", "", "append each run's report to this file, one JSON object a line")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare old.jsonl new.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two files: old.jsonl new.jsonl")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	var todo []workloadDef
	switch {
	case *all && *workload == "":
		todo = workloads
	case !*all && *workload != "":
		w, ok := findWorkload(*workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workload)
		}
		todo = []workloadDef{w}
	default:
		return fmt.Errorf("give one of -workload <name>, -all, -compare old new")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	// The benchmark resolves its trace directory from the module root, so
	// it must be started there (as `go run ./benchmark` is).
	if _, err := os.Stat(filepath.Join("benchmark", "main.go")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}

	runtime.GOMAXPROCS(benchProcs)
	cal, err := calibrate()
	if err != nil {
		return err
	}
	cx := runCtx{seed: *seed, scale: 1}
	var sc stackCosts
	if *trace == 1 {
		sc = measureStack(cx, cal)
	}
	for _, w := range todo {
		var rep report
		if *trace == 1 {
			if rep, err = runTraced(w, cx, sc, repsFor(*seconds), traceDir); err != nil {
				return err
			}
		} else {
			rep = runUntraced(w, cx, repsFor(*seconds))
		}
		if err := emit(rep, *out); err != nil {
			return err
		}
	}
	return nil
}
