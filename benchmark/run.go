package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro"
	"repro/internal/pmem"
)

// Fixed settings of every workload (see README.md): the batched engine and
// the simulator's default persistence latencies.
const (
	benchProcs  = 2
	benchEngine = repro.EngineIsbOpt
	pwbLatency  = pmem.DefaultPWBLatency
	syncLatency = pmem.DefaultPSyncLatency
)

// runCtx is what a repetition is a function of: the seed the inputs are
// drawn from and the size scale (1 in a real run; the smoke test shrinks
// it).
type runCtx struct {
	seed  int64
	scale float64
}

// n scales a full-size count, never below floor.
func (cx runCtx) n(full, floor int) int {
	return max(floor, int(float64(full)*cx.scale))
}

// repResult is what one repetition measured.
type repResult struct {
	setup   time.Duration // building the system under test, untimed work
	elapsed time.Duration // the timed region
	ops     uint64        // operations attempted in the timed region
	failed  uint64        // errors, refusals, timeouts and oracle mismatches
	lat     []int64       // request latencies in ns (see workloadDef.Request)
	mem     pmem.Stats    // persistence-instruction counts of the timed region
	goStats goDelta
	// layer holds the workload's per-layer readings by metric name,
	// already normalised (per op, per kop, shares).
	layer map[string]float64
}

// goDelta is the Go runtime's share of a timed region.
type goDelta struct {
	mallocs, gcCycles uint64
	gcPause           time.Duration
}

// goSnap reads the runtime counters goDelta is a difference of.
func goSnap() goDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goDelta{mallocs: m.Mallocs, gcCycles: uint64(m.NumGC), gcPause: time.Duration(m.PauseTotalNs)}
}

func (a goDelta) since(b goDelta) goDelta {
	return goDelta{a.mallocs - b.mallocs, a.gcCycles - b.gcCycles, a.gcPause - b.gcPause}
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records.
	Why string
	// Request says what p50_us and p98_us time on this workload.
	Request string
	run     func(cx runCtx, rep int, tr *tracer) repResult
}

var workloads = []workloadDef{
	{
		Name:    "serve_pipelined",
		Why:     "2 TCP clients x 16 in flight, 50/25/25 GET/PUT/DEL: serve core, codec, wire and client do ~90% of the work and admission windows fill",
		Request: "one Client.DoWithID call, issue to return",
		run:     servePipelined.run,
	},
	{
		Name:    "serve_pingpong",
		Why:     "2 TCP clients x 1 in flight, 30/30/30/10 GET/PUT/DEL/MOVE: same serve layers latency-bound, every window a singleton, MOVE drives ApplyTxn",
		Request: "one Client.DoWithID or MoveWithID call, issue to return",
		run:     servePingpong.run,
	},
	{
		Name:    "map_apply_mixed",
		Why:     "in-process HashMap.Apply on 2 Procs, 50/25/25 find/insert/delete: pmem, isb, list/hashmap and single-op admission do all the work, serve none",
		Request: fmt.Sprintf("%d consecutive HashMap.Apply calls on one Proc", applyBlock),
		run:     runMapApply,
	},
	{
		Name:    "admit_window_txn",
		Why:     "in-process ApplyWindow(16 updates) + Queue enqueue + ApplyTxn(dequeue then insert) on 2 Procs with the reclaimer: batched and transactional admission, write-only",
		Request: "one iteration: ApplyWindow of 16, Queue.Apply, ApplyTxn",
		run:     runAdmit,
	},
	{
		Name:    "crash_recover",
		Why:     "1 Proc, 32768 keys, seeded crashes every 2000-6000 accesses, each recovered and resubmitted: detectable recovery latency, which grows with live data",
		Request: "one recovery: Restart + RecoverAll",
		run:     runCrashRecover,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.Name == name })
	if i < 0 {
		return workloadDef{}, false
	}
	return workloads[i], true
}

// startSetup is what every workload calls between drawing its inputs and
// building the system under test; it returns the time set-up starts. The
// previous repetition's heap is garbage by now. Collecting it here keeps
// the collection out of the timed region and the footprint at one heap, and
// building the next heap right after it keeps setup_s steady: the new heap
// takes the freed one's pages and the runtime clears them, which costs 6 ms
// for 2^22 words when they are still resident and 20-30 ms when the
// background scavenger has had the time it takes to draw the inputs to
// hand some of them back to the kernel.
func startSetup() time.Time {
	runtime.GC()
	return time.Now()
}

// hangExit is the exit code of a run the watchdog stopped.
const hangExit = 3

// guarded runs one repetition under a deadline. A repetition that outlives
// it cannot be cancelled (a Proc spinning on freed memory never yields to
// a context), so the watchdog dumps every goroutine and ends the process:
// a hang fails the run instead of blocking whatever is waiting on it.
func guarded(name string, rep int, deadline time.Duration, f func() repResult) repResult {
	done := make(chan repResult, 1)
	go func() { done <- f() }()
	select {
	case r := <-done:
		return r
	case <-time.After(deadline):
		fmt.Fprintf(os.Stderr, "benchmark: hang: %s repetition %d exceeded %v; goroutines:\n", name, rep, deadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort on the way out
		os.Exit(hangExit)
		panic("unreachable")
	}
}

// Watchdog deadlines: the warm-up repetition gets a flat allowance, later
// ones four times what the warm-up took.
const (
	warmupDeadline = 90 * time.Second
	minDeadline    = 10 * time.Second
)

// runReps runs the discarded warm-up repetition (number 0) and then reps
// timed ones, each a fixed amount of work drawn from the seed. firstRep
// offsets the numbering, so a traced pass draws other inputs than the
// untraced pass before it.
func runReps(w workloadDef, cx runCtx, firstRep, reps int, tr *tracer) []repResult {
	deadline := warmupDeadline
	var out []repResult
	for i := range reps + 1 {
		rep := firstRep + i
		r := guarded(w.Name, rep, deadline, func() repResult { return w.run(cx, rep, tr) })
		if i == 0 {
			deadline = max(minDeadline, 4*(r.setup+r.elapsed))
			continue
		}
		out = append(out, r)
	}
	return out
}

// latencyOf sorts each repetition's request latencies and returns a
// function giving, for a quantile, every repetition's own percentile in us.
// A run's p98 is the median of these, not the p98 of all its requests
// pooled: other tenants take the cores for seconds at a time, and two slow
// repetitions of twelve put their whole tail above the pooled p98 (it
// spread 53% over ten runs of map_apply_mixed) but leave the median
// repetition where it was.
func latencyOf(reps []repResult) func(q float64) []float64 {
	sorted := make([][]int64, len(reps))
	for i, r := range reps {
		sorted[i] = slices.Clone(r.lat)
		slices.Sort(sorted[i])
	}
	return func(q float64) []float64 {
		xs := make([]float64, len(sorted))
		for i, lat := range sorted {
			xs[i] = percentile(lat, q) / 1e3
		}
		return xs
	}
}

// endToEndOf folds timed repetitions into the end-to-end metrics, each the
// median repetition's value.
func endToEndOf(reps []repResult) map[string]measurement {
	per := func(f func(r repResult) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return xs
	}
	return map[string]measurement{
		"setup_s":   measure("s", per(func(r repResult) float64 { return r.setup.Seconds() })),
		"ops_per_s": measure("1/s", per(func(r repResult) float64 { return ratio(float64(r.ops-r.failed), r.elapsed.Seconds()) })),
		"syncs_per_op": measure("1/op", per(func(r repResult) float64 {
			return ratio(float64(r.mem.Syncs), float64(r.ops))
		})),
		"persists_per_op": measure("1/op", per(func(r repResult) float64 {
			return ratio(float64(r.mem.Barriers+r.mem.Flushes), float64(r.ops))
		})),
	}
}

// latencyQuantiles is an untraced report's view of the request latency the
// per-layer p50_us and p98_us are two points of, in us, each the median
// repetition's.
func latencyQuantiles(reps []repResult) map[string]float64 {
	latency := latencyOf(reps)
	out := map[string]float64{}
	for name, q := range map[string]float64{"p50": 0.50, "p90": 0.90, "p95": 0.95, "p98": 0.98, "p99": 0.99, "p99.9": 0.999} {
		out[name] = median(latency(q))
	}
	return out
}

// layerOf folds the repetitions' per-layer readings: the counters every
// workload has, then whatever the workload recorded itself, each as the
// median repetition.
func layerOf(reps []repResult) map[string]float64 {
	latency := latencyOf(reps)
	cols := map[string][]float64{"p50_us": latency(0.50), "p98_us": latency(0.98)}
	add := func(name string, v float64) { cols[name] = append(cols[name], v) }
	for _, r := range reps {
		ops := float64(r.ops)
		add("pmem.flushes_per_op", ratio(float64(r.mem.Flushes), ops))
		add("pmem.barriers_per_op", ratio(float64(r.mem.Barriers), ops))
		add("pmem.line_flushes_per_op", ratio(float64(r.mem.LineFlushes), ops))
		add("pmem.cas_per_op", ratio(float64(r.mem.CASes), ops))
		add("pmem.loads_per_op", ratio(float64(r.mem.Loads), ops))
		add("pmem.alloc_words_per_op", ratio(float64(r.mem.AllocWords), ops))
		add("runtime.mallocs_per_op", ratio(float64(r.goStats.mallocs), ops))
		add("go.gc_cycles", float64(r.goStats.gcCycles))
		add("go.gc_pause_ms", float64(r.goStats.gcPause.Nanoseconds())/1e6)
		for name, v := range r.layer {
			add(name, v)
		}
	}
	out := make(map[string]float64, len(cols))
	for name, xs := range cols {
		out[name] = median(xs)
	}
	return out
}

// engineCounters are the batching and fast-read counters of the engines
// behind a set of structures.
type engineCounters struct{ batchSyncs, readFast uint64 }

func engineSnap(rt *repro.Runtime, structs ...repro.Structure) engineCounters {
	var c engineCounters
	for _, s := range structs {
		bs, rf, _ := rt.EngineCounters(s)
		c.batchSyncs += bs
		c.readFast += rf
	}
	return c
}

// layerInto renders the counters accumulated since before, per op.
func (c engineCounters) layerInto(into map[string]float64, before engineCounters, ops uint64) {
	into["isb.batch_syncs_per_op"] = ratio(float64(c.batchSyncs-before.batchSyncs), float64(ops))
	into["isb.read_fast_share"] = ratio(float64(c.readFast-before.readFast), float64(ops))
}

// reclaimLayer renders the reclaimer's counters accumulated since before,
// per thousand ops.
func reclaimLayer(into map[string]float64, before, after pmem.ReclaimStats, ops uint64) {
	kops := float64(ops) / 1e3
	reused, carved := after.Reused-before.Reused, after.Carved-before.Carved
	into["reclaim.retired_per_kop"] = ratio(float64(after.Retired-before.Retired), kops)
	into["reclaim.dropped_per_kop"] = ratio(float64(after.Dropped-before.Dropped), kops)
	into["reclaim.advances_per_kop"] = ratio(float64(after.Advances-before.Advances), kops)
	into["reclaim.reused_share"] = ratio(float64(reused), float64(reused+carved))
}

// latencyLayer renders a repetition's own latency quantiles in us.
func latencyLayer(into map[string]float64, lat []int64, names map[string]float64) {
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	for name, q := range names {
		into[name] = percentile(sorted, q) / 1e3
	}
}
