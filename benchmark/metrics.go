package main

import (
	"math"
	"slices"
)

// metricDef declares one metric: the single source the output, the README
// tables and BENCHMARK.json (checked by the smoke test) are held to.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression; 0 on per-layer
	// metrics, which are diagnostic and carry no bound.
	Bound float64
	// Layer is the module a per-layer metric is read at; Moves names the
	// end-to-end metric, and the workload, it is predicted to move.
	Layer, Moves string
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them. The time-based bounds are the widest the driver allows: on
// the shared 2-core box the seed numbers come from, runs taken minutes apart
// differ by up to 22% (README.md "Seed numbers"). The request latencies
// p50_us and p98_us are per-layer metrics for that reason: in a closed loop
// latency is in-flight requests over throughput, so the box's slow spells
// cost it 28% where they cost ops_per_s 22%, and neither held a bound of
// 0.25 over two sets of runs of one commit.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "syncs_per_op", Unit: "1/op", Better: "lower", Bound: 0.10},
	{Name: "persists_per_op", Unit: "1/op", Better: "lower", Bound: 0.10},
}

// perLayer lists the diagnostic metrics of single layers, in stack order.
var perLayer = []metricDef{
	{Name: "p50_us", Unit: "us", Better: "lower", Layer: "workload", Moves: "none (median latency of the workload's request, see workloadDef.Request; follows ops_per_s in a closed loop)"},
	{Name: "p98_us", Unit: "us", Better: "lower", Layer: "workload", Moves: "none (98th percentile of the same latency)"},
	{Name: "pmem.psync_ns", Unit: "ns", Better: "lower", Layer: "pmem", Moves: "ops_per_s on map_apply_mixed (persistence spin is ~35% of op time); none on serve_*"},
	{Name: "pmem.pwb_ns", Unit: "ns", Better: "lower", Layer: "pmem", Moves: "ops_per_s on map_apply_mixed"},
	{Name: "pmem.calib_attempts", Unit: "count", Better: "lower", Layer: "pmem", Moves: "none (calibration guard reading)"},
	{Name: "pmem.flushes_per_op", Unit: "1/op", Better: "lower", Layer: "pmem", Moves: "persists_per_op, ops_per_s on the in-process workloads"},
	{Name: "pmem.barriers_per_op", Unit: "1/op", Better: "lower", Layer: "pmem", Moves: "persists_per_op, ops_per_s on the in-process workloads"},
	{Name: "pmem.line_flushes_per_op", Unit: "1/op", Better: "lower", Layer: "pmem", Moves: "ops_per_s on the in-process workloads"},
	{Name: "pmem.cas_per_op", Unit: "1/op", Better: "lower", Layer: "pmem", Moves: "ops_per_s on the in-process workloads"},
	{Name: "pmem.loads_per_op", Unit: "1/op", Better: "lower", Layer: "pmem", Moves: "ops_per_s on the in-process workloads"},
	{Name: "pmem.alloc_words_per_op", Unit: "1/op", Better: "lower", Layer: "pmem", Moves: "ops_per_s on the in-process workloads"},
	{Name: "pmem.heap_words_used", Unit: "count", Better: "lower", Layer: "pmem", Moves: "setup_s; bounded by reclaim.* on admit_window_txn"},
	{Name: "pmem.restart_ms", Unit: "ms", Better: "lower", Layer: "pmem", Moves: "p50_us on crash_recover only"},

	{Name: "reclaim.retired_per_kop", Unit: "1/kop", Better: "lower", Layer: "reclaim", Moves: "ops_per_s on admit_window_txn"},
	{Name: "reclaim.dropped_per_kop", Unit: "1/kop", Better: "lower", Layer: "reclaim", Moves: "pmem.heap_words_used, ops_per_s on admit_window_txn"},
	{Name: "reclaim.reused_share", Unit: "share", Better: "higher", Layer: "reclaim", Moves: "pmem.heap_words_used on admit_window_txn"},
	{Name: "reclaim.advances_per_kop", Unit: "1/kop", Better: "higher", Layer: "reclaim", Moves: "ops_per_s on admit_window_txn"},
	{Name: "reclaim.scan_marked", Unit: "count", Better: "lower", Layer: "reclaim", Moves: "p50_us on crash_recover"},
	{Name: "reclaim.scan_swept", Unit: "count", Better: "lower", Layer: "reclaim", Moves: "p50_us on crash_recover"},

	{Name: "isb.list_op_ns", Unit: "ns", Better: "lower", Layer: "isb", Moves: "ops_per_s on map_apply_mixed, admit_window_txn"},
	{Name: "isb.batch_syncs_per_op", Unit: "1/op", Better: "higher", Layer: "isb", Moves: "syncs_per_op everywhere windows fill"},
	{Name: "isb.read_fast_share", Unit: "share", Better: "higher", Layer: "isb", Moves: "syncs_per_op on every workload with reads"},

	{Name: "hashmap.op_ns", Unit: "ns", Better: "lower", Layer: "hashmap", Moves: "ops_per_s on map_apply_mixed"},

	{Name: "runtime.apply_ns", Unit: "ns", Better: "lower", Layer: "runtime", Moves: "ops_per_s on map_apply_mixed"},
	{Name: "runtime.window1_ns", Unit: "ns", Better: "lower", Layer: "runtime", Moves: "p50_us on serve_pingpong (its admission)"},
	{Name: "runtime.window16_ns", Unit: "ns", Better: "lower", Layer: "runtime", Moves: "ops_per_s on admit_window_txn, serve_pipelined"},
	{Name: "runtime.txn_ns", Unit: "ns", Better: "lower", Layer: "runtime", Moves: "ops_per_s on admit_window_txn; MOVE share of p50_us on serve_pingpong"},
	{Name: "runtime.recover_all_ms", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "p50_us on crash_recover"},
	{Name: "runtime.mallocs_per_op", Unit: "1/op", Better: "lower", Layer: "runtime", Moves: "ops_per_s on the in-process workloads"},

	{Name: "proto.codec_ns", Unit: "ns", Better: "lower", Layer: "proto", Moves: "ops_per_s on serve_pipelined; nothing in-process"},
	{Name: "proto.mallocs_per_req", Unit: "1/op", Better: "lower", Layer: "proto", Moves: "ops_per_s on serve_pipelined"},

	{Name: "serve.mem_rtt_ns", Unit: "ns", Better: "lower", Layer: "serve", Moves: "p50_us on serve_pingpong"},
	{Name: "serve.batch_fill_mean", Unit: "count", Better: "higher", Layer: "serve", Moves: "syncs_per_op down, ops_per_s up on serve_pipelined; none on serve_pingpong (fill pinned at 1)"},
	{Name: "serve.windows_per_kop", Unit: "1/kop", Better: "lower", Layer: "serve", Moves: "syncs_per_op on serve_pipelined"},
	{Name: "serve.retried_share", Unit: "share", Better: "lower", Layer: "serve", Moves: "ops_per_s on serve_pipelined"},
	{Name: "serve.shed_share", Unit: "share", Better: "lower", Layer: "serve", Moves: "ops_per_s on serve_pipelined"},
	{Name: "serve.deduped_share", Unit: "share", Better: "lower", Layer: "serve", Moves: "none while no request is resubmitted"},
	{Name: "serve.table_entries", Unit: "count", Better: "lower", Layer: "serve", Moves: "p98_us on serve_pipelined (table growth is GC work)"},
	{Name: "serve.server_p50_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "p50_us on serve_*"},
	{Name: "serve.server_p99_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "p98_us on serve_pipelined"},

	{Name: "client.mem_rtt_ns", Unit: "ns", Better: "lower", Layer: "client", Moves: "p50_us on serve_pingpong"},
	{Name: "client.session_rtt_ns", Unit: "ns", Better: "lower", Layer: "client", Moves: "none (Session is beside the chain)"},
	{Name: "client.p90_us", Unit: "us", Better: "lower", Layer: "client", Moves: "diagnostic tail on serve_*"},
	{Name: "client.p99_us", Unit: "us", Better: "lower", Layer: "client", Moves: "diagnostic tail on serve_*"},
	{Name: "client.mallocs_per_req", Unit: "1/op", Better: "lower", Layer: "client", Moves: "p50_us on serve_pingpong"},

	{Name: "wire.tcp_rtt_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "p50_us on serve_pingpong"},
	{Name: "wire.tcp_minus_mem_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "p50_us on serve_pingpong, p98_us on serve_pipelined"},

	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Layer: "go", Moves: "p98_us on serve_pipelined"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "go", Moves: "p98_us on serve_pipelined"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Layer: "trace", Moves: "none (1 - traced/untraced ops_per_s)"},
	{Name: "ladder.reconstruct_ratio", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "none (wire.tcp_rtt_ns / serve_pingpong p50_us; reported, not gated)"},
}

// measurement is one reported metric value. Min, Max and N describe the
// per-repetition values it is the median of.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// median returns the middle of xs (mean of the two middles when even), 0
// when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, 0 when empty.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

// measure summarises per-repetition values as their median with the range.
func measure(unit string, xs []float64) measurement {
	m := measurement{Value: median(xs), Unit: unit, N: len(xs)}
	if len(xs) > 0 {
		m.Min, m.Max = slices.Min(xs), slices.Max(xs)
	}
	return m
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// manifest is BENCHMARK.json as the tables above define it; the smoke test
// holds the committed file to it.
func manifest() map[string]any {
	var ws, e2e, layers []any
	for _, w := range workloads {
		ws = append(ws, map[string]any{"name": w.Name, "why": w.Why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		layers = append(layers, map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return map[string]any{
		"command":     []any{"go", "run", "./benchmark"},
		"paths":       []any{"benchmark"},
		"run_seconds": float64(defaultSeconds),
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}
