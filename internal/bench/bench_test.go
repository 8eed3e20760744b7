package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro"
)

// TestReportSchema runs the quick matrix end to end and pins the JSON
// contract: Validate accepts the fresh report, and the serialized form
// carries the exact field names other tooling (CI artifact diffing) keys
// on. A rename or dropped field fails here, not in a downstream consumer.
func TestReportSchema(t *testing.T) {
	rep, err := Run(QuickParams())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	data, err := Marshal(rep)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if err := Validate(data); err != nil {
		t.Fatalf("fresh report failed validation: %v", err)
	}

	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for _, key := range []string{"schema_version", "label", "go_version", "scenarios", "sweeps", "sweep_seconds", "reclaim", "serve"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("report JSON is missing top-level key %q", key)
		}
	}
	scen := raw["scenarios"].([]any)[0].(map[string]any)
	for _, key := range []string{"name", "engine", "procs", "shards", "mix", "batch", "ops",
		"seconds", "ops_per_sec", "pbarriers_per_op", "flushes_per_op", "syncs_per_op",
		"persists_per_op", "batch_syncs", "read_fast_ops"} {
		if _, ok := scen[key]; !ok {
			t.Fatalf("scenario JSON is missing key %q", key)
		}
	}
	sweep := raw["sweeps"].([]any)[0].(map[string]any)
	for _, key := range []string{"name", "cases", "crash_points", "seconds"} {
		if _, ok := sweep[key]; !ok {
			t.Fatalf("sweep JSON is missing key %q", key)
		}
	}
	rec := raw["reclaim"].([]any)[0].(map[string]any)
	for _, key := range []string{"name", "engine", "reclaim", "churn_ops",
		"heap_words_mid", "heap_words", "live_nodes", "freed_blocks", "reused_blocks"} {
		if _, ok := rec[key]; !ok {
			t.Fatalf("reclaim JSON is missing key %q", key)
		}
	}
	sv := raw["serve"].([]any)[0].(map[string]any)
	for _, key := range []string{"name", "conns", "procs", "batch", "ops", "seconds",
		"ops_per_sec", "syncs_per_op", "persists_per_op", "retried", "batch_fill_mean",
		"p50_micros", "p99_micros", "fault_rate", "reconnects", "sheds", "timeouts"} {
		if _, ok := sv[key]; !ok {
			t.Fatalf("serve JSON is missing key %q", key)
		}
	}

	// The matrix must cover both engines, every canonical mix, the batch
	// axis (with its batch=1 anchor), and the eviction-widened conformance
	// scenarios.
	engines, mixes, batches := map[string]bool{}, map[string]bool{}, map[int]bool{}
	for _, pt := range rep.Scenarios {
		engines[pt.Engine] = true
		mixes[pt.Mix] = true
		batches[pt.Batch] = true
	}
	if !engines["isb"] || !engines["isb-opt"] {
		t.Fatalf("scenario engines = %v, want isb and isb-opt", engines)
	}
	if len(mixes) != len(Mixes()) {
		t.Fatalf("scenario mixes = %v, want all of %v", mixes, Mixes())
	}
	if !batches[1] || len(batches) < 2 {
		t.Fatalf("scenario batches = %v, want batch=1 plus at least one batched size", batches)
	}
	evict := false
	for _, sw := range rep.Sweeps {
		if strings.Contains(sw.Name, "-evict") {
			evict = true
		}
	}
	if !evict {
		t.Fatal("sweep section has no eviction-enabled scenario")
	}
	if rep.SweepSeconds <= 0 {
		t.Fatalf("sweep_seconds = %v, want > 0", rep.SweepSeconds)
	}

	// The reclaim section must cover both allocators on both engines, and
	// the cells must show the contrast the section exists to pin: bounded
	// steady-state heap with the reclaimer, unbounded growth without.
	modes := map[string]bool{}
	for _, pt := range rep.Reclaim {
		modes[fmt.Sprintf("%s/%v", pt.Engine, pt.Reclaim)] = true
		if pt.Reclaim && pt.ReusedBlocks == 0 {
			t.Fatalf("reclaim cell %s never reused a block; churn is not exercising reclamation", pt.Name)
		}
	}
	for _, want := range []string{"isb/true", "isb/false", "isb-opt/true", "isb-opt/false"} {
		if !modes[want] {
			t.Fatalf("reclaim cells %v missing %s", modes, want)
		}
	}

	// The serve section must span the conns axis with a batch=1 anchor and
	// a batched cell per group (the undercut itself depends on scheduling;
	// it is ServeBatchGate's, under cmd/bench -compare).
	serveGroups := map[int]map[int]bool{}
	for _, pt := range rep.Serve {
		if serveGroups[pt.Conns] == nil {
			serveGroups[pt.Conns] = map[int]bool{}
		}
		serveGroups[pt.Conns][pt.Batch] = true
	}
	if len(serveGroups) < 2 {
		t.Fatalf("serve section spans %d conns values, want >= 2", len(serveGroups))
	}
	for conns, batches := range serveGroups {
		if !batches[1] || len(batches) < 2 {
			t.Fatalf("serve conns=%d batches = %v, want batch=1 plus a batched size", conns, batches)
		}
	}
	// The fault axis must actually run: at least one hostile-wire cell per
	// conns value, each named distinctly from its fault-free twin (the
	// Reconnects > 0 requirement on those cells is Validate's gate).
	faultConns := map[int]bool{}
	for _, pt := range rep.Serve {
		if pt.FaultRate > 0 {
			faultConns[pt.Conns] = true
			if !strings.Contains(pt.Name, "fault=") {
				t.Fatalf("fault cell %s is not name-distinguished from the fault-free cells", pt.Name)
			}
		}
	}
	if len(faultConns) != len(serveGroups) {
		t.Fatalf("fault cells cover conns %v, want every conns group %v", faultConns, serveGroups)
	}
}

// TestValidateRejectsMalformed pins the failure modes the CI gate relies
// on: truncated output, wrong schema, and an empty matrix must all error.
func TestValidateRejectsMalformed(t *testing.T) {
	// validPrefix carries well-formed scenarios/sweeps/reclaim sections so
	// each case below trips exactly the serve-or-later check it names.
	const validPrefix = `{"schema_version": 5, "label": "x", "scenarios": [
		{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"read-heavy","batch":1,"ops":1,"seconds":1},
		{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"mixed","batch":1,"ops":1,"seconds":1},
		{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"write-heavy","batch":1,"ops":1,"seconds":1}],
		"sweeps": [{"name":"c","cases":1,"crash_points":1,"seconds":1}],
		"reclaim": [{"name":"r","engine":"isb","reclaim":false,"churn_ops":10,
		 "heap_words_mid":100,"heap_words":200}]`
	for name, data := range map[string]string{
		"truncated":    `{"schema_version": 5, "label": "x"`,
		"wrong-schema": `{"schema_version": 99, "label": "x", "scenarios": [], "sweeps": []}`,
		"no-scenarios": `{"schema_version": 5, "label": "x", "scenarios": [], "sweeps": []}`,
		"nan-metric": `{"schema_version": 5, "label": "x", "scenarios": [
			{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"mixed","batch":1,"ops":1,
			 "seconds":1,"ops_per_sec":"NaN"}], "sweeps": []}`,
		"no-batch-anchor": `{"schema_version": 5, "label": "x", "scenarios": [
			{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"read-heavy","batch":8,"ops":1,"seconds":1},
			{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"mixed","batch":8,"ops":1,"seconds":1},
			{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"write-heavy","batch":8,"ops":1,"seconds":1}],
			"sweeps": [{"name":"c","cases":1,"crash_points":1,"seconds":1}],
			"reclaim": [{"name":"r","engine":"isb","reclaim":false,"churn_ops":10,
			 "heap_words_mid":100,"heap_words":200}]}`,
		"reclaim-heap-grew": `{"schema_version": 5, "label": "x", "scenarios": [
			{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"read-heavy","batch":1,"ops":1,"seconds":1},
			{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"mixed","batch":1,"ops":1,"seconds":1},
			{"name":"s","engine":"isb","procs":1,"shards":1,"mix":"write-heavy","batch":1,"ops":1,"seconds":1}],
			"sweeps": [{"name":"c","cases":1,"crash_points":1,"seconds":1}],
			"reclaim": [{"name":"r","engine":"isb","reclaim":true,"churn_ops":10,
			 "heap_words_mid":100,"heap_words":200}]}`,
		"no-serve": validPrefix + `}`,
		"serve-missing-anchor": validPrefix + `, "serve": [
			{"name":"sv","conns":1,"procs":2,"batch":8,"ops":10,"seconds":1,"ops_per_sec":10,
			 "syncs_per_op":2,"persists_per_op":4,"batch_fill_mean":2,"p50_micros":1,"p99_micros":2}]}`,
		// A hostile-wire cell that never reconnected measured nothing.
		"fault-cell-no-reconnects": validPrefix + `, "serve": [
			{"name":"sv1","conns":1,"procs":2,"batch":1,"ops":10,"seconds":1,"ops_per_sec":10,
			 "syncs_per_op":3,"persists_per_op":5,"batch_fill_mean":1,"p50_micros":1,"p99_micros":2},
			{"name":"sv8","conns":1,"procs":2,"batch":8,"ops":10,"seconds":1,"ops_per_sec":20,
			 "syncs_per_op":2,"persists_per_op":5,"batch_fill_mean":4,"p50_micros":1,"p99_micros":2},
			{"name":"sv8f","conns":1,"procs":2,"batch":8,"ops":10,"seconds":1,"ops_per_sec":15,
			 "syncs_per_op":2,"persists_per_op":5,"batch_fill_mean":4,"p50_micros":1,"p99_micros":2,
			 "fault_rate":0.5,"reconnects":0}]}`,
		// A fault-free cell must never reconnect: the serve path itself
		// dropped a connection.
		"fault-free-cell-reconnected": validPrefix + `, "serve": [
			{"name":"sv1","conns":1,"procs":2,"batch":1,"ops":10,"seconds":1,"ops_per_sec":10,
			 "syncs_per_op":3,"persists_per_op":5,"batch_fill_mean":1,"p50_micros":1,"p99_micros":2,
			 "reconnects":2},
			{"name":"sv8","conns":1,"procs":2,"batch":8,"ops":10,"seconds":1,"ops_per_sec":20,
			 "syncs_per_op":2,"persists_per_op":5,"batch_fill_mean":4,"p50_micros":1,"p99_micros":2}]}`,
	} {
		if err := Validate([]byte(data)); err == nil {
			t.Errorf("%s: Validate accepted malformed report", name)
		}
	}
}

// TestServeBatchGate pins the performance gate cmd/bench -compare runs on
// the fresh report: a largest-batch cell that does not undercut 80% of its
// group's batch=1 anchor fails, one that does passes, and faulted cells are
// ignored. Validate accepts both reports: the undercut is not a schema
// property.
func TestServeBatchGate(t *testing.T) {
	mk := func(batch8Syncs float64) []byte {
		data, err := json.Marshal(Report{Serve: []ServePoint{
			{Name: "sv1", Conns: 1, Procs: 2, Batch: 1, SyncsPerOp: 3},
			{Name: "sv8", Conns: 1, Procs: 2, Batch: 8, SyncsPerOp: batch8Syncs},
			{Name: "sv8f", Conns: 1, Procs: 2, Batch: 16, SyncsPerOp: 3, FaultRate: 0.5, Reconnects: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := ServeBatchGate(mk(2.0)); err != nil {
		t.Fatalf("batch=8 at 2.0 syncs/op against an anchor of 3 flagged: %v", err)
	}
	err := ServeBatchGate(mk(2.9))
	if err == nil || !strings.Contains(err.Error(), "conns=1") {
		t.Fatalf("batch=8 at 2.9 syncs/op against an anchor of 3 not flagged by group: %v", err)
	}
}

// TestReclaimBoundedHeap is the headline reclamation pin: a churn workload
// whose cumulative allocation demand exceeds 100x the heap's capacity must
// complete with the epoch reclaimer on — every allocation past the first
// few windows is served from recycled blocks — and leave heap usage far
// below capacity. The same demand under the leak-forever arena is
// unsatisfiable by construction (the arena never frees, so it would
// exhaust the heap after ~1% of the workload and panic); the arithmetic
// below documents that baseline instead of running it to the panic.
func TestReclaimBoundedHeap(t *testing.T) {
	const heapCap = 1 << 15
	for _, eng := range engineKinds() {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			rt := repro.New(repro.Config{
				Procs: 1, HeapWords: heapCap, Engine: eng.kind, Reclaim: true,
			})
			q := rt.NewQueue()
			p := rt.Proc(0)
			// Demand per enqueue/dequeue pair: two 32-word tracking records
			// plus one 4-word node = 68 words minimum (copies and failed
			// attempts only add to it).
			const wordsPerPair = 68
			pairs := 100*heapCap/wordsPerPair + 1
			if demand := pairs * wordsPerPair; demand < 100*heapCap {
				t.Fatalf("demand %d words < 100x capacity %d", demand, 100*heapCap)
			}
			for i := 0; i < pairs; i++ {
				q.Enqueue(p, uint64(i))
				if v, ok := q.Dequeue(p); !ok || v != uint64(i) {
					t.Fatalf("pair %d: dequeue got (%d, %v)", i, v, ok)
				}
			}
			used := rt.Heap().Used()
			if used > heapCap/2 {
				t.Fatalf("heap usage %d words after %d pairs; want bounded well below capacity %d",
					used, pairs, heapCap)
			}
			st, _ := rt.ReclaimStats()
			if st.Reused == 0 || st.Freed == 0 {
				t.Fatalf("no recycling happened: stats %+v", st)
			}
			t.Logf("%d pairs (demand %dx capacity): used %d/%d words, live %d blocks, stats %+v",
				pairs, pairs*wordsPerPair/heapCap, used, heapCap, rt.LiveNodes(), st)
		})
	}
}

// TestCompare pins the regression gate cmd/bench -compare runs in CI:
// identical reports pass, a throughput collapse (relative to the report
// pair's median ratio, which cancels machine-wide skew) or a persists/op
// rise fails with the offending cell named, and disjoint matrices and
// schema mismatches are errors rather than silent passes.
func TestCompare(t *testing.T) {
	mk := func(edit func(*Report)) []byte {
		rep := Report{Schema: SchemaVersion, Label: "base", Scenarios: []Point{
			{Name: "a/batch=1", Engine: "isb", Mix: "mixed", Batch: 1,
				Ops: 1000, Seconds: 1.0, OpsPerSec: 1000, PersistsPerOp: 4.0},
			{Name: "a/batch=64", Engine: "isb", Mix: "mixed", Batch: 64,
				Ops: 3000, Seconds: 1.0, OpsPerSec: 3000, PersistsPerOp: 1.2},
		}, Serve: []ServePoint{
			{Name: "serve/conns=4/procs=2/batch=16", Conns: 4, Procs: 2, Batch: 16,
				Ops: 4000, Seconds: 1.0, OpsPerSec: 4000, PersistsPerOp: 2.0},
			{Name: "serve/conns=4/procs=2/batch=16/fault=0.5", Conns: 4, Procs: 2, Batch: 16,
				Ops: 4000, Seconds: 2.0, OpsPerSec: 2000, PersistsPerOp: 2.0,
				FaultRate: 0.5, Reconnects: 7},
		}}
		if edit != nil {
			edit(&rep)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	base := mk(nil)

	if err := Compare(base, mk(nil)); err != nil {
		t.Fatalf("identical reports flagged: %v", err)
	}
	// Throughput noise inside the floor passes; a collapse fails, named by
	// its (engine, mix, batch) group.
	if err := Compare(base, mk(func(r *Report) { r.Scenarios[0].Seconds = 1.1 })); err != nil {
		t.Fatalf("10%% throughput dip flagged: %v", err)
	}
	err := Compare(base, mk(func(r *Report) { r.Scenarios[1].Seconds = 2.0 }))
	if err == nil || !strings.Contains(err.Error(), "batch=64") {
		t.Fatalf("50%% throughput collapse not flagged by group: %v", err)
	}
	// A machine-wide slowdown (every group equally slower) normalizes away.
	if err := Compare(base, mk(func(r *Report) {
		for i := range r.Scenarios {
			r.Scenarios[i].Seconds *= 2.0
		}
		for i := range r.Serve {
			r.Serve[i].Seconds *= 2.0
		}
	})); err != nil {
		t.Fatalf("uniform 2x slowdown flagged despite median normalization: %v", err)
	}
	// A whole extra persist per op fails; slack-sized jitter passes.
	err = Compare(base, mk(func(r *Report) { r.Scenarios[1].PersistsPerOp = 2.2 }))
	if err == nil || !strings.Contains(err.Error(), "persists/op") {
		t.Fatalf("persists/op regression not flagged: %v", err)
	}
	if err := Compare(base, mk(func(r *Report) { r.Scenarios[1].PersistsPerOp = 1.21 })); err != nil {
		t.Fatalf("sub-slack persists/op jitter flagged: %v", err)
	}
	// Serve cells ride the same gates with a wider persist slack: +20%
	// (window-fill scheduling jitter) passes, +30% fails by name, and a
	// serve throughput collapse is flagged as its own pseudo-group.
	if err := Compare(base, mk(func(r *Report) { r.Serve[0].PersistsPerOp = 2.4 })); err != nil {
		t.Fatalf("serve persists/op jitter inside the wide slack flagged: %v", err)
	}
	err = Compare(base, mk(func(r *Report) { r.Serve[0].PersistsPerOp = 2.6 }))
	if err == nil || !strings.Contains(err.Error(), "serve/conns=4") {
		t.Fatalf("serve persists/op regression not flagged: %v", err)
	}
	err = Compare(base, mk(func(r *Report) { r.Serve[0].Seconds = 2.5 }))
	if err == nil || !strings.Contains(err.Error(), "engine=serve") {
		t.Fatalf("serve throughput collapse not flagged as a serve group: %v", err)
	}
	// Fault cells are their own pseudo-group: a hostile-wire collapse is
	// named by its fault rate, never blended into the fault-free group.
	err = Compare(base, mk(func(r *Report) { r.Serve[1].Seconds = 5.0 }))
	if err == nil || !strings.Contains(err.Error(), "fault=0.5") {
		t.Fatalf("fault-cell throughput collapse not flagged by its fault group: %v", err)
	}
	// Structural mismatches must error.
	if err := Compare(base, mk(func(r *Report) { r.Schema = SchemaVersion + 1 })); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if err := Compare(base, mk(func(r *Report) {
		for i := range r.Scenarios {
			r.Scenarios[i].Name += "/renamed"
		}
	})); err == nil {
		t.Fatal("disjoint scenario names accepted")
	}
}
