package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
)

// smoke is the size the tests run at: about 1% of a real run.
var smoke = runCtx{seed: 1, scale: 0.01}

// TestManifest holds BENCHMARK.json to the tables the benchmark reports
// from: command, paths, workloads, metric names, units, directions, bounds.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := manifest(); !reflect.DeepEqual(got, want) {
		js, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the benchmark's tables; the tables give:\n%s", js)
	}
}

func checkMeasurements(t *testing.T, what string, got map[string]measurement, defs []metricDef) {
	t.Helper()
	var names, want []string
	for name, m := range got {
		names = append(names, name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v is not finite", what, name, m.Value)
		}
	}
	for _, d := range defs {
		want = append(want, d.Name)
		if got[d.Name].Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, got[d.Name].Unit, d.Unit)
		}
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("%s: reported %v, declared %v", what, names, want)
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced (the traced
// run includes the ladder) and checks the reported names against the
// declared ones, that every value is finite, and that no operation failed.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	sc := measureStack(smoke, calibration{attempts: 1, psyncNs: 100, pwbNs: 90})
	for _, r := range sc.ladder {
		if r.Failed != 0 || r.Ops == 0 {
			t.Errorf("ladder row %q: %d of %d operations failed", r.Name, r.Failed, r.Ops)
		}
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep := runUntraced(w, smoke, 1)
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("untraced: %d of %d operations failed", rep.Failed, rep.Attempted)
			}
			checkMeasurements(t, "end_to_end", rep.EndToEnd, endToEnd)
			for _, d := range endToEnd {
				if rep.EndToEnd[d.Name].Value <= 0 {
					t.Errorf("end_to_end %s = %v, must be positive", d.Name, rep.EndToEnd[d.Name].Value)
				}
			}
			if got := resultOf(rep).Metrics; len(got) != len(endToEnd) {
				t.Errorf("result line carries %d metrics, want %d", len(got), len(endToEnd))
			}

			tr, err := runTraced(w, smoke, sc, 3, dir)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Failed != 0 {
				t.Errorf("traced: %d of %d operations failed", tr.Failed, tr.Attempted)
			}
			checkMeasurements(t, "per_layer", tr.PerLayer, perLayer)
			if st, err := os.Stat(tr.TraceFile); err != nil || st.Size() == 0 {
				t.Errorf("trace file %q missing or empty: %v", tr.TraceFile, err)
			}
		})
	}
}

// TestSameSeedSameCounts: single-threaded work repeats exactly.
func TestSameSeedSameCounts(t *testing.T) {
	counts := func(r repResult) []float64 {
		return []float64{
			float64(r.ops), float64(r.failed), float64(r.mem.Syncs), float64(r.mem.Barriers), float64(r.mem.Flushes),
			float64(r.mem.Loads), float64(r.mem.CASes), float64(r.mem.AllocWords),
			r.layer["reclaim.scan_marked"], r.layer["reclaim.scan_swept"], r.layer["reclaim.retired_per_kop"],
			r.layer["pmem.heap_words_used"], float64(len(r.lat)),
		}
	}
	a, b := runCrashRecover(smoke, 1, nil), runCrashRecover(smoke, 1, nil)
	if !slices.Equal(counts(a), counts(b)) {
		t.Errorf("crash_recover counters differ between two runs of one seed:\n%v\n%v", counts(a), counts(b))
	}
	if c := runCrashRecover(runCtx{seed: 2, scale: smoke.scale}, 1, nil); slices.Equal(counts(a), counts(c)) {
		t.Errorf("crash_recover counters of seeds 1 and 2 are identical: %v", counts(a))
	}

	rows := func() (out [][3]float64) {
		for _, r := range runLadder(smoke.seed, smoke.n(ladderOps, 64)) {
			out = append(out, [3]float64{float64(r.Ops), float64(r.Failed), r.SyncsOp})
		}
		return out
	}
	if x, y := rows(), rows(); !slices.Equal(x, y) {
		t.Errorf("ladder counts differ between two runs of one seed:\n%v\n%v", x, y)
	}
}

// TestSeedChangesStream: the inputs are a function of the seed.
func TestSeedChangesStream(t *testing.T) {
	pt := partition{issuers: 1, keys: serveKeys}
	gen := func(seed int64) []req { return genReqs(newRNG(seed, 1, 0), pt, servePipelined.mix, 64) }
	if !slices.Equal(gen(1), gen(1)) {
		t.Error("one seed gave two streams")
	}
	if slices.Equal(gen(1), gen(2)) {
		t.Error("seeds 1 and 2 gave the same stream")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestVerdict covers the four outcomes of the comparison rule.
func TestVerdict(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		new  []float64
		want string
	}{
		{scaled(1.2), vBetter},
		{scaled(0.95), vWithin},
		{scaled(0.8), vWorse},
		{noisy, vUnresolved},
	} {
		if got := verdict(d, base, c.new); got != c.want {
			t.Errorf("verdict(new median %v) = %q, want %q", median(c.new), got, c.want)
		}
	}
}
