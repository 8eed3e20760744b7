package crash

import (
	"math/rand"
	"testing"

	"repro/internal/isb"
	"repro/internal/linearize"
	"repro/internal/list"
	"repro/internal/pmem"
)

// listKindMap translates list op codes to linearize kinds (they coincide).
func listGen(keys uint64) func(id, i int, rng *rand.Rand) Op {
	return func(id, i int, rng *rand.Rand) Op {
		k := uint64(rng.Intn(int(keys))) + 1
		switch rng.Intn(3) {
		case 0:
			return Op{Kind: list.OpInsert, Arg: k}
		case 1:
			return Op{Kind: list.OpDelete, Arg: k}
		default:
			return Op{Kind: list.OpFind, Arg: k}
		}
	}
}

func runListStorm(t *testing.T, eng engineVariant, seed int64, procs, opsPerProc, crashes int, keys uint64, evictEvery uint64) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{
		Words: 1 << 22, Procs: procs, Tracked: true,
		EvictEvery: evictEvery, Seed: uint64(seed) + 1,
	})
	l := list.NewWithEngine(h, eng.mk(h))
	res := Run(Config{
		Heap: h, Target: Adapt(l), Procs: procs, OpsPerProc: opsPerProc,
		Gen: listGen(keys), Crashes: crashes,
		MeanAccessGap: procs * opsPerProc * 40 / (crashes + 1),
		Seed:          seed,
	})
	if want := procs * opsPerProc; len(res.History) != want {
		t.Fatalf("history has %d ops, want %d (detectability: every op must resolve)", len(res.History), want)
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatalf("structural invariant violated after storm: %s", msg)
	}
	if k, ok := linearize.CheckSetHistory(res.History); !ok {
		t.Fatalf("history not linearizable at key %d (seed %d, %d crashes fired, %d recovered ops)",
			k, seed, res.CrashesFired, res.RecoveredOps)
	}
	// Final membership must match the history's net successful updates.
	net := map[uint64]int{}
	for _, e := range res.Events {
		if e.Resp != linearize.RespTrue {
			continue
		}
		switch e.Op.Kind {
		case list.OpInsert:
			net[e.Op.Arg]++
		case list.OpDelete:
			net[e.Op.Arg]--
		}
	}
	present := map[uint64]bool{}
	for _, k := range l.Keys() {
		present[k] = true
	}
	for k := uint64(1); k <= keys; k++ {
		want := 0
		if present[k] {
			want = 1
		}
		if net[k] != want {
			t.Fatalf("key %d: net successful updates %d but presence %v (seed %d)", k, net[k], present[k], seed)
		}
	}
}

func TestListSingleProcCrashStorm(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 8; seed++ {
			runListStorm(t, eng, seed, 1, 60, 6, 8, 0)
		}
	})
}

func TestListConcurrentCrashStorm(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 6; seed++ {
			runListStorm(t, eng, seed, 4, 40, 5, 16, 0)
		}
	})
}

func TestListCrashStormWithEviction(t *testing.T) {
	// Random cache-line eviction persists extra state at arbitrary points,
	// widening the crash-state space (persisted state newer than the last
	// explicit flush).
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 6; seed++ {
			runListStorm(t, eng, seed, 4, 40, 5, 12, 3)
		}
	})
}

func TestListHighCrashRate(t *testing.T) {
	// Crashes every few operations: most operations recover, many recover
	// through multiple crashes.
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 4; seed++ {
			runListStorm(t, eng, seed, 3, 30, 20, 8, 0)
		}
	})
}

func TestListManyProcsFewKeysStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 3; seed++ {
			runListStorm(t, eng, seed, 8, 30, 6, 25, 4)
		}
	})
}

func TestStormReportsRecoveries(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 22, Procs: 2, Tracked: true})
	l := list.NewWithEngine(h, isb.NewEngine(h))
	res := Run(Config{
		Heap: h, Target: Adapt(l), Procs: 2, OpsPerProc: 100,
		Gen: listGen(4), Crashes: 8, MeanAccessGap: 700, Seed: 99,
	})
	if res.CrashesFired == 0 {
		t.Fatal("no crashes fired")
	}
	if res.RecoveredOps == 0 {
		t.Fatal("no operations went through recovery")
	}
	if h.Epoch() != uint64(res.CrashesFired) {
		t.Fatalf("heap epochs %d != crashes fired %d", h.Epoch(), res.CrashesFired)
	}
}

func TestStormZeroCrashesIsPlainConcurrency(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Words: 1 << 22, Procs: 4, Tracked: true})
	l := list.NewWithEngine(h, isb.NewEngine(h))
	res := Run(Config{
		Heap: h, Target: Adapt(l), Procs: 4, OpsPerProc: 50,
		Gen: listGen(10), Crashes: 0, Seed: 7,
	})
	if res.CrashesFired != 0 || res.RecoveredOps != 0 {
		t.Fatalf("unexpected crashes/recoveries: %+v", res)
	}
	if k, ok := linearize.CheckSetHistory(res.History); !ok {
		t.Fatalf("crash-free history not linearizable at key %d", k)
	}
}

// TestHistoryCapPerKey guards the WGL size bound: workloads used above must
// not route more than linearize.MaxOps operations to a single key.
func TestHistoryCapPerKey(t *testing.T) {
	counts := map[uint64]int{}
	gen := listGen(8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ { // one proc's workload from the single-proc storm
		counts[gen(0, i, rng).Arg]++
	}
	for k, c := range counts {
		if c > linearize.MaxOps {
			t.Fatalf("key %d gets %d ops, exceeding checker capacity", k, c)
		}
	}
}
