package crash

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/isb"
	"repro/internal/linearize"
	"repro/internal/pmem"
	"repro/internal/stack"
)

func stackGen(next *atomic.Uint64) func(id, i int, rng *rand.Rand) Op {
	return func(id, i int, rng *rand.Rand) Op {
		if rng.Intn(2) == 0 {
			return Op{Kind: stack.OpPush, Arg: next.Add(1)}
		}
		return Op{Kind: stack.OpPop}
	}
}

func runStackStorm(t *testing.T, eng engineVariant, seed int64, procs, opsPerProc, crashes, spins int, evictEvery uint64) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{
		Words: 1 << 21, Procs: procs, Tracked: true,
		EvictEvery: evictEvery, Seed: uint64(seed) + 1,
	})
	s := stack.NewWithEngine(h, eng.mk(h), spins)
	var next atomic.Uint64
	res := Run(Config{
		Heap: h, Target: Adapt(s), Procs: procs, OpsPerProc: opsPerProc,
		Gen: stackGen(&next), Crashes: crashes,
		MeanAccessGap: procs * opsPerProc * 40 / (crashes + 1),
		Seed:          seed,
	})
	if want := procs * opsPerProc; len(res.History) != want {
		t.Fatalf("history %d ops, want %d", len(res.History), want)
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatalf("invariant: %s (seed %d)", msg, seed)
	}
	hist := make([]linearize.Operation, len(res.History))
	copy(hist, res.History)
	for i := range hist {
		if hist[i].Kind == stack.OpPush {
			hist[i].Kind = linearize.KindPush
		} else {
			hist[i].Kind = linearize.KindPop
		}
	}
	if !linearize.Check(linearize.StackModel(), hist) {
		t.Fatalf("stack history not linearizable (seed %d, crashes %d, recovered %d)",
			seed, res.CrashesFired, res.RecoveredOps)
	}
	// Conservation.
	pushed := map[uint64]bool{}
	poppedCount := map[uint64]int{}
	for _, e := range res.Events {
		if e.Op.Kind == stack.OpPush {
			pushed[e.Op.Arg] = true
		} else if e.Resp != isb.RespEmpty {
			poppedCount[isb.DecodeValue(e.Resp)]++
		}
	}
	for v, n := range poppedCount {
		if n != 1 || !pushed[v] {
			t.Fatalf("value %d popped %d times, pushed=%v (seed %d)", v, n, pushed[v], seed)
		}
	}
	remaining := s.Values()
	if len(remaining)+len(poppedCount) != len(pushed) {
		t.Fatalf("conservation mismatch (seed %d)", seed)
	}
}

func TestStackSingleProcCrashStorm(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 8; seed++ {
			runStackStorm(t, eng, seed, 1, 50, 6, 0, 0)
		}
	})
}

func TestStackConcurrentCrashStorm(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 5; seed++ {
			runStackStorm(t, eng, seed, 3, 20, 5, 0, 0)
		}
	})
}

func TestStackCrashStormWithElimination(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 5; seed++ {
			runStackStorm(t, eng, seed, 3, 20, 5, stack.DefaultElimSpins, 0)
		}
	})
}

// TestStackCrashStormWithEviction adds simulated arbitrary cache evictions
// (persisted state newer than the last explicit sync), with the elimination
// window closed and open.
func TestStackCrashStormWithEviction(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for _, spins := range []int{0, stack.DefaultElimSpins} {
			for seed := int64(1); seed <= 5; seed++ {
				runStackStorm(t, eng, seed, 3, 20, 6, spins, 3)
			}
		}
	})
}

func TestStackHighCrashRate(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng engineVariant) {
		for seed := int64(1); seed <= 4; seed++ {
			runStackStorm(t, eng, seed, 2, 25, 15, stack.DefaultElimSpins, 0)
		}
	})
}
