package crash

import (
	"math/rand"
	"slices"
	"testing"

	"repro"
	"repro/internal/isb"
	"repro/internal/linearize"
	"repro/internal/pmem"
)

// eachRecoveryMode runs f as subtests name/fast and name/full: the two
// forced recovery paths.
func eachRecoveryMode(t *testing.T, name string, f func(t *testing.T, mode pmem.RecoveryMode)) {
	t.Run(name, func(t *testing.T) {
		t.Run("fast", func(t *testing.T) { f(t, pmem.RecoverFast) })
		t.Run("full", func(t *testing.T) { f(t, pmem.RecoverFull) })
	})
}

// TestReclaimDifferential pins the reclaimer to the leak-forever arena's
// semantics: the same single-process randomized operation-and-crash
// schedule runs once on each allocator, and every per-operation response,
// the final key set, and set-linearizability must coincide. Crash offsets
// are drawn identically, but the two runs' access streams differ (the
// reclaimer zeroes and links freed blocks, and reuses them, where the arena
// carves fresh words), so crashes
// land at different micro-points — which is the point: the sequential
// model fixes every response regardless of where a crash lands, so any
// divergence is an allocator-semantics bug, not schedule noise.
func TestReclaimDifferential(t *testing.T) {
	for _, eng := range engineVariants {
		eng := eng
		eachRecoveryMode(t, eng.name, func(t *testing.T, mode pmem.RecoveryMode) {
			const ops = 600
			run := func(reclaim bool) ([]uint64, []uint64, []linearize.Operation) {
				recovered := 0
				rt := cell{eng: eng, reclaim: reclaim, mode: mode}.runtime()
				m := rt.NewHashMap(4)
				p := rt.Proc(0)
				rng := rand.New(rand.NewSource(99))
				kinds := []uint64{repro.OpInsert, repro.OpDelete, repro.OpFind}
				var resps []uint64
				var hist []linearize.Operation
				clock := uint64(0)
				for i := 0; i < ops; i++ {
					op := repro.Op{Kind: kinds[rng.Intn(3)], Arg: uint64(rng.Intn(24)) + 1}
					armOff := uint64(0)
					if i%5 == 0 {
						armOff = uint64(rng.Intn(500)) + 1
					}
					for !rt.Run(func() { m.Begin(p) }) {
						rt.Restart()
						rt.RecoverAll() // resync the reclaimer; nothing announced
					}
					if armOff != 0 {
						rt.ScheduleCrash(armOff)
					}
					var resp repro.Resp
					ok := rt.Run(func() { resp = m.Apply(p, op) })
					for !ok {
						recovered++
						rt.Restart()
						reps := rt.RecoverAll()
						if msg := auditFastRecovery(rt, rt.Heap().Epoch()); msg != "" {
							t.Fatalf("op %d: %s", i, msg)
						}
						if len(reps) == 1 {
							resp = reps[0].Legs[0].Resp
							ok = true
						} else {
							// Crash preceded the announcement: re-submit.
							ok = rt.Run(func() { resp = m.Apply(p, op) })
						}
					}
					rt.CancelCrash()
					resps = append(resps, resp.Raw())
					hist = append(hist, linearize.Operation{
						Proc: 0, Kind: op.Kind, Arg: op.Arg, Resp: resp.Raw(),
						Start: clock, End: clock + 1,
					})
					clock += 2
				}
				if recovered == 0 {
					t.Fatal("no operation was ever interrupted: the schedule exercises nothing")
				}
				return resps, m.Keys(), hist
			}
			aResps, aKeys, aHist := run(false)
			rResps, rKeys, rHist := run(true)
			for i := range aResps {
				if aResps[i] != rResps[i] {
					t.Fatalf("op %d: arena resp %d, reclaimer resp %d", i, aResps[i], rResps[i])
				}
			}
			if len(aKeys) != len(rKeys) {
				t.Fatalf("final keys diverge: arena %v, reclaimer %v", aKeys, rKeys)
			}
			for i := range aKeys {
				if aKeys[i] != rKeys[i] {
					t.Fatalf("final keys diverge: arena %v, reclaimer %v", aKeys, rKeys)
				}
			}
			if k, ok := linearize.CheckSetHistory(aHist); !ok {
				t.Fatalf("arena history not linearizable at key %d", k)
			}
			if k, ok := linearize.CheckSetHistory(rHist); !ok {
				t.Fatalf("reclaimer history not linearizable at key %d", k)
			}
		})
	}
}

// stormRuns numbers the invocations of TestReclaimRecoveryStorm within one
// test binary, so that `go test -count=N` runs N different seeded storms
// (CI runs ten: 10 000 crashes) while a plain run is always seed 0.
var stormRuns int64

// TestReclaimRecoveryStorm is the amortised-recovery claim under a long
// seeded schedule: two Procs (driven in turn from one goroutine, so a seed
// fixes the schedule) churn a HashMap and a Queue through 1 000 crashes —
// some inside RecoverAll itself, most a few operations apart, some far
// enough apart for the rings to cycle — with the reclaimer choosing its own
// recovery path. Every response and the final contents must match the
// sequential model; every fast recovery is audited by the scan's mark
// phase; the garbage rule must have fired; the heap must stay within twice
// what the same schedule holds when it scans at every crash (plus one slab
// per Proc and class of slack); and a final forced scan must sweep no more
// than the books say is there.
func TestReclaimRecoveryStorm(t *testing.T) {
	crashes := 1000
	if testing.Short() {
		crashes = 100 // the race job's share; the rule fires near crash 50
	}
	const (
		procs   = 2
		keys    = 4096
		classes = 2 // 4-word nodes and 32-word Info records
		// pad parks every slab above any integer the schedule stores
		// (keys, values, the engines' untag cookies), so the conservative
		// closure retains nothing by coincidence and the audit's bound is
		// exact; both sides of the heap comparison leave it out.
		pad = 1 << 20
	)
	seed := stormRuns
	stormRuns++
	for _, eng := range engineVariants {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			run := func(mode pmem.RecoveryMode) (rt *repro.Runtime, sinceFull uint64) {
				rt = repro.New(repro.Config{
					Procs: procs, CrashSim: true, HeapWords: 1 << 21,
					Seed: 42, Engine: eng.kind, Reclaim: true,
				})
				rt.Reclaimer().ForceRecovery(mode)
				rt.Proc(0).Alloc(pad)
				m, q := rt.NewHashMap(256), rt.NewQueue()
				rng := rand.New(rand.NewSource(seed))
				present := map[uint64]bool{}
				var fifo []uint64
				for k := uint64(1); k <= keys; k += 2 {
					m.Insert(rt.Proc(0), k)
					present[k] = true
				}

				arm := func() {
					gap := 30 + rng.Intn(370)
					if rng.Intn(16) == 0 {
						gap = 8000 + rng.Intn(12000)
					}
					rt.ScheduleCrash(uint64(gap))
				}
				// recoverAll is one Restart + RecoverAll, itself crashed now
				// and then, followed by the audit of whichever path ran.
				// sinceFull counts the crashes whose in-flight residue no
				// scan has swept yet (a scan keeps what its own crash's
				// announced records name, so that crash counts too).
				fired := 0
				recoverAll := func() []repro.ProcReport {
					for {
						fired++
						sinceFull++
						rt.Restart()
						if rng.Intn(8) == 0 {
							rt.ScheduleCrash(uint64(rng.Intn(300)) + 1)
						}
						var reps []repro.ProcReport
						ok := rt.Run(func() { reps = rt.RecoverAll() })
						rt.CancelCrash()
						if !ok {
							continue
						}
						if scan, _ := rt.LastScan(); scan.Full {
							sinceFull = 1
						}
						if msg := auditFastRecovery(rt, sinceFull); msg != "" {
							t.Fatalf("seed %d, crash %d: %s", seed, fired, msg)
						}
						arm()
						return reps
					}
				}

				arm()
				for i := 0; fired < crashes; i++ {
					p := rt.Proc(i % procs)
					var s repro.Structure = m
					var op repro.Op
					var want uint64
					// The map breathes — 3000 operations mostly inserting, 3000
					// mostly deleting — so free lists a scan rebuilt are drawn
					// down again and the garbage rule goes quiet between bursts.
					ins := 2 + 4*(i/3000%2)
					switch c := rng.Intn(10); {
					case c < ins:
						op = repro.Op{Kind: repro.OpInsert, Arg: uint64(rng.Intn(keys)) + 1}
						want = isb.BoolResp(!present[op.Arg])
						present[op.Arg] = true
					case c < 8:
						op = repro.Op{Kind: repro.OpDelete, Arg: uint64(rng.Intn(keys)) + 1}
						want = isb.BoolResp(present[op.Arg])
						delete(present, op.Arg)
					case c < 9 || len(fifo) == 0:
						s, op = q, repro.Op{Kind: repro.OpEnq, Arg: uint64(i)}
						want = linearize.RespTrue
						fifo = append(fifo, op.Arg)
					default:
						s, op = q, repro.Op{Kind: repro.OpDeq}
						want = isb.EncodeValue(fifo[0])
						fifo = fifo[1:]
					}
					// A crash inside Begin leaves no recovery obligation.
					for !rt.Run(func() { s.Begin(p) }) {
						recoverAll()
					}
					var resp repro.Resp
					ok := rt.Run(func() { resp = s.Apply(p, op) })
					for !ok {
						// Begin cleared p's announcement, so a report entry
						// for p is this operation's; none means the crash
						// preceded the announcement and the op is resubmitted.
						for _, rep := range recoverAll() {
							if rep.Proc == p.ID() {
								resp, ok = rep.Legs[0].Resp, true
							}
						}
						if !ok {
							ok = rt.Run(func() { resp = s.Apply(p, op) })
						}
					}
					if resp.Raw() != want {
						t.Fatalf("seed %d, op %d (%+v on proc %d): response %d, want %d", seed, i, op, p.ID(), resp.Raw(), want)
					}
				}
				rt.CancelCrash()

				var wantKeys []uint64
				for k := range present {
					wantKeys = append(wantKeys, k)
				}
				slices.Sort(wantKeys)
				if got := m.Keys(); !slices.Equal(got, wantKeys) {
					t.Fatalf("seed %d: keys %v, want %v", seed, got, wantKeys)
				}
				if got := q.Values(); !slices.Equal(got, fifo) {
					t.Fatalf("seed %d: queue %v, want %v", seed, got, fifo)
				}
				if msg := m.CheckInvariants() + q.CheckInvariants(); msg != "" {
					t.Fatalf("seed %d: %s", seed, msg)
				}
				return rt, sinceFull
			}
			full, _ := run(pmem.RecoverFull)
			auto, sinceFull := run(pmem.RecoverAuto)
			st, _ := auto.ReclaimStats()
			if st.FullScans == 0 {
				t.Fatalf("seed %d: the garbage rule never fired in %d crashes: %+v", seed, crashes, st)
			}
			if st.FastRecoveries == 0 {
				t.Fatalf("seed %d: no recovery was fast: %+v", seed, st)
			}
			usedFull, usedAuto := full.Heap().Used()-pad, auto.Heap().Used()-pad
			if bound := 2*usedFull + procs*classes*2048; usedAuto > bound {
				t.Fatalf("seed %d: heap %d words, scan-every-crash holds %d (bound %d)", seed, usedAuto, usedFull, bound)
			}
			t.Logf("seed %d: %d fast recoveries, %d full scans, %+v; heap %d words against %d scanning at every crash",
				seed, st.FastRecoveries, st.FullScans, st, usedAuto, usedFull)

			// The scan as final checker: one more crash, recovered in full,
			// may not find more to sweep than the garbage account (which
			// then includes what that crash drops) and the in-flight bound
			// explain.
			auto.Reclaimer().ForceRecovery(pmem.RecoverFull)
			auto.Heap().Crash()
			auto.Restart()
			auto.RecoverAll()
			scan, _ := auto.LastScan()
			if budget := scan.Garbage + inFlightBound(auto, sinceFull); !scan.Full || scan.Swept > budget {
				t.Fatalf("seed %d: final scan swept %d blocks, books explain %d (%+v)", seed, scan.Swept, budget, scan)
			}
		})
	}
}
