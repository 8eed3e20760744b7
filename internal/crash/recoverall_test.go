package crash

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/isb"
	"repro/internal/pmem"
)

// Runtime-level crash-point conformance: the same every-crash-point sweep
// as conformance_test.go, but recovery is routed by Runtime.RecoverAll —
// the announcement record says which structure and operation were in
// flight; the harness supplies nothing. Every sweepable structure × both
// engines must recover to the same response and post-state as targeted
// per-structure recovery (which the plain conformance sweep pins to the
// sequential model on identical case tables).

// reproEngines enumerates the public engine kinds for runtime-level sweeps.
func reproEngines() []struct {
	name string
	kind repro.EngineKind
} {
	return []struct {
		name string
		kind repro.EngineKind
	}{
		{"isb", repro.EngineIsb},
		{"isb-opt", repro.EngineIsbOpt},
	}
}

// recoverAllVia resolves a crashed replay through Runtime.RecoverAll,
// asserting the registry routed exactly the announced operation to the
// right structure. An empty report means the crash preceded the durable
// announcement — the operation provably had no effect — so the system
// simply re-submits it.
func recoverAllVia(t *testing.T, rt *repro.Runtime, tgt Target, s repro.Structure) func(p *pmem.Proc, op Op) uint64 {
	return func(p *pmem.Proc, op Op) uint64 {
		reps := rt.RecoverAll()
		if len(reps) == 0 {
			return tgt.Invoke(p, op)
		}
		if len(reps) != 1 {
			t.Fatalf("RecoverAll returned %d reports, want 1", len(reps))
		}
		rep := reps[0]
		if len(rep.Legs) != 1 || rep.Atomic || rep.Legs[0].Status != repro.OpInFlight {
			t.Fatalf("RecoverAll reported %+v for a single operation; want one in-flight leg", rep)
		}
		leg := rep.Legs[0]
		if rep.Proc != 0 || leg.StructID != s.ID() || leg.Op != (repro.Op{Kind: op.Kind, Arg: op.Arg}) {
			t.Fatalf("RecoverAll routed proc=%d struct=%d op=%+v; want proc=0 struct=%d op=%+v",
				rep.Proc, leg.StructID, leg.Op, s.ID(), op)
		}
		return leg.Resp.Raw()
	}
}

// seqVerify compares a sequence snapshot (queue front-to-back or stack
// top-to-bottom) against the sequential model, then runs the structure's
// invariant check.
func seqVerify(values func() []uint64, invariants func() string, want func(c SweepCase) []uint64) func(SweepCase) string {
	return func(c SweepCase) string {
		w := want(c)
		got := values()
		if len(got) != len(w) {
			return fmt.Sprintf("contents %v, want %v", got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				return fmt.Sprintf("contents %v, want %v", got, w)
			}
		}
		return invariants()
	}
}

func TestRecoverAllCrashConformance(t *testing.T) {
	for _, eng := range reproEngines() {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			// Sweep-sized heap: the sweep rebuilds the Runtime once per
			// crash offset, so a benchmark-sized arena would make heap
			// zeroing dominate the job's wall clock (see sweepHeapWords).
			newRT := func() *repro.Runtime {
				return repro.New(repro.Config{
					Procs: 1, CrashSim: true, HeapWords: sweepHeapWords,
					Seed: 42, Engine: eng.kind,
				})
			}

			t.Run("list", func(t *testing.T) {
				build := func() SweepInstance {
					rt := newRT()
					l := rt.NewList()
					p := rt.Proc(0)
					for _, k := range setPrefill {
						l.Insert(p, k)
					}
					tgt := runtimeTarget{l}
					return SweepInstance{
						Heap:       rt.Heap(),
						Target:     tgt,
						Verify:     setVerify(repro.OpInsert, repro.OpDelete, l.Keys, l.CheckInvariants),
						RecoverAll: recoverAllVia(t, rt, tgt, l),
					}
				}
				SweepAllPoints(t, build, setSweepCases(repro.OpInsert, repro.OpDelete, repro.OpFind))
			})

			t.Run("bst", func(t *testing.T) {
				build := func() SweepInstance {
					rt := newRT()
					b := rt.NewBST()
					p := rt.Proc(0)
					for _, k := range setPrefill {
						b.Insert(p, k)
					}
					tgt := runtimeTarget{b}
					return SweepInstance{
						Heap:       rt.Heap(),
						Target:     tgt,
						Verify:     setVerify(repro.OpInsert, repro.OpDelete, b.Keys, b.CheckInvariants),
						RecoverAll: recoverAllVia(t, rt, tgt, b),
					}
				}
				SweepAllPoints(t, build, setSweepCases(repro.OpInsert, repro.OpDelete, repro.OpFind))
			})

			t.Run("hashmap", func(t *testing.T) {
				build := func() SweepInstance {
					rt := newRT()
					m := rt.NewHashMap(4)
					p := rt.Proc(0)
					for _, k := range setPrefill {
						m.Insert(p, k)
					}
					tgt := runtimeTarget{m}
					return SweepInstance{
						Heap:       rt.Heap(),
						Target:     tgt,
						Verify:     setVerify(repro.OpInsert, repro.OpDelete, m.Keys, m.CheckInvariants),
						RecoverAll: recoverAllVia(t, rt, tgt, m),
					}
				}
				SweepAllPoints(t, build, setSweepCases(repro.OpInsert, repro.OpDelete, repro.OpFind))
			})

			t.Run("queue", func(t *testing.T) {
				build := func() SweepInstance {
					rt := newRT()
					q := rt.NewQueue()
					p := rt.Proc(0)
					q.Enqueue(p, 5)
					q.Enqueue(p, 6)
					tgt := runtimeTarget{q}
					return SweepInstance{
						Heap:   rt.Heap(),
						Target: tgt,
						Verify: seqVerify(q.Values, q.CheckInvariants, func(c SweepCase) []uint64 {
							if c.Op.Kind == repro.OpEnq {
								return []uint64{5, 6, c.Op.Arg}
							}
							return []uint64{6}
						}),
						RecoverAll: recoverAllVia(t, rt, tgt, q),
					}
				}
				SweepAllPoints(t, build, []SweepCase{
					{"enqueue", Op{Kind: repro.OpEnq, Arg: 7}, isb.RespTrue},
					{"dequeue", Op{Kind: repro.OpDeq}, isb.EncodeValue(5)},
				})
			})

			// stack-elim keeps the elimination window open (single proc, so
			// every exchange times out and falls back to the central stack):
			// it sweeps the announce-before-elimination entry sequence and
			// RecoverOp's exchanger-first recovery under registry routing,
			// which the elimSpins=0 variant never reaches. Actual collisions
			// need concurrency and are covered by the elimination crash
			// storms (crash_stack_test.go), which exercise the same
			// Stack.RecoverOp path RecoverAll routes to.
			for _, elim := range []struct {
				name  string
				spins int
			}{{"stack", 0}, {"stack-elim", 2}} {
				elim := elim
				t.Run(elim.name, func(t *testing.T) {
					build := func() SweepInstance {
						rt := newRT()
						s := rt.NewStack(elim.spins)
						p := rt.Proc(0)
						s.Push(p, 5)
						s.Push(p, 6)
						tgt := runtimeTarget{s}
						return SweepInstance{
							Heap:   rt.Heap(),
							Target: tgt,
							Verify: seqVerify(s.Values, s.CheckInvariants, func(c SweepCase) []uint64 {
								if c.Op.Kind == repro.OpPush {
									return []uint64{c.Op.Arg, 6, 5}
								}
								return []uint64{5}
							}),
							RecoverAll: recoverAllVia(t, rt, tgt, s),
						}
					}
					SweepAllPoints(t, build, []SweepCase{
						{"push", Op{Kind: repro.OpPush, Arg: 7}, isb.RespTrue},
						{"pop", Op{Kind: repro.OpPop}, isb.EncodeValue(6)},
					})
				})
			}
		})
	}
}
