package crash

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/isb"
)

// This file holds the batched-admission conformance matrix: windows swept at
// every access offset — so the mid-announcement, mid-cursor-advance and
// mid-operation crash states are all covered — on both engine placements,
// with reclamation on and off. See sweep.go for how a crashed window is
// resolved.

// BatchSweepCase is one deterministic single-process batch: the operations
// submitted as one ApplyBatch window, and the encoded response the
// sequential model requires from each.
type BatchSweepCase struct {
	Name string
	Ops  []repro.Op
	Want []uint64
}

// BatchSweepInstance is one freshly built runtime + structure under batch
// sweep. Verify checks the structure's post-state once every operation of
// the case has resolved (directly, through recovery, or by re-submission);
// it returns a description of the first violation, or "".
type BatchSweepInstance struct {
	RT     *repro.Runtime
	S      repro.Structure
	Verify func(c BatchSweepCase) string
}

// RunBatchCase sweeps one window at every crash point.
func RunBatchCase(build func() BatchSweepInstance, c BatchSweepCase) (crashPoints int, err error) {
	return Sweep(c.Name, func() Instance {
		in := build()
		v := vector{rt: in.RT}
		for _, op := range c.Ops {
			v.legs = append(v.legs, repro.TxnLeg{S: in.S, Op: op})
		}
		return v.instance(func() string { return in.Verify(c) }, c.Want)
	}, c.Want)
}

// BatchScenario is one (structure, engine kind, reclaim mode) cell of the
// batch conformance matrix.
type BatchScenario struct {
	Structure string
	Engine    string
	Reclaim   bool
	Build     func() BatchSweepInstance
	Cases     []BatchSweepCase
}

// Name identifies the cell in test output.
func (s BatchScenario) Name() string {
	mode := "arena"
	if s.Reclaim {
		mode = "reclaim"
	}
	return s.Structure + "/" + s.Engine + "/" + mode
}

// batchRT builds the sweep runtime for one batch cell.
func batchRT(kind repro.EngineKind, reclaim bool) *repro.Runtime {
	return repro.New(repro.Config{
		Procs: 1, CrashSim: true, HeapWords: sweepHeapWords,
		Seed: 42, Engine: kind, Reclaim: reclaim,
	})
}

// batchSetVerify checks a set-structure's final key set against want.
func batchSetVerify(keys func() []uint64, invariants func() string, want []uint64) func(BatchSweepCase) string {
	return func(BatchSweepCase) string {
		got := keys()
		if len(got) != len(want) {
			return fmt.Sprintf("key set %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Sprintf("key set %v, want %v", got, want)
			}
		}
		return invariants()
	}
}

// batchSeqVerify checks a queue/stack value snapshot against want.
func batchSeqVerify(values func() []uint64, invariants func() string, want []uint64) func(BatchSweepCase) string {
	return func(BatchSweepCase) string {
		got := values()
		if len(got) != len(want) {
			return fmt.Sprintf("values %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Sprintf("values %v, want %v", got, want)
			}
		}
		return invariants()
	}
}

// batchSetCases is the shared set-structure batch table: mutations
// interleaved with reads (one mid-batch, one terminal), so the sweep hits
// reads whose results must be durable before the next op's effect, and a
// read as the batch's final — never result-slot-covered — operation.
// Prefill {3, 9}; final set {3, 5, 9}.
func batchSetCases() []BatchSweepCase {
	t, f := isb.RespTrue, isb.RespFalse
	return []BatchSweepCase{
		{
			Name: "mixed",
			Ops: []repro.Op{
				{Kind: repro.OpInsert, Arg: 5},
				{Kind: repro.OpFind, Arg: 5},
				{Kind: repro.OpDelete, Arg: 9},
				{Kind: repro.OpInsert, Arg: 9},
			},
			Want: []uint64{t, t, t, t},
		},
		{
			Name: "read-tail",
			Ops: []repro.Op{
				{Kind: repro.OpInsert, Arg: 5},
				{Kind: repro.OpDelete, Arg: 7},
				{Kind: repro.OpFind, Arg: 3},
				{Kind: repro.OpFind, Arg: 7},
			},
			Want: []uint64{t, f, t, f},
		},
	}
}

// batchSetPrefill seeds the set-structure batch cells.
var batchSetPrefill = []uint64{3, 9}

// batchSetFinal is the sequential model's final key set for every case in
// batchSetCases (both cases end with {3, 5, 9}).
var batchSetFinal = []uint64{3, 5, 9}

// BatchScenarios returns the batch conformance matrix: all five structures
// × both public engine kinds × reclamation on/off. The stack cells disable
// elimination (batched operations bypass it by design; see
// stack.ApplyBatchOp).
func BatchScenarios() []BatchScenario {
	var out []BatchScenario
	for _, eng := range []struct {
		name string
		kind repro.EngineKind
	}{{"isb", repro.EngineIsb}, {"isb-opt", repro.EngineIsbOpt}} {
		for _, rec := range []bool{false, true} {
			eng, rec := eng, rec
			out = append(out,
				BatchScenario{
					Structure: "list", Engine: eng.name, Reclaim: rec,
					Build: func() BatchSweepInstance {
						rt := batchRT(eng.kind, rec)
						l := rt.NewList()
						p := rt.Proc(0)
						for _, k := range batchSetPrefill {
							l.Insert(p, k)
						}
						return BatchSweepInstance{
							RT: rt, S: l,
							Verify: batchSetVerify(l.Keys, l.CheckInvariants, batchSetFinal),
						}
					},
					Cases: batchSetCases(),
				},
				BatchScenario{
					Structure: "bst", Engine: eng.name, Reclaim: rec,
					Build: func() BatchSweepInstance {
						rt := batchRT(eng.kind, rec)
						b := rt.NewBST()
						p := rt.Proc(0)
						for _, k := range batchSetPrefill {
							b.Insert(p, k)
						}
						return BatchSweepInstance{
							RT: rt, S: b,
							Verify: batchSetVerify(b.Keys, b.CheckInvariants, batchSetFinal),
						}
					},
					Cases: batchSetCases(),
				},
				BatchScenario{
					Structure: "hashmap", Engine: eng.name, Reclaim: rec,
					Build: func() BatchSweepInstance {
						rt := batchRT(eng.kind, rec)
						m := rt.NewHashMap(4)
						p := rt.Proc(0)
						for _, k := range batchSetPrefill {
							m.Insert(p, k)
						}
						return BatchSweepInstance{
							RT: rt, S: m,
							Verify: batchSetVerify(m.Keys, m.CheckInvariants, batchSetFinal),
						}
					},
					Cases: batchSetCases(),
				},
				BatchScenario{
					Structure: "queue", Engine: eng.name, Reclaim: rec,
					Build: func() BatchSweepInstance {
						rt := batchRT(eng.kind, rec)
						q := rt.NewQueue()
						q.Enqueue(rt.Proc(0), 7)
						return BatchSweepInstance{
							RT: rt, S: q,
							Verify: batchSeqVerify(q.Values, q.CheckInvariants, nil),
						}
					},
					Cases: []BatchSweepCase{{
						Name: "enq-peek-deq",
						Ops: []repro.Op{
							{Kind: repro.OpEnq, Arg: 41},
							{Kind: repro.OpPeek},
							{Kind: repro.OpDeq},
							{Kind: repro.OpDeq},
						},
						Want: []uint64{
							isb.RespTrue, isb.EncodeValue(7),
							isb.EncodeValue(7), isb.EncodeValue(41),
						},
					}},
				},
				BatchScenario{
					Structure: "stack", Engine: eng.name, Reclaim: rec,
					Build: func() BatchSweepInstance {
						rt := batchRT(eng.kind, rec)
						s := rt.NewStack(0)
						s.Push(rt.Proc(0), 7)
						return BatchSweepInstance{
							RT: rt, S: s,
							Verify: batchSeqVerify(s.Values, s.CheckInvariants, nil),
						}
					},
					Cases: []BatchSweepCase{{
						Name: "push-top-pop",
						Ops: []repro.Op{
							{Kind: repro.OpPush, Arg: 41},
							{Kind: repro.OpTop},
							{Kind: repro.OpPop},
							{Kind: repro.OpPop},
						},
						Want: []uint64{
							isb.RespTrue, isb.EncodeValue(41),
							isb.EncodeValue(41), isb.EncodeValue(7),
						},
					}},
				},
			)
		}
	}
	return out
}

// SweepAllBatchPoints is the window twin of SweepAllPoints: RunBatchCase per
// case, as subtests.
func SweepAllBatchPoints(t *testing.T, build func() BatchSweepInstance, cases []BatchSweepCase) {
	t.Helper()
	sweepCases(t, cases, func(c BatchSweepCase) string { return c.Name },
		func(c BatchSweepCase) (int, error) { return RunBatchCase(build, c) })
}
