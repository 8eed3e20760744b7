package crash

import (
	"slices"
	"testing"

	"repro"
	"repro/internal/bst"
	"repro/internal/stack"
)

// TestOneLegSurface pins the operation surface every structure package
// embeds (isb.Ops), for every kind each structure accepts on both engines: a
// completed ApplyOp answers what the sequential model says, and recovering it
// as leg 0 — RecoverLeg(p, 0, kind, arg), with no crash in between — returns
// the same response and leaves the structure as it was. The one read rule
// shows on the read-only kinds: the surface classes them as reads, and their
// recovery is a re-execution of the zero-persist read, which issues no pwb,
// pbarrier or psync.
func TestOneLegSurface(t *testing.T) {
	type kind struct {
		name string
		op   repro.Op
		read bool
	}
	sets := []kind{
		{"insert", repro.Op{Kind: repro.OpInsert, Arg: 8}, false},
		{"delete", repro.Op{Kind: repro.OpDelete, Arg: 14}, false},
		{"find", repro.Op{Kind: repro.OpFind, Arg: 27}, true},
	}
	queue := []kind{
		{"enqueue", repro.Op{Kind: repro.OpEnq, Arg: 7}, false},
		{"dequeue", repro.Op{Kind: repro.OpDeq}, false},
		{"peek", repro.Op{Kind: repro.OpPeek}, true},
	}
	stk := []kind{
		{"push", repro.Op{Kind: repro.OpPush, Arg: 7}, false},
		{"pop", repro.Op{Kind: repro.OpPop}, false},
		{"top", repro.Op{Kind: repro.OpTop}, true},
	}
	for _, tc := range []struct {
		name  string
		s     structure
		kinds []kind
	}{
		{"list", structure{repro.KindList, 0, setPrefill}, sets},
		{"bst", structure{repro.KindBST, 0, setPrefill}, append(slices.Clone(sets),
			kind{"find-fast", repro.Op{Kind: bst.OpFindFast, Arg: 9}, true})},
		{"hashmap", structure{repro.KindHashMap, 4, setPrefill}, sets},
		{"queue", structure{repro.KindQueue, 0, ops(repro.OpEnq, 5, 6)}, queue},
		{"stack", structure{repro.KindStack, 0, ops(repro.OpPush, 5, 6)}, stk},
		{"stack-elim", structure{repro.KindStack, stack.DefaultElimSpins, ops(repro.OpPush, 5, 6)}, stk},
	} {
		for _, eng := range engineVariants {
			for _, k := range tc.kinds {
				t.Run(tc.name+"/"+eng.name+"/"+k.name, func(t *testing.T) {
					h := cell{eng: eng}.heap()
					a := tc.s.raw(h, eng.mk(h))
					p := h.Proc(0)
					if got := a.(interface{ ReadOnly(uint64) bool }).ReadOnly(k.op.Kind); got != k.read {
						t.Fatalf("ReadOnly(%d) = %v, want %v", k.op.Kind, got, k.read)
					}
					spec := k.op.Kind
					if spec == bst.OpFindFast {
						spec = repro.OpFind // the set model's name for it
					}
					model := expect(subject{structs: []structure{tc.s}}, single(k.name, spec, k.op.Arg))
					resp := a.ApplyOp(p, k.op.Kind, k.op.Arg)
					if resp != model.want[0] {
						t.Fatalf("ApplyOp = %d, want %d", resp, model.want[0])
					}
					before, _ := snapshot(a)
					stats := h.TotalStats()
					if got := a.RecoverLeg(p, 0, k.op.Kind, k.op.Arg); got != resp {
						t.Fatalf("RecoverLeg = %d after ApplyOp answered %d", got, resp)
					}
					d := h.TotalStats().Sub(stats)
					if msg := sameState([]any{a}, [][]uint64{before}); msg != "" {
						t.Fatalf("RecoverLeg changed the structure: %s", msg)
					}
					if k.read && d.Flushes+d.Barriers+d.Syncs != 0 {
						t.Fatalf("read recovery issued %d pwbs, %d pbarriers, %d psyncs; want none", d.Flushes, d.Barriers, d.Syncs)
					}
				})
			}
		}
	}
}
