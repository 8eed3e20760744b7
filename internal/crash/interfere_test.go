package crash

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/linearize"
	"repro/internal/pmem"
)

// interference is one two-Proc row: Proc 0's operation on a prefilled set,
// crashed at every access with every dirty line persisted in turn
// (Instance.Persist), and, between the reset and Proc 0's recovery, Proc 1's
// interloper — one operation that writes Proc 0's AffectSet, or two, the
// second of which meets what the first left (Instance.Interfere).
type interference struct {
	kind       repro.StructKind
	eng        engineVariant
	op         repro.Op
	interloper []repro.Op
}

// interferenceRows are list and BST × both engines × the arena: an insert and
// a delete on setPrefill (its last insert succeeds, so every row also crashes
// inside the window in which that insert's cleanup may still be volatile),
// each against the interlopers that change its AffectSet — the keys around
// the insert's position, the deleted key's neighbours and, in the BST, the
// keys under its sibling. The two-operation interloper removes the insert's
// predecessor and then inserts next to it: its second operation meets the
// insert's durable tag on the successor and helps the record.
func interferenceRows() []interference {
	ins8, del14 := repro.Op{Kind: repro.OpInsert, Arg: 8}, repro.Op{Kind: repro.OpDelete, Arg: 14}
	del := func(k uint64) repro.Op { return repro.Op{Kind: repro.OpDelete, Arg: k} }
	ins := func(k uint64) repro.Op { return repro.Op{Kind: repro.OpInsert, Arg: k} }
	ins8Menu := [][]repro.Op{{del(3)}, {del(9)}, {ins(5)}, {del(3), ins(5)}}
	menus := map[repro.StructKind]map[repro.Op][][]repro.Op{
		// list: insert 8 tags (3, 9), delete 14 tags (9, 14)
		repro.KindList: {ins8: ins8Menu, del14: {{del(9)}, {del(27)}, {ins(11)}}},
		// BST: insert 8 tags (internal 9, leaf 3); delete 14 tags (internal
		// 14, internal 27, leaf 14, internal 31), and 27 and 31 hang under
		// its sibling
		repro.KindBST: {ins8: ins8Menu, del14: {{del(9)}, {del(27)}, {del(31)}}},
	}
	var out []interference
	for _, kind := range []repro.StructKind{repro.KindList, repro.KindBST} {
		for _, eng := range engineVariants {
			for _, op := range []repro.Op{ins8, del14} {
				for _, il := range menus[kind][op] {
					out = append(out, interference{kind, eng, op, il})
				}
			}
		}
	}
	return out
}

// opName spells an operation, or a sequence joined by "+", in subtest paths.
func opName(ops ...repro.Op) string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = fmt.Sprintf("%s-%d", map[uint64]string{repro.OpInsert: "insert", repro.OpDelete: "delete"}[op.Kind], op.Arg)
	}
	return strings.Join(names, "+")
}

// build returns a fresh instance of the row on a two-Proc heap.
func (r interference) build() Instance {
	h := pmem.NewHeap(pmem.Config{Words: sweepHeapWords, Procs: 2, Tracked: true, Seed: 42})
	st := structure{kind: r.kind, prefill: setPrefill}
	a := st.raw(h, r.eng.mk(h))
	m := linearize.SetModel()
	state := m.Init()
	var hist []linearize.Operation
	for _, op := range setPrefill {
		var resp uint64
		state, resp = m.Step(state, op.Kind, op.Arg)
		hist = append(hist, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: resp, Start: uint64(2 * len(hist)), End: uint64(2*len(hist) + 1)})
	}
	// The interloper's keys differ from Proc 0's, so Proc 0's response and
	// the final state do not depend on where its operation takes effect. The
	// uninterrupted run has no interloper.
	state, want := m.Step(state, r.op.Kind, r.op.Arg)
	final := snapshots(subject{structs: []structure{st}}, []any{state})
	for _, op := range r.interloper {
		state, _ = m.Step(state, op.Kind, op.Arg)
	}
	in := Direct(h, a, Op(r.op), want, func() string { return sameState([]any{a}, final) })
	in.Persist = true
	in.Interfere = func() func([]uint64) error {
		final = snapshots(subject{structs: []structure{st}}, []any{state})
		t := uint64(2 * len(hist))
		ops := append(hist[:len(hist):len(hist)], linearize.Operation{Kind: r.op.Kind, Arg: r.op.Arg, Start: t})
		p1 := h.Proc(1)
		for _, op := range r.interloper {
			a.Begin(p1)
			t++
			ops = append(ops, linearize.Operation{Proc: 1, Kind: op.Kind, Arg: op.Arg, Resp: a.ApplyOp(p1, op.Kind, op.Arg), Start: t, End: t + 1})
			t++
		}
		return func(got []uint64) error {
			ops[len(hist)].Resp, ops[len(hist)].End = got[0], t+1
			if !linearize.Check(m, ops) {
				return fmt.Errorf("interloper %s: history %+v is not linearizable", opName(r.interloper...), ops[len(hist):])
			}
			return nil
		}
	}
	return in
}

// TestTwoProcCrashInterference is the deterministic two-Proc crash sweep.
// Isb-Opt reports every tag CAS of a phase to one barrier, so before it a
// later AffectSet element's line can persist while an earlier one's does not.
// If another process then changes the earlier element, Proc 0's re-run
// tagging fails there, and unless the backtrack also clears the elements
// after the failure, the later one stays tagged by a record that can never
// complete; and a helper that finds the later tag must not skip the earlier
// element. Each row persists every dirty line in turn at every crash, runs
// its interloper, then recovers Proc 0: the history must linearize and the
// set must equal the model's with no live node tagged. A failure names (off,
// line, interloper) and prints the line that re-runs its row.
func TestTwoProcCrashInterference(t *testing.T) {
	for _, r := range interferenceRows() {
		t.Run(fmt.Sprintf("%v/%s/%s/%s", r.kind, r.eng.name, opName(r.op), opName(r.interloper...)), func(t *testing.T) {
			SweepTest(t, r.build, nil)
		})
	}
}
