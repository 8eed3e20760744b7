package crash

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/linearize"
)

// effectFreeRow is one row of the effect-free invariant: on a prefilled set,
// Proc 0 completes an admission holding an effect-free insert of key 9 (9 is
// present), Proc 1 then deletes 9, and Proc 0's next admission is crashed at
// every access, with every dirty line persisted in turn (Instance.Persist).
type effectFreeRow struct {
	kind repro.StructKind
	eng  engineVariant
	name string
	prev []repro.Op
}

// effectFreeRows are list and BST × both engines × three shapes of the
// completed admission: the failed insert alone, the failed insert leading a
// window with a find after it, and the failed insert as the last leg of a
// window whose first leg inserted.
func effectFreeRows() []effectFreeRow {
	ins := func(k uint64) repro.Op { return repro.Op{Kind: repro.OpInsert, Arg: k} }
	shapes := []struct {
		name string
		prev []repro.Op
	}{
		{"failed-insert", []repro.Op{ins(9)}},
		{"failed-insert+find", []repro.Op{ins(9), {Kind: repro.OpFind, Arg: 27}}},
		{"insert+failed-insert", []repro.Op{ins(20), ins(9)}},
	}
	var out []effectFreeRow
	for _, kind := range []repro.StructKind{repro.KindList, repro.KindBST} {
		for _, eng := range engineVariants {
			for _, sh := range shapes {
				out = append(out, effectFreeRow{kind, eng, sh.name, sh.prev})
			}
		}
	}
	return out
}

// build returns a fresh instance of the row on a two-Proc Runtime. What is
// swept is Proc 0's next admission, a window that inserts 14 (present: an
// effect-free leg whose response waits with the pending record), inserts 8
// next to it and then finds 9; a report naming it resolves it and the rest is
// re-submitted. The history —
// the prefill, the completed admission, Proc 1's delete and the swept window
// with its recovered responses — must linearize, and the set must end as the
// model says: without 9.
func (r effectFreeRow) build() Instance {
	rt := repro.New(repro.Config{Procs: 2, CrashSim: true, HeapWords: sweepHeapWords, Seed: 42, Engine: r.eng.kind})
	s := structure{kind: r.kind}.register(rt)
	p0, p1 := rt.Proc(0), rt.Proc(1)
	m := linearize.SetModel()
	state := m.Init()
	var hist []linearize.Operation
	record := func(proc int, ops []repro.Op, resps []uint64) {
		t := uint64(2 * len(hist))
		for i, op := range ops {
			state, _ = m.Step(state, op.Kind, op.Arg)
			hist = append(hist, linearize.Operation{Proc: proc, Kind: op.Kind, Arg: op.Arg, Resp: resps[i], Start: t, End: t + 1, Seq: uint64(i)})
		}
	}
	admit := func(p *repro.Proc, ops []repro.Op) []uint64 {
		if len(ops) == 1 {
			return []uint64{s.Apply(p, ops[0]).Raw()}
		}
		var out []uint64
		for _, resp := range rt.ApplyWindow(p, s, ops) {
			out = append(out, resp.Raw())
		}
		return out
	}
	for _, op := range setPrefill {
		record(0, []repro.Op{op}, admit(p0, []repro.Op{op}))
	}
	record(0, r.prev, admit(p0, r.prev))
	del := []repro.Op{{Kind: repro.OpDelete, Arg: 9}}
	record(1, del, admit(p1, del))
	next := []repro.Op{{Kind: repro.OpInsert, Arg: 14}, {Kind: repro.OpInsert, Arg: 8}, {Kind: repro.OpFind, Arg: 9}}
	for _, op := range next {
		state, _ = m.Step(state, op.Kind, op.Arg)
	}
	final := snapshots(subject{structs: []structure{{kind: r.kind}}}, []any{state})
	return Instance{
		Heap: rt.Heap(),
		Run:  func() ([]uint64, error) { return admit(p0, next), nil },
		Resolve: func() ([]uint64, error) {
			got, from := make([]uint64, len(next)), 0
			for _, rep := range rt.RecoverAll() {
				if rep.Proc == 0 {
					from = repro.MatchReport(rep, next, func(i int, _ repro.Op, resp repro.Resp) { got[i] = resp.Raw() })
				}
			}
			if from < len(next) {
				copy(got[from:], admit(p0, next[from:]))
			}
			ops, t := hist[:len(hist):len(hist)], uint64(2*len(hist))
			for i, op := range next {
				ops = append(ops, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: got[i], Start: t, End: t + 1, Seq: uint64(i)})
			}
			if !linearize.Check(m, ops) {
				return nil, fmt.Errorf("history %+v is not linearizable", ops[len(setPrefill):])
			}
			return got, nil
		},
		Verify:  func() string { return sameState([]any{s}, final) },
		Persist: true,
	}
}

// TestTwoProcCrashEffectFree is the invariant behind effect-free legs that
// persist nothing: once an admission has returned, no durable record may name
// one of its effect-free legs as in flight. Were one left, a crash in Proc
// 0's next admission would let RecoverAll re-invoke the failed insert of 9
// after Proc 1 deleted it, and 9 would reappear with no caller inserting it:
// the set would hold it and the swept window's find would see it. Under
// Isb-Opt the failed insert alone and the one leading the window install
// nothing, so only a record stored ahead of the admission's first install
// could name them; the failed insert that ends a window whose record is
// stored keeps its ROpt install, which RD_q names with its response. The
// swept window leads with an effect-free leg too: its slot must be durable
// before the next leg's tags, or a recovery that re-invokes it meets an
// evicted tag, completes the insert of 8 through it, and the report still
// sends that insert back for re-submission.
func TestTwoProcCrashEffectFree(t *testing.T) {
	for _, r := range effectFreeRows() {
		t.Run(fmt.Sprintf("%v/%s/%s", r.kind, r.eng.name, r.name), func(t *testing.T) {
			SweepTest(t, r.build, nil)
		})
	}
}
