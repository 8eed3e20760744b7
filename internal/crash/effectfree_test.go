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
	txn  bool // prev is a transaction, not a window
}

// effectFreeRows are list and BST × both engines × five shapes of the
// completed admission: the failed insert alone, the failed insert leading a
// window with a find after it, the failed insert as the last leg of a window
// whose first leg inserted 20, or inserted 8, which the swept window then
// finds present too, and the failed insert as leg 2 of a transaction whose
// leg 1 inserted.
func effectFreeRows() []effectFreeRow {
	ins := func(k uint64) repro.Op { return repro.Op{Kind: repro.OpInsert, Arg: k} }
	shapes := []struct {
		name string
		prev []repro.Op
		txn  bool
	}{
		{"failed-insert", []repro.Op{ins(9)}, false},
		{"failed-insert+find", []repro.Op{ins(9), {Kind: repro.OpFind, Arg: 27}}, false},
		{"insert+failed-insert", []repro.Op{ins(20), ins(9)}, false},
		{"insert-8+failed-insert", []repro.Op{ins(8), ins(9)}, false},
		{"txn-insert+failed-insert", []repro.Op{ins(20), ins(9)}, true},
	}
	var out []effectFreeRow
	for _, kind := range []repro.StructKind{repro.KindList, repro.KindBST} {
		for _, eng := range engineVariants {
			for _, sh := range shapes {
				out = append(out, effectFreeRow{kind, eng, sh.name, sh.prev, sh.txn})
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
	if r.txn {
		a, b := rt.ApplyTxn(p0, repro.TxnLeg{S: s, Op: r.prev[0]}, repro.TxnLeg{S: s, Op: r.prev[1]})
		record(0, r.prev, []uint64{a.Raw(), b.Raw()})
	} else {
		record(0, r.prev, admit(p0, r.prev))
	}
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
// Isb-Opt no failed insert of a window installs anything, wherever it sits:
// one ahead of the window's first install could only be named by a record
// stored before that install, and one after it by a slot stamped without a
// later install, so the durable cursor rests on the insert of 20 or 8, whose
// record RD_q names. The transaction's failed leg 2 keeps its ROpt install,
// which RD_q names with its response, since without it the commit slot would
// stay unstamped and roll-forward would re-drive the leg. The swept window
// leads with an effect-free leg too: its slot must be durable before the next
// leg's tags, or a recovery that re-invokes it meets an evicted tag,
// completes the insert of 8 through it, and the report still sends that
// insert back for re-submission.
func TestTwoProcCrashEffectFree(t *testing.T) {
	for _, r := range effectFreeRows() {
		t.Run(fmt.Sprintf("%v/%s/%s", r.kind, r.eng.name, r.name), func(t *testing.T) {
			SweepTest(t, r.build, nil)
		})
	}
}

// TestTwoProcCrashLostTags is the same invariant for an effect-free leg
// that installed first: Proc 0 inserts 8, absent, alone or as the last leg
// of a window after an insert of 20, and Proc 1's insert of 8 preempts it at
// every access of Proc 0's (Instance.Preempt). Where it lands between Proc
// 0's install and its tags, the tags fail and the retry finds 8 present, so
// the leg returns false with RD_q naming the attempt whose tags failed,
// unless the retry installs too. Proc 1 then deletes 8, and the three
// operations must linearize. At every preemption point the system crashes
// after Run (Instance.CrashAfter), persisting none of the lines the delete
// left dirty, each alone and every complement (Instance.Persist): RecoverAll
// must not insert 8 again.
func TestTwoProcCrashLostTags(t *testing.T) {
	ins := func(k uint64) repro.Op { return repro.Op{Kind: repro.OpInsert, Arg: k} }
	shapes := []struct {
		name string
		ops  []repro.Op
		want []uint64
	}{
		{"insert", []repro.Op{ins(8)}, []uint64{3, 9, 14, 27, 31}},
		{"insert+insert", []repro.Op{ins(20), ins(8)}, []uint64{3, 9, 14, 20, 27, 31}},
	}
	for _, kind := range []repro.StructKind{repro.KindList, repro.KindBST} {
		for _, eng := range engineVariants {
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("%v/%s/%s", kind, eng.name, sh.name), func(t *testing.T) {
					t.Parallel()
					SweepTest(t, func() Instance { return lostTags(kind, eng, sh.ops, sh.want) }, nil)
				})
			}
		}
	}
}

// lostTags builds one instance of TestTwoProcCrashLostTags: Proc 0's
// admission ops on setPrefill and then Proc 1's delete of 8, with want the
// set it leaves. Resolve recovers every process and re-reports Run's
// responses, all of which completed before the crash.
func lostTags(kind repro.StructKind, eng engineVariant, ops []repro.Op, want []uint64) Instance {
	rt := repro.New(repro.Config{Procs: 2, CrashSim: true, HeapWords: sweepHeapWords, Seed: 42, Engine: eng.kind})
	s := structure{kind: kind}.register(rt)
	p0, p1 := rt.Proc(0), rt.Proc(1)
	m := linearize.SetModel()
	var hist []linearize.Operation
	for _, op := range setPrefill {
		resp := s.Apply(p0, op).Raw()
		hist = append(hist, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: resp, Start: uint64(2 * len(hist)), End: uint64(2*len(hist) + 1)})
	}
	ins8, del8 := repro.Op{Kind: repro.OpInsert, Arg: 8}, repro.Op{Kind: repro.OpDelete, Arg: 8}
	var got []uint64
	var resp1 uint64
	return Instance{
		Heap: rt.Heap(),
		Run: func() ([]uint64, error) {
			got = nil
			if len(ops) == 1 {
				got = []uint64{s.Apply(p0, ops[0]).Raw()}
			} else {
				for _, resp := range rt.ApplyWindow(p0, s, ops) {
					got = append(got, resp.Raw())
				}
			}
			got = append(got, s.Apply(p1, del8).Raw())
			return got, nil
		},
		Resolve: func() ([]uint64, error) {
			rt.RecoverAll()
			return got, nil
		},
		Verify:     func() string { return sameState([]any{s}, [][]uint64{want}) },
		Persist:    true,
		CrashAfter: true,
		Preempt: &Preempt{
			Op: func() { resp1 = s.Apply(p1, ins8).Raw() },
			Check: func(got []uint64) error {
				t := uint64(2 * len(hist))
				hist := hist[:len(hist):len(hist)]
				for i, op := range ops {
					hist = append(hist, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: got[i], Start: t, End: t + 3, Seq: uint64(i)})
				}
				hist = append(hist,
					linearize.Operation{Proc: 1, Kind: ins8.Kind, Arg: ins8.Arg, Resp: resp1, Start: t + 1, End: t + 2},
					linearize.Operation{Proc: 1, Kind: del8.Kind, Arg: del8.Arg, Resp: got[len(ops)], Start: t + 4, End: t + 5})
				if !linearize.Check(m, hist) {
					return fmt.Errorf("history %+v is not linearizable", hist[len(setPrefill):])
				}
				return nil
			},
		},
	}
}
