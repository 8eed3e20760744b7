package crash

import (
	"errors"
	"fmt"
	"testing"

	"repro"
	"repro/internal/linearize"
	"repro/internal/pmem"
)

// heldUpdateRow is one two-Proc row: Proc 0's window inserts 8 and then 20 on
// setPrefill, and Proc 1 inserts 5, next to 8, between leg 1's update phase
// and leg 2's install — under Isb-Opt while leg 1's update waits for that
// install's barrier, its tags still set. Proc 1's gather meets the tag on 3,
// leg 1's predecessor, and helps leg 1's record to completion.
type heldUpdateRow struct {
	kind repro.StructKind
	eng  engineVariant
}

// build returns a fresh instance of the row on a two-Proc Runtime: Run admits
// the window, and Proc 1's insert preempts it (Instance.Preempt) at every
// access of Proc 0's. at, the preemption point Cross selects, is Proc 0's
// first access after the store of leg 1's result, the first store after its
// third CAS (leg 1's two tags and its update). There the insert must help:
// leg 1's nodes are tagged when it begins and none is when it returns. That
// point is also crossed with a crash at every access of the preempted run,
// Proc 1's included, with each dirty line persisted in turn and each
// complement (Instance.Persist). Resolve recovers both processes through
// RecoverAll and re-submits what their reports do not resolve, Proc 1's insert
// too if the crash came before it. Every history, the window's legs
// concurrent with Proc 1's insert, must linearize under the set model.
func (r heldUpdateRow) build(at *pmem.Stats) Instance {
	rt := repro.New(repro.Config{Procs: 2, CrashSim: true, HeapWords: sweepHeapWords, Seed: 42, Engine: r.eng.kind})
	s := structure{kind: r.kind}.register(rt)
	p0, p1 := rt.Proc(0), rt.Proc(1)
	m := linearize.SetModel()
	state := m.Init()
	var hist []linearize.Operation
	for _, op := range setPrefill {
		s.Apply(p0, op)
		var resp uint64
		state, resp = m.Step(state, op.Kind, op.Arg)
		hist = append(hist, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: resp, Start: uint64(2 * len(hist)), End: uint64(2*len(hist) + 1)})
	}
	window := []repro.Op{{Kind: repro.OpInsert, Arg: 8}, {Kind: repro.OpInsert, Arg: 20}}
	ins5 := repro.Op{Kind: repro.OpInsert, Arg: 5}
	for _, op := range window {
		state, _ = m.Step(state, op.Kind, op.Arg)
	}
	alone := snapshots(subject{structs: []structure{{kind: r.kind}}}, []any{state})
	state, _ = m.Step(state, ins5.Kind, ins5.Arg)
	final := snapshots(subject{structs: []structure{{kind: r.kind}}}, []any{state})
	admit := func(ops []repro.Op) []uint64 {
		var out []uint64
		for _, resp := range rt.ApplyWindow(p0, s, ops) {
			out = append(out, resp.Raw())
		}
		return out
	}
	inv := s.(interface{ CheckInvariants() string }).CheckInvariants

	// fired: Proc 1's insert started; done: it returned, answering resp1;
	// after: Resolve ran it, after the window's recovery; unhelped: at the
	// point at, it did not help leg 1.
	var fired, done, after, unhelped bool
	var resp1 uint64
	var base pmem.Stats // Proc 0's when Run began
	var mark uint64     // with Cross: Proc 0's stores at its third CAS, plus one
	return Instance{
		Heap: rt.Heap(),
		Run: func() ([]uint64, error) {
			base = p0.Stats()
			return admit(window), nil
		},
		Resolve: func() ([]uint64, error) {
			got := make([]uint64, len(window))
			from := 0
			for _, rep := range rt.RecoverAll() {
				switch {
				case rep.Proc == 0:
					from = repro.MatchReport(rep, window, func(i int, _ repro.Op, resp repro.Resp) { got[i] = resp.Raw() })
				case fired && !done:
					done = repro.MatchReport(rep, []repro.Op{ins5}, func(_ int, _ repro.Op, resp repro.Resp) { resp1 = resp.Raw() }) == 1
				}
			}
			if from < len(window) {
				copy(got[from:], admit(window[from:]))
			}
			if !done {
				after = !fired
				resp1, fired, done = s.Apply(p1, ins5).Raw(), true, true
			}
			return got, nil
		},
		Verify: func() string {
			if !fired {
				return sameState([]any{s}, alone)
			}
			return sameState([]any{s}, final)
		},
		Persist: true,
		Preempt: &Preempt{
			Op: func() {
				fired = true
				tagged := inv() != ""
				resp1 = s.Apply(p1, ins5).Raw()
				done = true
				unhelped = p0.Stats().Sub(base) == *at && (!tagged || inv() != "")
			},
			Check: func(got []uint64) error {
				if unhelped {
					return errors.New("Proc 1's insert did not help leg 1: no live node was tagged when it began, or one still was when it returned")
				}
				t := uint64(2 * len(hist))
				ops := hist[:len(hist):len(hist)]
				for i, op := range window {
					ops = append(ops, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: got[i], Start: t, End: t + 3, Seq: uint64(i)})
				}
				op1 := linearize.Operation{Proc: 1, Kind: ins5.Kind, Arg: ins5.Arg, Resp: resp1, Start: t + 1, End: t + 2}
				if after {
					op1.Start, op1.End = t+4, t+5
				}
				if ops = append(ops, op1); !linearize.Check(m, ops) {
					return fmt.Errorf("history %+v is not linearizable", ops[len(hist):])
				}
				return nil
			},
			Cross: func(st pmem.Stats) bool {
				switch {
				case st.CASes < 3 || *at != (pmem.Stats{}):
				case mark == 0:
					mark = st.Stores + 1 // the next store is leg 1's result
				case st.Stores >= mark:
					*at = st
					return true
				}
				return false
			},
		},
	}
}

// TestTwoProcCrashHeldUpdate sweeps a held update that another process
// helps. Under Isb-Opt leg 1's update phase, its tags still set, waits for
// leg 2's install barrier; Proc 1's insert meets a tag on the way and helps
// the record — its update phase re-run, written back with Proc 1's barrier,
// and its nodes untagged with Proc 1's cookies — while Proc 0 still holds
// it. Leg 2's install then releases an update whose untags all lose. Proc
// 1's insert preempts the window at every access of Proc 0's, and at that
// one the whole run, the insert included, is crashed at every access with
// every dirty line persisted in turn, list and BST × both engines: the
// history must linearize and the set must end as the model says, with no
// live node tagged.
func TestTwoProcCrashHeldUpdate(t *testing.T) {
	for _, kind := range []repro.StructKind{repro.KindList, repro.KindBST} {
		for _, eng := range engineVariants {
			r := heldUpdateRow{kind, eng}
			t.Run(fmt.Sprintf("%v/%s", kind, eng.name), func(t *testing.T) {
				t.Parallel()
				var at pmem.Stats // the preemption point Cross selects
				SweepTest(t, func() Instance { return r.build(&at) }, nil)
			})
		}
	}
}
