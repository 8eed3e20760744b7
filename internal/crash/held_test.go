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

// build returns a fresh instance of the row on a two-Proc Runtime. Run
// admits the window with Proc 1's insert hooked in at the first access of
// Proc 0's after the store of leg 1's result, and fails unless leg 1's nodes
// were tagged then and that insert returned leaving none: it must have
// helped. A crash at an
// access of Proc 1's is caught inside the hook, and Proc 0's access after it
// sees the crash, so Proc 0 is the process the sweep resumes. Resolve
// recovers both processes through RecoverAll, re-submits what their reports
// do not resolve — Proc 1's insert too if the crash came before it — and
// holds the history, the window's legs concurrent with Proc 1's insert, to
// the set model. Every crash point has each dirty line persisted in turn
// (Instance.Persist).
func (r heldUpdateRow) build() Instance {
	rt := repro.New(repro.Config{Procs: 2, CrashSim: true, HeapWords: sweepHeapWords, Seed: 42, Engine: r.eng.kind})
	h := rt.Heap()
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
	for _, op := range append(window, ins5) {
		state, _ = m.Step(state, op.Kind, op.Arg)
	}
	final := snapshots(subject{structs: []structure{{kind: r.kind}}}, []any{state})
	admit := func(ops []repro.Op) []uint64 {
		var out []uint64
		for _, resp := range rt.ApplyWindow(p0, s, ops) {
			out = append(out, resp.Raw())
		}
		return out
	}

	// fired: Proc 1's insert started; done: it returned, answering resp1,
	// and helped reports whether it found a live node tagged and left none.
	var fired, done, helped bool
	var resp1 uint64
	return Instance{
		Heap: h,
		Run: func() ([]uint64, error) {
			st := p0.Stats()
			cas0, mark := st.CASes, uint64(0)
			h.SetAccessHook(func(p *pmem.Proc) {
				if p.ID() != 0 {
					return
				}
				st := p0.Stats()
				switch {
				case st.CASes-cas0 < 3: // leg 1's two tags and its update
				case mark == 0:
					mark = st.Stores + 1 // the next store is leg 1's result
				case st.Stores >= mark:
					h.SetAccessHook(nil)
					fired = true
					inv := s.(interface{ CheckInvariants() string }).CheckInvariants
					tagged := inv() != ""
					if pmem.RunOp(func() { resp1 = s.Apply(p1, ins5).Raw() }) {
						done = true
						helped = tagged && inv() == ""
					}
				}
			})
			defer h.SetAccessHook(nil)
			got := admit(window)
			switch {
			case !fired:
				return nil, errors.New("Proc 1's insert never ran")
			case !helped:
				return nil, errors.New("Proc 1's insert did not help leg 1: no live node was tagged when it began, or one still was when it returned")
			}
			return got, nil
		},
		Resolve: func() ([]uint64, error) {
			got := make([]uint64, len(window))
			from, resolved1 := 0, false
			for _, rep := range rt.RecoverAll() {
				switch rep.Proc {
				case 0:
					from = repro.MatchReport(rep, window, func(i int, _ repro.Op, resp repro.Resp) { got[i] = resp.Raw() })
				case 1:
					if fired && !done {
						resolved1 = repro.MatchReport(rep, []repro.Op{ins5}, func(_ int, _ repro.Op, resp repro.Resp) { resp1 = resp.Raw() }) == 1
					}
				}
			}
			if from < len(window) {
				copy(got[from:], admit(window[from:]))
			}
			t := uint64(2 * len(hist))
			ops := hist[:len(hist):len(hist)]
			for i, op := range window {
				ops = append(ops, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: got[i], Start: t, End: t + 3, Seq: uint64(i)})
			}
			op1 := linearize.Operation{Proc: 1, Kind: ins5.Kind, Arg: ins5.Arg, Start: t + 1, End: t + 2}
			switch {
			case !fired:
				resp1 = s.Apply(p1, ins5).Raw()
				op1.Start, op1.End = t+4, t+5
			case !done:
				op1.End = t + 3
				if !resolved1 {
					resp1 = s.Apply(p1, ins5).Raw()
				}
			}
			op1.Resp = resp1
			if ops = append(ops, op1); !linearize.Check(m, ops) {
				return nil, fmt.Errorf("history %+v is not linearizable", ops[len(hist):])
			}
			return got, nil
		},
		Verify:  func() string { return sameState([]any{s}, final) },
		Persist: true,
	}
}

// TestTwoProcCrashHeldUpdate sweeps a held update that another process
// helps. Under Isb-Opt leg 1's update phase, its tags still set, waits for
// leg 2's install barrier; Proc 1's insert meets a tag on the way and helps
// the record — its update phase re-run, written back with Proc 1's barrier,
// and its nodes untagged with Proc 1's cookies — while Proc 0 still holds
// it. Leg 2's install then releases an update whose untags all lose. The
// whole run, Proc 1's insert included, is crashed at every access with every
// dirty line persisted in turn, list and BST × both engines: the history must
// linearize and the set must end as the model says, with no live node tagged.
func TestTwoProcCrashHeldUpdate(t *testing.T) {
	for _, kind := range []repro.StructKind{repro.KindList, repro.KindBST} {
		for _, eng := range engineVariants {
			r := heldUpdateRow{kind, eng}
			t.Run(fmt.Sprintf("%v/%s", kind, eng.name), func(t *testing.T) {
				SweepTest(t, r.build, nil)
			})
		}
	}
}
