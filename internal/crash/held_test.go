package crash

import (
	"fmt"
	"slices"
	"testing"

	"repro"
	"repro/internal/isb"
	"repro/internal/linearize"
	"repro/internal/pmem"
)

// heldUpdateRow is one two-Proc row: Proc 0 inserts 8 and then 20 on
// setPrefill, and Proc 1 inserts 5, next to 8, between the update phase of
// the insert of 8 and the install of the insert of 20 — under Isb-Opt while
// that update waits for the install's barrier, its tags still set. Proc 1's
// gather meets the tag on 3, the predecessor of 8, and helps the insert's
// record to completion. The two inserts are one window, or, across, two
// admissions: the update is then held past the first one's return, and the
// second one's install releases it.
type heldUpdateRow struct {
	kind   repro.StructKind
	eng    engineVariant
	across bool
}

// admissions is what Proc 0 admits, in turn.
func (r heldUpdateRow) admissions() [][]repro.Op {
	ins8, ins20 := repro.Op{Kind: repro.OpInsert, Arg: 8}, repro.Op{Kind: repro.OpInsert, Arg: 20}
	if r.across {
		return [][]repro.Op{{ins8}, {ins20}}
	}
	return [][]repro.Op{{ins8, ins20}}
}

// lone is what Proc 1's insert writes back with nothing to help: after Proc
// 0's admissions, whose insert of 8 is then released and untagged.
func (r heldUpdateRow) lone() uint64 {
	rt := repro.New(repro.Config{Procs: 2, HeapWords: sweepHeapWords, Seed: 42, Engine: r.eng.kind})
	s := structure{kind: r.kind}.register(rt)
	for _, op := range setPrefill {
		s.Apply(rt.Proc(0), op)
	}
	for _, ops := range r.admissions() {
		rt.ApplyWindow(rt.Proc(0), s, ops)
	}
	w := writeBacks(rt.Proc(1))
	s.Apply(rt.Proc(1), repro.Op{Kind: repro.OpInsert, Arg: 5})
	return writeBacks(rt.Proc(1)) - w
}

// writeBacks is p's barriers and stand-alone pwbs so far.
func writeBacks(p *pmem.Proc) uint64 { return p.Stats().Barriers + p.Stats().Flushes }

// build returns a fresh instance of the row on a two-Proc Runtime: Run admits
// Proc 0's admissions, and Proc 1's insert preempts them (Instance.Preempt)
// at every access of Proc 0's. at, the preemption point Cross selects, is
// Proc 0's first access after the store of the insert of 8's result, the
// first store after its third CAS (its two tags and its install). There the
// insert of 5 must help: it writes back more than lone, an insert with
// nothing to help, and leaves no stray tag (the update Proc 0 still holds has
// no tag left). That point is also crossed with a crash at every access of
// the preempted run, Proc 1's included, and every point with a crash once Run
// returned (Instance.CrashAfter), with each dirty line persisted in turn and
// each complement (Instance.Persist). Resolve recovers both processes through
// RecoverAll and re-submits what their reports do not resolve, Proc 1's insert
// too if the crash came before it; a report of an admission that returned
// must re-report its responses, and once Run returned, the last admission
// must be reported. Every history, each admission concurrent with Proc 1's
// insert if it ran then, must linearize under the set model.
func (r heldUpdateRow) build(at *pmem.Stats, lone uint64) Instance {
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
	adms := r.admissions()
	starts := make([]int, len(adms)) // the index of each admission's first response
	legs := 0
	for i, ops := range adms {
		starts[i] = legs
		legs += len(ops)
		for _, op := range ops {
			state, _ = m.Step(state, op.Kind, op.Arg)
		}
	}
	ins5 := repro.Op{Kind: repro.OpInsert, Arg: 5}
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

	// fired: Proc 1's insert started, while Proc 0 was in admission during,
	// or, run by Resolve, after them all; done: it returned, answering resp1;
	// unhelped: at the point at, it did not help the insert of 8.
	var fired, done, unhelped bool
	var resp1 uint64
	var during int
	var n int             // the admissions that returned
	var returned []uint64 // and their responses
	var base pmem.Stats   // Proc 0's when Run began
	var mark uint64       // with Cross: Proc 0's stores at its third CAS, plus one
	return Instance{
		Heap: rt.Heap(),
		Run: func() ([]uint64, error) {
			base = p0.Stats()
			for ; n < len(adms); n++ {
				returned = append(returned, admit(adms[n])...)
			}
			return returned, nil
		},
		Resolve: func() ([]uint64, error) {
			var err error
			var cur []uint64 // the reported responses of admission n
			last := n == 0   // the last admission that returned is reported
			for _, rep := range rt.RecoverAll() {
				switch {
				case rep.Proc == 0:
					for i, ops := range adms {
						k := repro.MatchReport(rep, ops, func(j int, _ repro.Op, resp repro.Resp) {
							switch {
							case i < n && resp.Raw() != returned[starts[i]+j]:
								err = fmt.Errorf("Proc 0's %s answered %d before the crash, and recovery reports %d", opName(ops[j]), returned[starts[i]+j], resp.Raw())
							case i == n:
								cur = append(cur, resp.Raw())
							}
						})
						last = last || i == n-1 && k == len(ops)
					}
				case fired && !done:
					done = repro.MatchReport(rep, []repro.Op{ins5}, func(_ int, _ repro.Op, resp repro.Resp) { resp1 = resp.Raw() }) == 1
				}
			}
			if n == len(adms) && !last {
				err = fmt.Errorf("Proc 0's last admission answered %v before the crash, and recovery does not report it", returned[starts[n-1]:])
			}
			got := append(slices.Clone(returned), cur...)
			for i := n; i < len(adms); i++ {
				if k := len(got) - starts[i]; k < len(adms[i]) {
					got = append(got, admit(adms[i][k:])...)
				}
			}
			if !done {
				if !fired {
					during = len(adms)
				}
				resp1, fired, done = s.Apply(p1, ins5).Raw(), true, true
			}
			return got, err
		},
		Verify: func() string {
			if !fired {
				return sameState([]any{s}, alone)
			}
			return sameState([]any{s}, final)
		},
		Persist:    true,
		CrashAfter: true,
		Preempt: &Preempt{
			Op: func() {
				fired, during = true, n
				w := writeBacks(p1)
				resp1 = s.Apply(p1, ins5).Raw()
				done = true
				unhelped = p0.Stats().Sub(base) == *at && (writeBacks(p1)-w <= lone || inv() != "")
			},
			Check: func(got []uint64) error {
				if unhelped {
					return fmt.Errorf("Proc 1's insert did not help the insert of 8: it wrote back no more than the %d of an insert with nothing to help, or left a stray tag", lone)
				}
				t := uint64(2 * len(hist))
				ops := hist[:len(hist):len(hist)]
				for i, adm := range adms {
					at := t + 4*uint64(i)
					for j, op := range adm {
						ops = append(ops, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: got[starts[i]+j], Start: at, End: at + 3, Seq: uint64(j)})
					}
				}
				at := t + 4*uint64(during)
				op1 := linearize.Operation{Proc: 1, Kind: ins5.Kind, Arg: ins5.Arg, Resp: resp1, Start: at + 1, End: at + 2}
				if ops = append(ops, op1); !linearize.Check(m, ops) {
					return fmt.Errorf("history %+v is not linearizable", ops[len(hist):])
				}
				return nil
			},
			Cross: func(st pmem.Stats) bool {
				switch {
				case st.CASes < 3 || *at != (pmem.Stats{}):
				case mark == 0:
					mark = st.Stores + 1 // the next store is the insert of 8's result
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
// helps. Under Isb-Opt the insert of 8's update phase, its tags still set,
// waits for the insert of 20's install barrier — leg 2's of the window, or,
// across, the next admission's; Proc 1's insert meets a tag on the way and
// helps the record — its update phase re-run, written back with Proc 1's
// barrier, and its nodes untagged with Proc 1's cookies — while Proc 0 still
// holds it. The insert of 20's install then releases an update whose untags
// all lose. Proc 1's insert preempts Proc 0 at every access, and at that one
// the whole run, the insert included, is crashed at every access, and every
// point once Run returned, with every dirty line persisted in turn, list and
// BST × both engines × both shapes: the history must linearize and the set
// must end as the model says, with no stray tag.
func TestTwoProcCrashHeldUpdate(t *testing.T) {
	for _, kind := range []repro.StructKind{repro.KindList, repro.KindBST} {
		for _, eng := range engineVariants {
			for _, across := range []bool{false, true} {
				r := heldUpdateRow{kind, eng, across}
				name := fmt.Sprintf("%v/%s", kind, eng.name)
				if across {
					name += "/across"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					var at pmem.Stats // the preemption point Cross selects
					lone := r.lone()
					SweepTest(t, func() Instance { return r.build(&at, lone) }, nil)
				})
			}
		}
	}
}

// heldAcrossRow is one two-Proc row of updates that outlive their admissions:
// Proc 0 inserts 8 on setPrefill and returns holding the insert's update
// phase, its tags still set; Proc 1 then inserts 5, next to the node 8 the
// held insert made, meets those tags and helps the record; Proc 0 then
// inserts 20, whose install releases the insert it holds. The run is crashed
// at every access, Proc 1's included, and once after it returned, with every
// dirty line persisted in turn and each complement (Instance.Persist).
// Resolve recovers both processes through RecoverAll: a report of an
// operation that returned before the crash must re-report its response, the
// one in flight takes its report's, and what is left is re-submitted. The set
// must end as the model says, with no stray tag: the only tags left at
// quiescence are those of the update each process holds.
type heldAcrossRow struct {
	kind repro.StructKind
	eng  engineVariant
}

func (r heldAcrossRow) build() Instance {
	rt := repro.New(repro.Config{Procs: 2, CrashSim: true, HeapWords: sweepHeapWords, Seed: 42, Engine: r.eng.kind})
	s := structure{kind: r.kind}.register(rt)
	m := linearize.SetModel()
	state := m.Init()
	for _, op := range setPrefill {
		s.Apply(rt.Proc(0), op)
		state, _ = m.Step(state, op.Kind, op.Arg)
	}
	ops := []struct {
		proc int
		op   repro.Op
	}{{0, repro.Op{Kind: repro.OpInsert, Arg: 8}}, {1, repro.Op{Kind: repro.OpInsert, Arg: 5}}, {0, repro.Op{Kind: repro.OpInsert, Arg: 20}}}
	for _, o := range ops {
		state, _ = m.Step(state, o.op.Kind, o.op.Arg)
	}
	final := snapshots(subject{structs: []structure{{kind: r.kind}}}, []any{state})
	apply := func(i int) uint64 { return s.Apply(rt.Proc(ops[i].proc), ops[i].op).Raw() }
	var got []uint64 // the responses of the operations that returned
	return Instance{
		Heap: rt.Heap(),
		Run: func() ([]uint64, error) {
			for len(got) < len(ops) {
				var resp uint64
				if !rt.Run(func() { resp = apply(len(got)) }) {
					isb.Admission(rt.Proc(0)) // Proc 0 sees the crash too, as the sweep expects
					panic(pmem.Crash{})
				}
				got = append(got, resp)
			}
			return got, nil
		},
		Resolve: func() ([]uint64, error) {
			var err error
			out := slices.Clone(got)
			for _, rep := range rt.RecoverAll() {
				for i, o := range ops {
					if o.proc != rep.Proc {
						continue
					}
					repro.MatchReport(rep, []repro.Op{o.op}, func(_ int, _ repro.Op, resp repro.Resp) {
						switch {
						case i < len(got) && resp.Raw() != got[i]:
							err = fmt.Errorf("Proc %d's %s answered %d before the crash, and recovery reports %d", o.proc, opName(o.op), got[i], resp.Raw())
						case i == len(got):
							out = append(out, resp.Raw())
						}
					})
				}
			}
			for len(out) < len(ops) {
				out = append(out, apply(len(out)))
			}
			return out, err
		},
		Verify:     func() string { return sameState([]any{s}, final) },
		Persist:    true,
		CrashAfter: true,
	}
}

// TestTwoProcCrashHeldAcross sweeps heldAcrossRow, list and BST × both
// engines.
func TestTwoProcCrashHeldAcross(t *testing.T) {
	for _, kind := range []repro.StructKind{repro.KindList, repro.KindBST} {
		for _, eng := range engineVariants {
			r := heldAcrossRow{kind, eng}
			t.Run(fmt.Sprintf("%v/%s", kind, eng.name), func(t *testing.T) {
				t.Parallel()
				SweepTest(t, r.build, nil)
			})
		}
	}
}
