package crash

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/isb"
	"repro/internal/linearize"
	"repro/internal/pmem"
)

// This file is the two-process table, whole: every row a set, Proc 0's
// admissions swept on it while Proc 1's operations run before them, between
// them or inside one of them at every access (Preempt), the way iterative
// context bounding (Musuvathi & Qadeer, PLDI'07) takes one preemption. One
// builder makes a row's instance, one resolve recovers it through RecoverAll,
// and one history check holds every replay to the set's model.

// twoProc is one row of the table.
type twoProc struct {
	test, path string    // the test it runs under, and its subtest path there
	s          structure // the set, its shards and its prefill
	eng        engineVariant
	reclaim    bool // the reclaimer, not the arena
	// raw builds s from its package on a bare two-Proc heap and recovers
	// Proc 0's one operation directly (Direct), as the matrix's raw family
	// does; the rest run on a Runtime and recover through RecoverAll.
	raw   bool
	words int  // heap words
	begin bool // a bare Begin precedes each Runtime operation, the prefill's too
	// before are admitted once the set is filled, before Run; run are Run's
	// admissions, in turn, the responses Sweep compares.
	before, run []admission
	// preempt is Proc 1's operations, in turn, run at every access of Proc
	// 0's in Run or, inResolve, at the first within accesses of its Resolve.
	preempt    []repro.Op
	inResolve  bool
	within     int
	persist    bool // Instance.Persist
	crashAfter bool // Instance.CrashAfter
	// helps selects one preemption point (Preempt.Cross), Proc 0's first
	// access after the first store after its third CAS, once its insert of 8
	// has installed and tagged, and requires Proc 1's operations there to
	// help that insert: to write back more than they do with nothing to
	// help (lone) and to leave no stray tag.
	helps bool
	// walk, when positive, bounds the accesses of the last find before Run,
	// which must start at its slot's anchor.
	walk uint64
}

// admission is one admission of a row: proc's one operation (Structure.Apply),
// a window (Runtime.ApplyWindow) or a transaction's two legs (ApplyTxn).
type admission struct {
	proc int
	how  admitHow
	ops  []repro.Op
}

type admitHow uint8

const (
	byApply admitHow = iota
	byWindow
	byTxn
)

func alone(proc int, op repro.Op) admission { return admission{proc, byApply, []repro.Op{op}} }
func windowOf(ops ...repro.Op) admission    { return admission{0, byWindow, ops} }
func txnOf(a, b repro.Op) admission         { return admission{0, byTxn, []repro.Op{a, b}} }

func ins(k uint64) repro.Op  { return repro.Op{Kind: repro.OpInsert, Arg: k} }
func del(k uint64) repro.Op  { return repro.Op{Kind: repro.OpDelete, Arg: k} }
func find(k uint64) repro.Op { return repro.Op{Kind: repro.OpFind, Arg: k} }

// twoProcRows enumerates the table, family by family; each family is a test
// of the same name below, which says what its rows defend.
func twoProcRows() []twoProc {
	var out []twoProc
	sets := []repro.StructKind{repro.KindList, repro.KindBST}
	each := func(f func(kind repro.StructKind, eng engineVariant, r twoProc)) {
		for _, kind := range sets {
			for _, eng := range engineVariants {
				f(kind, eng, twoProc{s: structure{kind: kind, prefill: setPrefill}, eng: eng, words: sweepHeapWords})
			}
		}
	}
	add := func(r twoProc, test string, path ...string) {
		r.test, r.path = test, strings.Join(path, "/")
		out = append(out, r)
	}
	each(func(kind repro.StructKind, eng engineVariant, r twoProc) {
		for _, sh := range []struct {
			name string
			prev admission
		}{
			{"failed-insert", alone(0, ins(9))},
			{"failed-insert+find", windowOf(ins(9), find(27))},
			{"insert+failed-insert", windowOf(ins(20), ins(9))},
			{"insert-8+failed-insert", windowOf(ins(8), ins(9))},
			{"txn-insert+failed-insert", txnOf(ins(20), ins(9))},
		} {
			r.before = []admission{sh.prev, alone(1, del(9))}
			r.run, r.persist = []admission{windowOf(ins(14), ins(8), find(9))}, true
			add(r, "TestTwoProcCrashEffectFree", kind.String(), eng.name, sh.name)
		}
	})
	each(func(kind repro.StructKind, eng engineVariant, r twoProc) {
		r.preempt, r.persist, r.crashAfter = []repro.Op{ins(8)}, true, true
		for _, sh := range []struct {
			name string
			adm  admission
		}{{"insert", alone(0, ins(8))}, {"insert+insert", windowOf(ins(20), ins(8))}} {
			r.run = []admission{sh.adm, alone(1, del(8))}
			add(r, "TestTwoProcCrashLostTags", kind.String(), eng.name, sh.name)
		}
	})
	each(func(kind repro.StructKind, eng engineVariant, r twoProc) {
		r.preempt, r.helps, r.persist, r.crashAfter = []repro.Op{ins(5)}, true, true, true
		r.run = []admission{windowOf(ins(8), ins(20))}
		add(r, "TestTwoProcCrashHeldUpdate", kind.String(), eng.name)
		r.run = []admission{windowOf(ins(8)), windowOf(ins(20))}
		add(r, "TestTwoProcCrashHeldUpdate", kind.String(), eng.name, "across")
	})
	each(func(kind repro.StructKind, eng engineVariant, r twoProc) {
		r.run, r.persist, r.crashAfter = []admission{alone(0, ins(8)), alone(1, ins(5)), alone(0, ins(20))}, true, true
		add(r, "TestTwoProcCrashHeldAcross", kind.String(), eng.name)
	})
	// The interlopers change the AffectSet of an insert of 8 — list: tags 3
	// and 9; BST: internal 9, leaf 3 — or of a delete of 14 — list: tags 9
	// and 14; BST: internal 14, internal 27, leaf 14, internal 31, and 27
	// and 31 hang under its sibling. Removing the insert's predecessor and
	// then inserting next to it meets the insert's durable tag on the
	// successor and helps the record. Their keys differ from Proc 0's, so
	// its response and the final state do not depend on where it takes
	// effect.
	menus := map[repro.StructKind][][]repro.Op{repro.KindList: {{del(9)}, {del(27)}, {ins(11)}}, repro.KindBST: {{del(9)}, {del(27)}, {del(31)}}}
	each(func(kind repro.StructKind, eng engineVariant, r twoProc) {
		r.raw = true
		for _, op := range []repro.Op{ins(8), del(14)} {
			menu := [][]repro.Op{{del(3)}, {del(9)}, {ins(5)}, {del(3), ins(5)}}
			if op.Kind == repro.OpDelete {
				menu = menus[kind]
			}
			for _, il := range menu {
				r.run, r.preempt = []admission{alone(0, op)}, il
				crash := r
				crash.persist, crash.inResolve, crash.within = true, true, 1
				add(crash, "TestTwoProcCrashInterference", kind.String(), eng.name, opName(op), opName(il...))
				add(r, "TestTwoProcPreemptInterference", kind.String(), eng.name, opName(op), opName(il...))
			}
		}
	})
	a, k, far, b, churn := indexKeysOf()
	prefill := []repro.Op{ins(a)}
	for key := uint64(1); key <= indexKeys; key++ {
		if key != a {
			prefill = append(prefill, ins(key))
		}
	}
	for _, eng := range engineVariants {
		for _, reclaim := range []bool{false, true} {
			for _, insert := range []bool{false, true} {
				r := twoProc{s: structure{kind: repro.KindHashMap, param: 1, prefill: prefill}, eng: eng, reclaim: reclaim,
					words: sweepHeapWords * 4, begin: true, walk: indexWalk}
				r.before = []admission{alone(0, find(k)), alone(0, find(k))}
				r.run = []admission{alone(0, del(far)), alone(0, find(k))}
				alloc, how := "arena", "delete-anchor"
				r.preempt = []repro.Op{del(a)}
				if insert {
					how, r.preempt[0] = "insert-before-anchor", ins(b)
				}
				if reclaim {
					alloc = "reclaim"
					for _, c := range churn {
						r.preempt = append(r.preempt, ins(c))
					}
				} else {
					r.preempt = append(r.preempt, del(k))
				}
				add(r, "TestTwoProcIndexAnchor", eng.name, alloc, how)
			}
		}
	}
	a, k, other, fresh := reuseKeysOf()
	prefill = []repro.Op{ins(a)}
	for _, key := range append(shardKeys(2, 0, indexKeys), other...) {
		if key != a {
			prefill = append(prefill, ins(key))
		}
	}
	for _, eng := range engineVariants {
		r := twoProc{s: structure{kind: repro.KindHashMap, param: 2, prefill: prefill}, eng: eng, reclaim: true,
			words: sweepHeapWords * 4, begin: true, walk: indexWalk}
		r.before = []admission{alone(0, find(k)), alone(0, find(k)), alone(1, del(a))}
		r.run = []admission{alone(0, find(k))}
		for i, c := range other[:reuseRetire+reuseAdvance+reuseDeletes] {
			switch {
			case i < reuseRetire:
				r.before = append(r.before, alone(1, del(c)))
			case i < reuseRetire+reuseAdvance:
				r.before = append(r.before, alone(0, del(c)))
			default:
				r.preempt = append(r.preempt, del(c))
			}
		}
		for _, y := range fresh {
			r.preempt = append(r.preempt, ins(y))
		}
		r.preempt = append(r.preempt, del(other[len(other)-1]))
		add(r, "TestTwoProcIndexAnchor", eng.name, "reclaim", "reuse-in-other-bucket")
	}
	return out
}

// TestTwoProcCrashEffectFree: once an admission has returned, no durable
// record may name one of its effect-free legs as in flight. Proc 0 completes
// an admission holding an effect-free insert of 9 (present) — alone, leading
// a window, after an insert of 20 or of 8, or as a transaction's leg 2 — Proc
// 1 deletes 9, and Proc 0's next window (insert 14, present; insert 8; find
// 9) is crashed at every access, every dirty line persisted in turn. Were a
// record left naming the failed insert, RecoverAll would re-invoke it and 9
// would reappear. Under Isb-Opt no failed insert of a window installs; the
// transaction's failed leg 2 keeps its install, which RD_q names with its
// response. The swept window leads with an effect-free leg too, whose slot
// must be durable before the next leg's tags.
func TestTwoProcCrashEffectFree(t *testing.T) { sweepTwoProc(t) }

// TestTwoProcCrashLostTags is the same invariant for an effect-free leg that
// installed first: Proc 0 inserts 8, absent, alone or after an insert of 20,
// and Proc 1's insert of 8 preempts it at every access. Landing between Proc
// 0's install and its tags, it makes the tags fail and the retry find 8
// present, so the leg returns false with RD_q naming the attempt whose tags
// failed, unless the retry installs too. Proc 1 then deletes 8, and the
// system crashes after Run at every preemption point: RecoverAll must not
// insert 8 again.
func TestTwoProcCrashLostTags(t *testing.T) { sweepTwoProc(t) }

// TestTwoProcCrashHeldUpdate: under Isb-Opt the insert of 8's update phase,
// its tags still set, waits for the insert of 20's install barrier — leg 2's
// of the window or, across, the next admission's. Proc 1's insert of 5 meets
// a tag and helps the record while Proc 0 still holds it, and the insert of
// 20's install then releases an update whose untags all lose. At the point
// helps selects, the whole run is crashed at every access, Proc 1's included.
func TestTwoProcCrashHeldUpdate(t *testing.T) { sweepTwoProc(t) }

// TestTwoProcCrashHeldAcross: Proc 0's insert of 8 returns holding its update
// phase; Proc 1's insert of 5, next to the node 8 it made, meets the tags and
// helps the record; Proc 0's insert of 20 releases the update. Crashed at
// every access, Proc 1's included: the only tags left at quiescence are
// those of the update each process holds.
func TestTwoProcCrashHeldAcross(t *testing.T) { sweepTwoProc(t) }

// TestTwoProcCrashInterference: Isb-Opt reports every tag CAS of a phase to
// one barrier, so a later AffectSet element's line can persist while an
// earlier one's does not. If another process then changes the earlier
// element, Proc 0's re-run tagging fails there, and unless the backtrack
// also clears the elements after the failure the later one stays tagged by a
// record that can never complete; a helper that finds the later tag must not
// skip the earlier element. Proc 0's operation is crashed at every access,
// every dirty line persisted in turn, and the interloper runs at the first
// access of its recovery.
func TestTwoProcCrashInterference(t *testing.T) { sweepTwoProc(t) }

// TestTwoProcPreemptInterference runs the same interlopers at every access of
// Proc 0's operation instead, uncrashed.
func TestTwoProcPreemptInterference(t *testing.T) { sweepTwoProc(t) }

// TestTwoProcIndexAnchor: on a one-bucket hash map of indexKeys keys, Proc 0
// deletes far and then finds k, whose walk starts at the anchor a, the last
// node below k's slot; Proc 1, at every access of Proc 0's, retires a — it
// deletes it, or inserts b just before it, which copies it — and then, on the
// arena, deletes k, and on the reclaimer inserts indexChurn keys above k, so
// that a's block is freed and reused. On a map of two buckets, Proc 1
// deletes a before Run and, at every access of Proc 0's find of k, draws a's
// freed block into the other bucket, where it is linked and untagged: at the
// anchor check, between the find's two reads of a's version. A walk must
// not start at an anchor retired before its check (the untagged rule), nor
// at one whose block was reused since it was recorded (the version rule).
func TestTwoProcIndexAnchor(t *testing.T) { sweepTwoProc(t) }

// sweepTwoProc sweeps the table's rows of test t, each a SweepTest row.
func sweepTwoProc(t *testing.T) {
	n := 0
	for _, r := range twoProcRows() {
		if r.test != t.Name() {
			continue
		}
		n++
		t.Run(r.path, func(t *testing.T) {
			t.Parallel()
			var hp helpPoint
			if r.helps {
				hp.lone = r.lone()
			}
			SweepTest(t, func() Instance { return r.build(&hp) }, nil)
		})
	}
	if n == 0 {
		t.Fatalf("the two-process table has no row for %s", t.Name())
	}
}

// TestTwoProcCoverage enumerates the table without sweeping it and pins how
// many rows each family holds, so that coverage cannot shrink silently.
func TestTwoProcCoverage(t *testing.T) {
	want := map[string]int{
		"TestTwoProcCrashEffectFree":     20, // list and BST × 2 engines × 5 completed admissions
		"TestTwoProcCrashLostTags":       8,  // list and BST × 2 engines × alone or after an insert
		"TestTwoProcCrashHeldUpdate":     8,  // list and BST × 2 engines × one window or across two
		"TestTwoProcCrashHeldAcross":     4,  // list and BST × 2 engines
		"TestTwoProcCrashInterference":   28, // list and BST × 2 engines × 7 interlopers
		"TestTwoProcPreemptInterference": 28, // the same rows
		"TestTwoProcIndexAnchor":         10, // 2 engines × (arena/reclaimer × the anchor deleted or copied, or its block reused)
	}
	got, seen := map[string]int{}, map[string]bool{}
	for _, r := range twoProcRows() {
		got[r.test]++
		id := r.test + "/" + r.path
		if seen[id] {
			t.Errorf("duplicate row %s", id)
		}
		seen[id] = true
		// Direct sweeps one operation of Proc 0's; a Runtime row's Resolve
		// runs Proc 1's operations itself, so only a raw row preempts it.
		if r.raw && (len(r.before) > 0 || len(r.run) != 1 || len(r.run[0].ops) != 1 || r.run[0].proc != 0) ||
			r.inResolve != (r.within > 0) || r.inResolve && !r.raw || (r.helps || r.inResolve) && len(r.preempt) == 0 {
			t.Errorf("row %s is malformed: %+v", id, r)
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("rows per family %v, want %v", got, want)
	}
}

// helpPoint is what a helps row's builds share: the preemption point Cross
// selected in the uninterrupted run, and lone.
type helpPoint struct {
	at   pmem.Stats // Proc 0's since Run began
	lone uint64
}

// twoProcRun is one instance of a row: its heap and set, the history and the
// model's state once the prefill and the admissions before Run ran, and what
// Run, Proc 1 and Resolve answered.
type twoProcRun struct {
	r      twoProc
	h      *pmem.Heap
	rt     *repro.Runtime  // nil in a raw row
	s      repro.Structure // a Runtime row's set
	a      Applier         // a raw row's
	set    any             // either, as sameState reads it
	hist   []linearize.Operation
	state  any
	got    []uint64 // the responses of Run's admissions that returned
	n      int      // how many returned
	during int      // the admission Proc 1's operations ran in (len(run): after all), or -1
	resp1  []uint64 // Proc 1's responses so far
	help   uint64   // their write-backs
	base   pmem.Stats
	// unhelped: at the point helps selects, Proc 1 did not help.
	unhelped bool
}

// setUp builds the row's heap and set, fills it and admits what comes
// before Run, within stormRecoverBudget heap accesses: a walk that loops
// there fails the row instead of hanging it.
func (r twoProc) setUp() (x *twoProcRun, err error) {
	x = &twoProcRun{r: r, during: -1, state: setModel.Init()}
	for _, op := range r.s.prefill {
		x.record(0, []repro.Op{op}, nil)
	}
	if r.raw {
		x.h = pmem.NewHeap(pmem.Config{Words: r.words, Procs: 2, Tracked: true, Seed: 42})
	} else {
		x.rt = repro.New(repro.Config{Procs: 2, CrashSim: true, HeapWords: r.words, Seed: 42, Engine: r.eng.kind, Reclaim: r.reclaim})
		x.h = x.rt.Heap()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("set-up: %v", p)
		}
	}()
	x.h.ScheduleCrashAt(x.h.AccessCount() + stormRecoverBudget)
	defer x.h.DisarmCrash()
	var walk uint64 // the accesses of the last find before Run
	if !pmem.RunOp(func() {
		if r.raw {
			x.a = r.s.raw(x.h, r.eng.mk(x.h))
			x.set = x.a
			return
		}
		x.s = r.s.register(x.rt)
		x.set = x.s
		for _, op := range r.s.prefill {
			x.admit(alone(0, op))
		}
		for _, adm := range r.before {
			start := x.h.AccessCount()
			resps := x.admit(adm)
			if adm.ops[0].Kind == repro.OpFind {
				walk = x.h.AccessCount() - start
			}
			x.record(adm.proc, adm.ops, resps)
		}
	}) {
		x.h.ResetAfterCrash()
		return x, fmt.Errorf("the set-up ran past %d heap accesses", stormRecoverBudget)
	}
	if r.walk > 0 && walk > r.walk {
		return x, fmt.Errorf("the last find before Run made %d accesses, more than %d: it did not start at the anchor", walk, r.walk)
	}
	return x, nil
}

// setModel is the sequential set every row is held to.
var setModel = linearize.SetModel()

// record appends an admission of proc's that returned resps (nil: the
// model's) to the history, one interval for all of its operations, and steps
// the model through it.
func (x *twoProcRun) record(proc int, ops []repro.Op, resps []uint64) {
	t := uint64(2 * len(x.hist))
	for i, op := range ops {
		var resp uint64
		if x.state, resp = setModel.Step(x.state, op.Kind, op.Arg); resps != nil {
			resp = resps[i]
		}
		x.hist = append(x.hist, linearize.Operation{Proc: proc, Kind: op.Kind, Arg: op.Arg, Resp: resp, Start: t, End: t + 1, Seq: uint64(i)})
	}
}

// admit runs adm and returns its responses. A raw row's operation is begun
// first (Applier.Begin), and so is a Runtime row's lone one if begin.
func (x *twoProcRun) admit(adm admission) []uint64 {
	p, ops := x.h.Proc(adm.proc), adm.ops
	switch {
	case x.a != nil:
		x.a.Begin(p)
		return []uint64{x.a.ApplyOp(p, ops[0].Kind, ops[0].Arg)}
	case adm.how == byWindow:
		var out []uint64
		for _, resp := range x.rt.ApplyWindow(p, x.s, ops) {
			out = append(out, resp.Raw())
		}
		return out
	case adm.how == byTxn:
		a, b := x.rt.ApplyTxn(p, repro.TxnLeg{S: x.s, Op: ops[0]}, repro.TxnLeg{S: x.s, Op: ops[1]})
		return []uint64{a.Raw(), b.Raw()}
	}
	if x.r.begin {
		x.s.Begin(p)
	}
	return []uint64{x.s.Apply(p, ops[0]).Raw()}
}

// build returns a fresh instance of the row, its Preempt hook counting Proc
// 0's accesses from Run's first on.
func (r twoProc) build(hp *helpPoint) Instance {
	x, err := r.setUp()
	if err != nil {
		return Instance{Heap: x.h, Run: func() ([]uint64, error) { return nil, err }, Verify: func() string { return "" }}
	}
	var in Instance
	if r.raw {
		op := r.run[0].ops[0]
		_, want := setModel.Step(x.state, op.Kind, op.Arg)
		in = Direct(x.h, x.a, Op(op), want, x.verify)
	} else {
		in = Instance{Heap: x.h, Run: x.runAll, Resolve: x.resolve, Verify: x.verify}
	}
	in.Persist, in.CrashAfter = r.persist, r.crashAfter
	if len(r.preempt) == 0 {
		return in
	}
	p0 := x.h.Proc(0)
	in.Preempt = &Preempt{
		Op: func() {
			x.during = x.n
			x.proc1()
			stray := func() bool { return x.set.(interface{ CheckInvariants() string }).CheckInvariants() != "" }
			x.unhelped = r.helps && p0.Stats().Sub(x.base) == hp.at && (x.help <= hp.lone || stray())
		},
		Check: func(got []uint64) error {
			if x.unhelped {
				return fmt.Errorf("Proc 1's %s did not help: it wrote back %d, no more than the %d of one with nothing to help, or left a stray tag", opName(r.preempt...), x.help, hp.lone)
			}
			return x.history(got)
		},
		InResolve: r.inResolve,
		Within:    r.within,
	}
	if r.helps {
		var mark uint64 // Proc 0's stores at its third CAS, plus one
		in.Preempt.Cross = func(st pmem.Stats) bool {
			switch {
			case st.CASes < 3 || hp.at != (pmem.Stats{}):
			case mark == 0:
				mark = st.Stores + 1 // the next store is the insert of 8's result
			case st.Stores >= mark:
				hp.at = st
				return true
			}
			return false
		}
	}
	return in
}

// lone is what Proc 1's operations write back with nothing to help: after
// Run, whose insert of 8 is then released and untagged.
func (r twoProc) lone() uint64 {
	x, err := r.setUp()
	defer x.h.Release()
	if err != nil {
		return 0 // every build fails the same way, and says why
	}
	x.runAll()
	x.proc1()
	return x.help
}

// writeBacks is p's barriers and stand-alone pwbs so far.
func writeBacks(p *pmem.Proc) uint64 { return p.Stats().Barriers + p.Stats().Flushes }

// proc1 runs Proc 1's operations that have not returned, in turn.
func (x *twoProcRun) proc1() {
	p1 := x.h.Proc(1)
	w := writeBacks(p1)
	for len(x.resp1) < len(x.r.preempt) {
		x.resp1 = append(x.resp1, x.admit(alone(1, x.r.preempt[len(x.resp1)]))...)
	}
	x.help = writeBacks(p1) - w
}

// runAll is a Runtime row's Run: its admissions, in turn.
func (x *twoProcRun) runAll() ([]uint64, error) {
	x.base = x.h.Proc(0).Stats()
	for ; x.n < len(x.r.run); x.n++ {
		adm := x.r.run[x.n]
		var out []uint64
		if adm.proc == 0 {
			out = x.admit(adm)
		} else if !pmem.RunOp(func() { out = x.admit(adm) }) {
			isb.Admission(x.h.Proc(0)) // Proc 0 sees the crash too, as the sweep expects
			panic(pmem.Crash{})
		}
		x.got = append(x.got, out...)
	}
	return x.got, nil
}

// resolve is a Runtime row's Resolve: RecoverAll, whose report of an
// admission that returned must re-report its responses, and, once Run
// returned, must report its last admission; the report of the admission in
// flight answers what it resolves, and the rest is re-submitted, Proc 1's
// operations last. The history must linearize.
func (x *twoProcRun) resolve() ([]uint64, error) {
	run, pre := x.r.run, x.r.preempt
	var err error
	var cur []uint64       // what the report of admission n answers
	last := x.n < len(run) // or Run returned and its last admission is reported
	for _, rep := range x.rt.RecoverAll() {
		from := 0 // the index of admission i's first response
		for i, adm := range run {
			at := from
			from += len(adm.ops)
			if adm.proc != rep.Proc {
				continue
			}
			k := repro.MatchReport(rep, adm.ops, func(j int, op repro.Op, resp repro.Resp) {
				switch {
				case i < x.n && resp.Raw() != x.got[at+j]:
					err = fmt.Errorf("Proc %d's %s answered %d before the crash, and recovery reports %d", adm.proc, opName(op), x.got[at+j], resp.Raw())
				case i == x.n:
					cur = append(cur, resp.Raw())
				}
			})
			last = last || i == x.n-1 && k == len(adm.ops)
		}
		if j := len(x.resp1); rep.Proc == 1 && x.during >= 0 && j < len(pre) {
			repro.MatchReport(rep, pre[j:j+1], func(_ int, _ repro.Op, resp repro.Resp) { x.resp1 = append(x.resp1, resp.Raw()) })
		}
	}
	if !last {
		err = fmt.Errorf("Run's last admission answered %v before the crash, and recovery does not report it", x.got[len(x.got)-len(run[len(run)-1].ops):])
	}
	got := append(slices.Clone(x.got), cur...)
	for i := x.n; i < len(run); i++ {
		adm := run[i]
		if i == x.n {
			adm.ops = adm.ops[len(cur):]
		}
		if len(adm.ops) > 0 {
			got = append(got, x.admit(adm)...)
		}
	}
	if x.during < 0 {
		x.during = len(run)
	}
	x.proc1()
	if err != nil {
		return nil, err
	}
	return got, x.history(got)
}

// history checks the row's history with got, Run's responses: the prefill
// and the admissions before Run in turn, then each of Run's admissions an
// interval, with Proc 1's operations in turn inside the one they preempted
// (after the last: run by Resolve). It linearizes key by key.
func (x *twoProcRun) history(got []uint64) error {
	h := slices.Clone(x.hist)
	t0, w := uint64(2*len(h)), uint64(2*len(x.r.preempt)+2)
	i := 0
	for a, adm := range x.r.run {
		at := t0 + w*uint64(a)
		for j, op := range adm.ops {
			h = append(h, linearize.Operation{Proc: adm.proc, Kind: op.Kind, Arg: op.Arg, Resp: got[i], Start: at, End: at + w - 1, Seq: uint64(j)})
			i++
		}
	}
	if x.during >= 0 {
		for j, op := range x.r.preempt {
			at := t0 + w*uint64(x.during) + 1 + 2*uint64(j)
			h = append(h, linearize.Operation{Proc: 1, Kind: op.Kind, Arg: op.Arg, Resp: x.resp1[j], Start: at, End: at + 1})
		}
	}
	if key, ok := linearize.CheckSetHistory(h); !ok {
		return fmt.Errorf("key %d: the history after the prefill %+v is not linearizable", key, h[len(x.r.s.prefill):])
	}
	return nil
}

// verify holds the set to the model: what came before Run, then Run's
// admissions with Proc 1's operations where they ran, if they did.
func (x *twoProcRun) verify() string {
	state := x.state
	step := func(ops []repro.Op) {
		for _, op := range ops {
			state, _ = setModel.Step(state, op.Kind, op.Arg)
		}
	}
	for a, adm := range x.r.run {
		if a == x.during {
			step(x.r.preempt)
		}
		step(adm.ops)
	}
	if x.during == len(x.r.run) {
		step(x.r.preempt)
	}
	return sameState([]any{x.set}, snapshots(subject{structs: []structure{x.r.s}}, []any{state}))
}

// opName spells an operation, or a sequence joined by "+", in subtest paths.
func opName(ops ...repro.Op) string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = fmt.Sprintf("%s-%d", map[uint64]string{repro.OpInsert: "insert", repro.OpDelete: "delete", repro.OpFind: "find"}[op.Kind], op.Arg)
	}
	return strings.Join(names, "+")
}

// The index rows' map: one bucket of indexKeys keys, enough for its walks to
// grow long and its list to keep an index of 2^7 slots (package list's
// slots), each a 2^indexShift share of the order keys.
const (
	indexKeys  = 200
	indexShift = 64 - 7
	// indexWalk bounds Proc 0's find when it starts at the anchor: a walk
	// from the head passes about half the bucket, over a hundred accesses.
	indexWalk = 12
	// indexChurn is the reclaimer rows' run of inserts after the anchor's
	// retirement: enough to fill Proc 1's ring past its advance threshold,
	// move the epoch on twice and draw the freed blocks back out.
	indexChurn = 96
	// The reuse rows' runs of deletes in bucket 1: Proc 1's reuseRetire
	// after its delete of the anchor, whose installs retire it; Proc 0's
	// reuseAdvance, which move the epoch on at least twice since; and Proc
	// 1's reuseDeletes when it preempts, which fill its ring past its
	// advance threshold, so that the anchor's block is freed, then drawn by
	// one of its reuseFresh inserts. reuseKept keys are never deleted.
	reuseRetire  = 3
	reuseAdvance = 64
	reuseDeletes = 48
	reuseFresh   = 3
	reuseKept    = 2*reuseFresh + 1
)

// bucketOrder is what a hash map's bucket orders its keys by, the splitmix64
// finalizer of the key (internal/hashmap), recomputed here to place keys.
func bucketOrder(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

// shardKeys returns the first n keys a map of shards shards routes to
// shard, in order-key order.
func shardKeys(shards, shard uint64, n int) []uint64 {
	var keys []uint64
	for key := uint64(1); len(keys) < n; key++ {
		if bucketOrder(key)&(shards-1) == shard {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bucketOrder(keys[i]) < bucketOrder(keys[j]) })
	return keys
}

// anchorAt is the index in keys, in order-key order, of the last key of a
// slot past the middle: the anchor of the next slot, whose first key follows.
func anchorAt(keys []uint64) int {
	i := len(keys) / 2
	for bucketOrder(keys[i])>>indexShift == bucketOrder(keys[i+1])>>indexShift {
		i++
	}
	return i
}

// indexKeysOf picks the index rows' keys from 1..indexKeys in order-key
// order: a the last key of a slot past the middle of the bucket and k the
// first of the next slot, far the first key, and b the first key above
// indexKeys ordered between a's predecessor and a; churn are the first
// indexChurn keys above b ordered above k. The bucket is filled with a first,
// so that every walk into k's slot once the index is kept records a.
func indexKeysOf() (a, k, far, b uint64, churn []uint64) {
	keys := shardKeys(1, 0, indexKeys)
	i := anchorAt(keys)
	a, k, far = keys[i], keys[i+1], keys[0]
	lo, hi := bucketOrder(keys[i-1]), bucketOrder(a)
	for b = indexKeys + 1; bucketOrder(b) <= lo || bucketOrder(b) >= hi; b++ {
	}
	for c := b + 1; len(churn) < indexChurn; c++ {
		if bucketOrder(c) > bucketOrder(k) {
			churn = append(churn, c)
		}
	}
	return a, k, far, b, churn
}

// reuseKeysOf picks the reuse rows' keys in a map of two buckets: a and k
// as indexKeysOf picks them among bucket 0's first indexKeys keys, and
// bucket 1's keys, other, in order-key order, the first ones deleted and the
// last reuseKept kept; fresh are keys bucket 1 is not filled with, one in
// each gap between two of the kept keys, so that no insert of one copies a
// node another made.
func reuseKeysOf() (a, k uint64, other, fresh []uint64) {
	keys := shardKeys(2, 0, indexKeys)
	i := anchorAt(keys)
	other = shardKeys(2, 1, reuseRetire+reuseAdvance+reuseDeletes+reuseKept)
	kept := other[len(other)-reuseKept:]
	for key := uint64(1); len(fresh) < reuseFresh; key++ {
		lo, hi := bucketOrder(kept[2*len(fresh)]), bucketOrder(kept[2*len(fresh)+1])
		if o := bucketOrder(key); o&1 == 1 && lo < o && o < hi {
			fresh = append(fresh, key)
		}
	}
	return keys[i], keys[i+1], other, fresh
}
