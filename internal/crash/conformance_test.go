package crash

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/isb"
	"repro/internal/pmem"
)

// sweepFamily sweeps one family of the matrix (matrix_test.go), a subtest per
// path element and row, each row's leaf a SweepTest.
func sweepFamily(t *testing.T, family string, parallel bool) {
	var rows []row
	for _, r := range matrix() {
		if r.fam.name == family {
			rows = append(rows, r)
		}
	}
	slices.SortFunc(rows, func(a, b row) int { return slices.Compare(a.path, b.path) })
	sweepRows(t, rows, 0, parallel)
}

// sweepRows runs rows — sorted, and alike in path[:depth] — as subtests named
// by path[depth], nesting until a row's path ends.
func sweepRows(t *testing.T, rows []row, depth int, parallel bool) {
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && rows[n].path[depth] == rows[0].path[depth] {
			n++
		}
		group := rows[:n]
		rows = rows[n:]
		t.Run(group[0].path[depth], func(t *testing.T) {
			if parallel {
				t.Parallel()
			}
			if r := group[0]; len(r.path) > depth+1 {
				sweepRows(t, group, depth+1, parallel)
			} else {
				SweepTest(t, r.build, r.exp.want)
			}
		})
	}
}

// Crash-point conformance: representative operations of every structure,
// built straight from its package, are driven through a crash at every
// shared-memory access — on both engines, with and without simulated
// eviction — and recovered the paper's way, the harness re-supplying the
// operation to the structure's recovery function.
func TestCrashConformanceScenarios(t *testing.T) { sweepFamily(t, "raw", false) }

// Runtime-level crash-point conformance: the same single operations, but
// recovery is routed by Runtime.RecoverAll — the announcement record says
// which structure and operation were in flight; the harness supplies
// nothing, and checks that the registry routed exactly the announced
// operation (proc, structure ID, op, one in-flight leg). Every structure ×
// both engines must recover to the same response and post-state as targeted
// recovery does on the identical case tables.
func TestRecoverAllCrashConformance(t *testing.T) { sweepFamily(t, "routed", false) }

// Crash-point conformance for crash-consistent node reclamation: the
// reclaim-churn subjects run every operation against recycled memory — so
// the crash offsets also land inside the dead-bit flips of Alloc, Free and
// Retire and slab adoptions — and RecoverAll must leave the reclaimer
// sound before the announced operation resolves: once with every recovery
// the fast reset (the scan's mark phase then audits each one read-only),
// once with every recovery the full scan. The reclaimer-off cells hold the
// leak-forever arena to the identical bar on identical schedules.
func TestReclaimCrashConformance(t *testing.T) { sweepFamily(t, "churn", false) }

// TestReclaimScanCrashSweep crashes inside RecoverAll itself — during the
// reclaimer's recovery (the fast leg: hint repair and the registers' dead
// bits, since the reclaimer's reset touches no heap word; the full leg adds
// the mark walks and the bitmap rewrite) and
// during the frozen recovery sweep that follows — at every access offset,
// then restarts and re-runs RecoverAll. Both paths are restartable: a
// second pass must still resolve the announced operation and leave the
// structure in the sequential model's state, and a re-run fast reset may
// over-count garbage but never under-count it (the audit inside verify).
func TestReclaimScanCrashSweep(t *testing.T) { sweepFamily(t, "in-recovery", false) }

// TestBatchPrefixDurable is the batched-admission conformance sweep: five
// structures × both engines × reclamation on/off, a crash at every tracked
// access offset of an ApplyWindow — including mid-announcement and
// mid-boundary. Recovery is driven through RecoverAll's report
// (completed prefix from the durable result slots, the single in-flight
// operation through per-op recovery, the no-effect suffix re-submitted), and
// every response plus the final state must match the sequential model.
func TestBatchPrefixDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive batch crash-point sweep")
	}
	sweepFamily(t, "window", true)
}

// TestTxnCrashSweep is the transaction conformance sweep: five two-leg
// shapes × both engines × reclamation on/off, a crash at every tracked
// access offset of an ApplyTxn — mid-announcement, mid-leg-1,
// mid-commit-point, mid-leg-2. On top of what every sweep checks, each
// offset checks cross-structure atomicity: a no-effect report means NEITHER
// structure changed; anything else means leg 1's effect never outlives
// recovery without leg 2's.
func TestTxnCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive transaction crash-point sweep")
	}
	sweepFamily(t, "txn", true)
}

// TestMatrixCoverage enumerates the matrix without sweeping it and pins how
// many rows each family holds, so that coverage cannot shrink silently.
func TestMatrixCoverage(t *testing.T) {
	want := map[string]int{
		"raw":         116, // 29 cases × 4 engine variants (eviction off/on)
		"routed":      108, // 27 × 4 engine variants
		"churn":       84,  // 14 × 2 engines × arena/fast/full
		"in-recovery": 4,   // 2 engines × fast/full
		"window":      66,  // 11 × 2 engines × arena/evict/reclaim
		"txn":         30,  // 5 × 2 engines × arena/evict/reclaim
		"persist":     80,  // 24 single + 11 window + 5 txn cases, Isb-Opt only, arena/reclaim
	}
	got, seen := map[string]int{}, map[string]bool{}
	rows := matrix()
	for _, r := range rows {
		got[r.fam.name]++
		id := r.fam.name + ":" + strings.Join(r.path, "/")
		if seen[id] {
			t.Errorf("duplicate row %s", id)
		}
		seen[id] = true
		// A model answers 0 to a kind it does not know; atomic vectors have
		// two legs.
		if slices.Contains(r.exp.want, 0) || r.c.atomic && len(r.c.legs) != 2 {
			t.Errorf("row %s is malformed: %+v → %+v", id, r.c, r.exp)
		}
	}
	for f, n := range want {
		if got[f] != n {
			t.Errorf("family %s has %d rows, want %d", f, got[f], n)
		}
	}
	if len(rows) != 488 {
		t.Errorf("matrix has %d rows, want 488", len(rows))
	}
}

// TestSweepCountsFaults pins Sweep itself on instances built to order: a
// crash the instance recovers from inside Run is a crash point, a byte-fault
// instance counts the span it carried, and a fault that never fires and an
// empty span are violations.
func TestSweepCountsFaults(t *testing.T) {
	ok := func() string { return "" }
	one := func() ([]uint64, error) { return []uint64{1}, nil }
	// stores makes n tracked stores, resetting the heap itself after a crash
	// among them, as a server reboots; or it disarms the crash first.
	stores := func(n int, disarms bool) func() Instance {
		return func() Instance {
			h := pmem.NewHeap(pmem.Config{Words: sweepHeapWords, Procs: 1, Tracked: true})
			p := h.Proc(0)
			a := p.Alloc(1)
			return Instance{Heap: h, Verify: ok, Run: func() ([]uint64, error) {
				if disarms {
					h.DisarmCrash()
				}
				for i := range n {
					if !pmem.RunOp(func() { p.Store(a, uint64(i)) }) {
						h.ResetAfterCrash()
					}
				}
				return one()
			}}
		}
	}
	// carries is a stream of span bytes; a cut at byte off carries off-1 of
	// them, unless the cut is ignored.
	carries := func(span uint64, ignoresCut bool) func() Instance {
		return func() Instance {
			cut := span + 1
			return Instance{
				Heap: pmem.NewHeap(pmem.Config{Words: sweepHeapWords, Procs: 1}), Verify: ok, Run: one,
				Kill: func(off uint64) {
					if !ignoresCut {
						cut = off
					}
				},
				Carried: func() uint64 { return cut - 1 },
			}
		}
	}
	for _, tc := range []struct {
		name  string
		build func() Instance
		n     int
		err   string
	}{
		{"recovered-in-run", stores(5, false), 5, ""},
		{"byte-span", carries(7, false), 7, ""},
		{"crash-never-fires", stores(5, true), 0, "off=1: the fault never fired"},
		{"cut-never-fires", carries(7, true), 0, "off=1: the fault never fired"},
		{"no-access", stores(0, false), 0, "nothing to sweep"},
		{"no-byte", carries(0, false), 0, "nothing to sweep"},
	} {
		n, err := Sweep(tc.build, []uint64{1})
		if n != tc.n || (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: Sweep = %d, %v; want %d crash points, error %q", tc.name, n, err, tc.n, tc.err)
		}
	}
}

// TestModelDerivation holds a few rows' expectations, which expect derives
// from the sequential models, to literals written by hand, so that a model bug
// cannot agree with itself.
func TestModelDerivation(t *testing.T) {
	val := isb.EncodeValue
	rows := map[string]row{}
	for _, r := range matrix() {
		rows[r.sub.name+"/"+r.c.name] = r
	}
	for _, tc := range []struct {
		row        string
		want       []uint64
		pre, final [][]uint64
	}{
		{"list/delete-present", []uint64{isb.RespTrue}, [][]uint64{{3, 9, 14, 27, 31}}, [][]uint64{{3, 9, 27, 31}}},
		{"stack/pop", []uint64{val(6)}, [][]uint64{{6, 5}}, [][]uint64{{5}}},
		{"queue/enq-peek-deq", []uint64{isb.RespTrue, val(7), val(7), val(41)}, [][]uint64{{7}}, [][]uint64{nil}},
		{"empty-handoff/deq-empty", []uint64{isb.RespEmpty, isb.RespSkipped}, [][]uint64{nil, {3}}, [][]uint64{nil, {3}}},
	} {
		r, ok := rows[tc.row]
		if !ok {
			t.Fatalf("no row %s", tc.row)
		}
		same := func(a, b [][]uint64) bool { return slices.EqualFunc(a, b, slices.Equal[[]uint64]) }
		if !slices.Equal(r.exp.want, tc.want) || !same(r.exp.pre, tc.pre) || !same(r.exp.final, tc.final) {
			t.Errorf("%s derives %+v, want %v, %v → %v", tc.row, r.exp, tc.want, tc.pre, tc.final)
		}
	}
}

// fakeSet and fakeSeq are structures that hold whatever the test says.
type (
	fakeSet []uint64
	fakeSeq []uint64
)

func (f fakeSet) Keys() []uint64          { return f }
func (f fakeSet) CheckInvariants() string { return "" }
func (f fakeSeq) Values() []uint64        { return f }
func (f fakeSeq) CheckInvariants() string { return "broken link" }

// TestSameState pins the comparator to ordered equality: a snapshot of the
// right length whose members are all expected is still wrong.
func TestSameState(t *testing.T) {
	want := [][]uint64{{3, 9, 14, 27, 31}}
	for _, tc := range []struct {
		name string
		got  any
		ok   bool
	}{
		{"equal", fakeSet{3, 9, 14, 27, 31}, true},
		{"duplicate-plus-missing", fakeSet{3, 3, 9, 14, 27}, false},
		{"reordered", fakeSet{3, 14, 9, 27, 31}, false},
		{"short", fakeSet{3, 9, 14, 27}, false},
		{"long", fakeSet{3, 9, 14, 27, 31, 40}, false},
		{"invariant", fakeSeq{3, 9, 14, 27, 31}, false},
		{"no-snapshot", 7, false},
	} {
		if msg := sameState([]any{tc.got}, want); (msg == "") != tc.ok {
			t.Errorf("%s: sameState(%v, %v) = %q", tc.name, tc.got, want, msg)
		}
	}
	if msg := sameState([]any{fakeSet{}, fakeSet{5}}, [][]uint64{nil, {5}}); msg != "" {
		t.Errorf("two structures, one empty: %q", msg)
	}
}

// TestCrashPersistSubsets is the persistence-order sweep: every single
// operation, window and transaction case of the families above, registered
// on a Runtime under Isb-Opt, crashed at every access with each line
// the crash left dirty persisted alone, and with every dirty line but that
// one persisted (Instance.Persist). An Isb-Opt install writes back its Info
// record, the NewSet, the announcement with its prefix or the kept result
// slots, RD_q/CP_q and the carried cleanup in one barrier whose lines may
// persist in any order, so these are the crash states its argument must
// cover: the register durable with the record or the NewSet not, the record
// and the register durable with the NewSet not, the register without the
// announcement header, a slot without the rest.
func TestCrashPersistSubsets(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive persistence-order crash-point sweep")
	}
	sweepFamily(t, "persist", true)
}
