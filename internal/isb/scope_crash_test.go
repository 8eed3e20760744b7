package isb_test

import (
	"slices"
	"testing"

	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
)

// TestScopeCrashTeardown fails one process individually (the paper's
// footnote-1 model: its locals are lost, shared memory and the heap's crash
// state are untouched, so Heap.finishReset never runs) at every access of
// one insert and one delete under Isb-Opt, where each single operation is a
// sync scope. The crash abandons the scope open; the recovery entry point
// must close it — deferral and write-back overlap together — so that
// recovery runs eager and the operations after it pay the pinned price.
func TestScopeCrashTeardown(t *testing.T) {
	syncs := func(h *pmem.Heap, f func()) uint64 {
		before := h.TotalStats().Syncs
		f()
		return h.TotalStats().Syncs - before
	}
	crashes := 0
	for off := uint64(1); ; off++ {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: 1, Tracked: true})
		e := isb.NewEngineOpt(h)
		e.SetAnnounceID(1, isb.NewRecords(h))
		l := list.NewWithEngine(h, e)
		p := h.Proc(0)
		l.Insert(p, 10)
		l.Insert(p, 30)

		crashedAny := false
		for _, c := range []struct {
			kind, key uint64
			want      []uint64
		}{
			{list.OpInsert, 20, []uint64{10, 20, 30}},
			{list.OpDelete, 30, []uint64{10, 20}},
		} {
			var resp uint64
			p.ScheduleSelfCrash(off)
			crashed := !pmem.RunOp(func() { resp = l.ApplyOp(p, c.kind, c.key) })
			p.CancelSelfCrash()
			if crashed {
				crashedAny = true
				crashes++
				deferred, _ := e.Counters()
				resp = l.RecoverLeg(p, 0, c.kind, c.key)
				if after, _ := e.Counters(); after != deferred {
					t.Fatalf("offset %d kind %d: recovery deferred %d sync points, want it eager", off, c.kind, after-deferred)
				}
			}
			if !isb.Bool(resp) {
				t.Fatalf("offset %d kind %d: response false, want true", off, c.kind)
			}
			if ks := l.Keys(); !slices.Equal(ks, c.want) {
				t.Fatalf("offset %d kind %d: keys %v, want %v", off, c.kind, ks, c.want)
			}
			if msg := l.CheckInvariants(); msg != "" {
				t.Fatalf("offset %d kind %d: %s", off, c.kind, msg)
			}
			if p.InSyncScope() {
				t.Fatalf("offset %d kind %d: a sync scope is still open after recovery", off, c.kind)
			}
			// The next operation is a whole scope again: its begin defers, and
			// one psync closes it.
			if got := syncs(h, func() { l.ApplyOp(p, list.OpInsert, 40) }); got != 1 {
				t.Fatalf("offset %d kind %d: the next update cost %d psyncs, want 1", off, c.kind, got)
			}
			l.ApplyOp(p, list.OpDelete, 40)
		}
		if !crashedAny {
			break // both operations outran the offset: every access was covered
		}
	}
	if crashes < 50 {
		t.Fatalf("only %d crash points exercised; the sweep is not reaching inside the operations", crashes)
	}
}
