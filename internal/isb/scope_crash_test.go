package isb_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/crash"
	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
)

// TestScopeCrashTeardown fails one process individually (the paper's
// footnote-1 model: its locals are lost, shared memory and the heap's crash
// state are untouched, so Heap.finishReset never runs) at every access of
// one insert and, after it, of one delete on every state the insert's
// failures leave, under Isb-Opt (crash.SweepAfter), where each single
// operation is a sync scope. The crash abandons the scope open;
// the recovery entry point must close it — deferral and write-back overlap
// together — so that recovery runs eager and the operations after it pay the
// pinned price.
func TestScopeCrashTeardown(t *testing.T) {
	syncs := func(h *pmem.Heap, f func()) uint64 {
		before := h.TotalStats().Syncs
		f()
		return h.TotalStats().Syncs - before
	}
	ops := []struct {
		name      string
		kind, key uint64
		want      []uint64
	}{
		{"insert", list.OpInsert, 20, []uint64{10, 20, 30}},
		{"delete", list.OpDelete, 30, []uint64{10, 20}},
	}
	crashes := 0
	for i, c := range ops {
		t.Run(c.name, func(t *testing.T) {
			crashes += crash.SweepAfter(t, func() []crash.Instance {
				h := pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: 1, Tracked: true})
				e := isb.NewEngineOpt(h)
				e.SetAnnounceID(1, isb.NewRecords(h))
				l := list.NewWithEngine(h, e)
				p := h.Proc(0)
				l.Insert(p, 10)
				l.Insert(p, 30)
				var steps []crash.Instance
				for _, c := range ops[:i+1] {
					steps = append(steps, crash.Instance{
						Heap: h,
						Run:  func() ([]uint64, error) { return []uint64{l.ApplyOp(p, c.kind, c.key)}, nil },
						Resolve: func() ([]uint64, error) {
							deferred, _ := e.Counters()
							resp := l.RecoverLeg(p, 0, c.kind, c.key)
							if after, _ := e.Counters(); after != deferred {
								return nil, fmt.Errorf("recovery deferred %d sync points, want it eager", after-deferred)
							}
							return []uint64{resp}, nil
						},
						Verify: func() string {
							if ks := l.Keys(); !slices.Equal(ks, c.want) {
								return fmt.Sprintf("keys %v, want %v", ks, c.want)
							}
							if msg := l.CheckInvariants(); msg != "" {
								return msg
							}
							if p.InSyncScope() {
								return "a sync scope is still open after recovery"
							}
							// The next operation is a whole scope again: its
							// begin defers, and one psync closes it.
							if got := syncs(h, func() { l.ApplyOp(p, list.OpInsert, 40) }); got != 1 {
								return fmt.Sprintf("the next update cost %d psyncs, want 1", got)
							}
							l.ApplyOp(p, list.OpDelete, 40)
							return ""
						},
						Individual: true,
					})
				}
				return steps
			}, []uint64{isb.RespTrue})
		})
	}
	if crashes < 50 {
		t.Fatalf("only %d crash points exercised; the sweep is not reaching inside the operations", crashes)
	}
}
