package isb_test

import (
	"testing"

	"repro/internal/bst"
	"repro/internal/hashmap"
	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
	"repro/internal/queue"
	"repro/internal/stack"
)

// TestStrayTagFailsInvariants pins how narrow the quiescence check is, on
// every structure: an Isb-Opt update returns holding its update phase, its
// tags set on live nodes, and CheckInvariants accepts those tags; once no
// process holds the record (ForgetHold, a release that never ran), the same
// tags are stray and fail it.
func TestStrayTagFailsInvariants(t *testing.T) {
	type checked interface {
		ApplyOp(p *pmem.Proc, kind, arg uint64) uint64
		CheckInvariants() string
	}
	for _, c := range []struct {
		name       string
		build      func(h *pmem.Heap, e *isb.Engine) checked
		kind, a, b uint64
	}{
		{"list", func(h *pmem.Heap, e *isb.Engine) checked { return list.NewWithEngine(h, e) }, list.OpInsert, 10, 20},
		{"hashmap", func(h *pmem.Heap, e *isb.Engine) checked { return hashmap.NewWithEngine(h, e, 1) }, list.OpInsert, 10, 20},
		{"bst", func(h *pmem.Heap, e *isb.Engine) checked { return bst.NewWithEngine(h, e) }, bst.OpInsert, 10, 20},
		{"queue", func(h *pmem.Heap, e *isb.Engine) checked { return queue.NewWithEngine(h, e) }, queue.OpEnq, 10, 20},
		{"stack", func(h *pmem.Heap, e *isb.Engine) checked { return stack.NewWithEngine(h, e, 0) }, stack.OpPush, 10, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Words: 1 << 16, Procs: 1})
			e := isb.NewEngineOpt(h)
			e.SetAnnounceID(1, isb.NewRecords(h))
			s := c.build(h, e)
			p := h.Proc(0)
			s.ApplyOp(p, c.kind, c.a)
			s.ApplyOp(p, c.kind, c.b)
			if msg := s.CheckInvariants(); msg != "" {
				t.Fatalf("with the update held: %s", msg)
			}
			e.ForgetHold(p)
			if s.CheckInvariants() == "" {
				t.Fatal("the update's tags passed the invariant check with no process holding its record")
			}
		})
	}
}
