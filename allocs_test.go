package repro

import (
	"fmt"
	"testing"

	"repro/internal/stack"
)

// TestOpHotPathZeroAllocs pins zero steady-state Go allocations on the
// operation hot path, through the public Runtime so the announcement path
// is included: every Insert/Delete/Find on the list and the BST (and
// Enqueue/Dequeue, and Push/Pop on a stack with and without elimination)
// durably announces, runs its phases and persists, and none of it may
// allocate Go memory once scratch buffers (the batched engine's dirty
// slice, the barrier dedup line set) have grown to steady state. The
// simulated pmem arena does not count — its words come from pre-allocated
// slices — which is exactly the point: simulator overhead must not scale
// with operations. The eliminating stack runs on one Proc, so every exchange
// times out and falls back to the central stack: the pin covers the
// elimination step the operation surface (isb.Ops) runs between the begin
// sequence and the engine.
//
// The reclaim=true variants extend the pin over the whole reclamation hot
// path: free-stack pops in Alloc, ring appends in Retire, epoch pin
// enter/exit, and the periodic epoch advance + free sweep (the churn below
// crosses the ring's free threshold many times per AllocsPerRun window) —
// none of it may allocate Go memory either. Only the cold paths (carving a
// new slab, growing a ring behind a stalled epoch, the post-crash scan) are
// allowed to.
func TestOpHotPathZeroAllocs(t *testing.T) {
	for _, e := range engines() {
		for _, reclaim := range []bool{false, true} {
			e, reclaim := e, reclaim
			t.Run(fmt.Sprintf("%s/reclaim=%v", e.name, reclaim), func(t *testing.T) {
				rt := New(Config{Procs: 1, HeapWords: 1 << 22, Engine: e.kind, Reclaim: reclaim})
				p := rt.Proc(0)

				l := rt.NewList()
				b := rt.NewBST()
				q := rt.NewQueue()
				s := rt.NewStack(0)
				es := rt.NewStack(stack.DefaultElimSpins)
				// Warm-up: grow scratch buffers and touch every code path once.
				for k := uint64(1); k <= 64; k++ {
					l.Apply(p, Op{Kind: OpInsert, Arg: k})
					b.Apply(p, Op{Kind: OpInsert, Arg: k})
				}
				l.Apply(p, Op{Kind: OpDelete, Arg: 32})
				b.Apply(p, Op{Kind: OpDelete, Arg: 32})
				q.Apply(p, Op{Kind: OpEnq, Arg: 1})
				q.Apply(p, Op{Kind: OpDeq})
				s.Apply(p, Op{Kind: OpPush, Arg: 1})
				s.Apply(p, Op{Kind: OpPop})
				es.Apply(p, Op{Kind: OpPush, Arg: 1})
				es.Apply(p, Op{Kind: OpPop})
				// Warm the reclaimer past slab carving: churn one lap so the
				// pinned window reuses freed blocks instead of growing slabs.
				for k := uint64(100); k < 164; k++ {
					l.Apply(p, Op{Kind: OpInsert, Arg: k})
					l.Apply(p, Op{Kind: OpDelete, Arg: k})
					b.Apply(p, Op{Kind: OpInsert, Arg: k})
					b.Apply(p, Op{Kind: OpDelete, Arg: k})
					q.Apply(p, Op{Kind: OpEnq, Arg: k})
					q.Apply(p, Op{Kind: OpDeq})
					s.Apply(p, Op{Kind: OpPush, Arg: k})
					s.Apply(p, Op{Kind: OpPop})
					es.Apply(p, Op{Kind: OpPush, Arg: k})
					es.Apply(p, Op{Kind: OpPop})
				}

				check := func(name string, f func()) {
					t.Helper()
					if n := testing.AllocsPerRun(100, f); n != 0 {
						t.Errorf("%s: %.1f Go allocations per run, want 0", name, n)
					}
				}
				k := uint64(0)
				check("list insert/find/delete", func() {
					k++
					key := 100 + k%64
					l.Apply(p, Op{Kind: OpInsert, Arg: key})
					l.Apply(p, Op{Kind: OpFind, Arg: key})
					l.Apply(p, Op{Kind: OpDelete, Arg: key})
				})
				check("queue enq/deq", func() {
					q.Apply(p, Op{Kind: OpEnq, Arg: k})
					q.Apply(p, Op{Kind: OpDeq})
				})
				check("stack push/pop", func() {
					s.Apply(p, Op{Kind: OpPush, Arg: k})
					s.Apply(p, Op{Kind: OpPop})
				})
				check("bst insert/delete", func() {
					k++
					key := 100 + k%64
					b.Apply(p, Op{Kind: OpInsert, Arg: key})
					b.Apply(p, Op{Kind: OpDelete, Arg: key})
				})
				check("eliminating stack push/pop", func() {
					es.Apply(p, Op{Kind: OpPush, Arg: k})
					es.Apply(p, Op{Kind: OpPop})
				})
			})
		}
	}
}

// TestHashMapOpZeroAllocs extends the pin to the sharded hash map (shard
// routing, register write-back and all), with and without reclamation.
func TestHashMapOpZeroAllocs(t *testing.T) {
	for _, e := range engines() {
		for _, reclaim := range []bool{false, true} {
			e, reclaim := e, reclaim
			t.Run(fmt.Sprintf("%s/reclaim=%v", e.name, reclaim), func(t *testing.T) {
				rt := New(Config{Procs: 1, HeapWords: 1 << 22, Engine: e.kind, Reclaim: reclaim})
				p := rt.Proc(0)
				m := rt.NewHashMap(8)
				for k := uint64(1); k <= 64; k++ {
					m.Insert(p, k)
				}
				// Warm the reclaimer past slab carving: one full churn lap
				// so steady state serves from the free stacks.
				for k := uint64(100); k < 164; k++ {
					m.Insert(p, k)
					m.Apply(p, Op{Kind: OpDelete, Arg: k})
				}
				k := uint64(0)
				if n := testing.AllocsPerRun(100, func() {
					k++
					key := 100 + k%64
					m.Insert(p, key)
					m.Apply(p, Op{Kind: OpFind, Arg: key})
					m.Apply(p, Op{Kind: OpDelete, Arg: key})
				}); n != 0 {
					t.Errorf("hashmap insert/find/delete: %.1f Go allocations per run, want 0", n)
				}
			})
		}
	}
}

// TestReadFastPathZeroPersist pins the read fast path's twin guarantees
// through the public Runtime, on both engines with and without
// reclamation: a stand-alone read-only operation (list/map/BST Find, queue
// Peek, stack Top) performs zero Go allocations AND zero persistence
// instructions — no pbarrier, no stand-alone pwb, no psync. The mutating
// path pays an Info record, an announcement write-back and sync points per
// operation; the read path must pay literally nothing, which is what makes
// read-heavy workloads on the batched admission path approach volatile
// speed.
func TestReadFastPathZeroPersist(t *testing.T) {
	for _, e := range engines() {
		for _, reclaim := range []bool{false, true} {
			e, reclaim := e, reclaim
			t.Run(fmt.Sprintf("%s/reclaim=%v", e.name, reclaim), func(t *testing.T) {
				rt := New(Config{Procs: 1, HeapWords: 1 << 22, Engine: e.kind, Reclaim: reclaim})
				p := rt.Proc(0)
				l := rt.NewList()
				b := rt.NewBST()
				m := rt.NewHashMap(8)
				q := rt.NewQueue()
				s := rt.NewStack(0)
				for k := uint64(1); k <= 32; k++ {
					l.Apply(p, Op{Kind: OpInsert, Arg: k})
					b.Apply(p, Op{Kind: OpInsert, Arg: k})
					m.Insert(p, k)
				}
				q.Apply(p, Op{Kind: OpEnq, Arg: 7})
				s.Apply(p, Op{Kind: OpPush, Arg: 7})

				check := func(name string, f func()) {
					t.Helper()
					if n := testing.AllocsPerRun(100, f); n != 0 {
						t.Errorf("%s: %.1f Go allocations per run, want 0", name, n)
					}
					before := rt.Heap().TotalStats()
					for i := 0; i < 100; i++ {
						f()
					}
					after := rt.Heap().TotalStats()
					if after.Barriers != before.Barriers || after.Flushes != before.Flushes ||
						after.Syncs != before.Syncs {
						t.Errorf("%s: persistence instructions on the read path: +%d pbarriers +%d pwbs +%d psyncs over 100 runs",
							name, after.Barriers-before.Barriers, after.Flushes-before.Flushes,
							after.Syncs-before.Syncs)
					}
				}
				k := uint64(0)
				check("list find", func() { k++; l.Apply(p, Op{Kind: OpFind, Arg: 1 + k%64}) })
				check("bst find", func() { k++; b.Apply(p, Op{Kind: OpFind, Arg: 1 + k%64}) })
				check("hashmap find", func() { k++; m.Apply(p, Op{Kind: OpFind, Arg: 1 + k%64}) })
				check("queue peek", func() {
					if v, ok := q.Apply(p, Op{Kind: OpPeek}).Value(); !ok || v != 7 {
						t.Fatalf("peek = (%d, %v), want (7, true)", v, ok)
					}
				})
				check("stack top", func() {
					if v, ok := s.Apply(p, Op{Kind: OpTop}).Value(); !ok || v != 7 {
						t.Fatalf("top = (%d, %v), want (7, true)", v, ok)
					}
				})

				// The counter the fast path increments instead: every read
				// above must have been served by it.
				if _, rf, ok := rt.EngineCounters(l); !ok || rf == 0 {
					t.Errorf("list engine read-fast counter = %d (ok=%v), want > 0", rf, ok)
				}
			})
		}
	}
}

// TestEffectFreeUpdatesAllocateNothing pins what consecutive effect-free
// Isb-Opt updates cost the allocator in steady state: nothing. Such an
// attempt installs nothing, so its Info record stays with the engine for the
// process's next attempt: on the arena no word is carved, and on the
// reclaimer no block is handed out or freed, so no dead bit is read or
// written and the updates store and CAS nothing at all — alone (Apply) and
// in a window (ApplyWindow).
func TestEffectFreeUpdatesAllocateNothing(t *testing.T) {
	for _, reclaim := range []bool{false, true} {
		t.Run(fmt.Sprintf("reclaim=%v", reclaim), func(t *testing.T) {
			rt := New(Config{Procs: 1, CrashSim: true, HeapWords: 1 << 20, Engine: EngineIsbOpt, Reclaim: reclaim})
			p := rt.Proc(0)
			m := rt.NewHashMap(8)
			for k := uint64(1); k <= 32; k++ {
				m.Insert(p, k)
			}
			m.Apply(p, Op{Kind: OpInsert, Arg: 1}) // the engine keeps its record from here on
			before := rt.Heap().TotalStats()
			rec0, _ := rt.ReclaimStats()
			for k := uint64(1); k <= 32; k++ {
				m.Apply(p, Op{Kind: OpInsert, Arg: k})
				m.Apply(p, Op{Kind: OpDelete, Arg: 100 + k})
				rt.ApplyWindow(p, m, []Op{{Kind: OpInsert, Arg: k}, {Kind: OpDelete, Arg: 200 + k}})
			}
			d := rt.Heap().TotalStats().Sub(before)
			if d.AllocWords != 0 || d.Stores != 0 || d.CASes != 0 {
				t.Fatalf("128 effect-free updates: %+v, want no word carved, stored or CASed", d)
			}
			if rec, _ := rt.ReclaimStats(); rec != rec0 {
				t.Fatalf("128 effect-free updates moved the reclaimer: %+v, then %+v", rec0, rec)
			}
		})
	}
}
