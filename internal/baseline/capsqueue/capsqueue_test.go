package capsqueue

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

func newQ(t *testing.T, procs int, v Variant) (*Queue, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 22, Procs: procs, Tracked: true})
	return New(h, v), h
}

func TestFIFOBothVariants(t *testing.T) {
	for _, variant := range []Variant{General, Normal} {
		q, h := newQ(t, 1, variant)
		p := h.Proc(0)
		if _, ok := q.Dequeue(p); ok {
			t.Fatalf("variant %d: dequeue on empty", variant)
		}
		for v := uint64(1); v <= 60; v++ {
			q.Enqueue(p, v)
		}
		for v := uint64(1); v <= 60; v++ {
			got, ok := q.Dequeue(p)
			if !ok || got != v {
				t.Fatalf("variant %d: Dequeue = (%d,%v), want (%d,true)", variant, got, ok, v)
			}
		}
	}
}

func TestConcurrentNoDuplicates(t *testing.T) {
	const procs, perProc = 3, 200
	q, h := newQ(t, 2*procs, Normal)
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[uint64]bool{}
	for id := 0; id < procs; id++ {
		wg.Add(2)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			for j := 0; j < perProc; j++ {
				q.Enqueue(p, uint64(id)*1_000_000+uint64(j)+1)
			}
		}(id)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(procs + id)
			got := 0
			for got < perProc {
				if v, ok := q.Dequeue(p); ok {
					mu.Lock()
					dup := seen[v]
					seen[v] = true
					mu.Unlock()
					if dup {
						t.Errorf("value %d dequeued twice", v)
						return
					}
					got++
				}
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(seen) != procs*perProc {
		t.Fatalf("%d dequeued, want %d", len(seen), procs*perProc)
	}
}

// TestCrashSweepBothOps crashes an enqueue at every access and, after it, a
// dequeue at every access on every state the enqueue's crashes leave
// (crash.SweepAfter) under both variants: recovery answers what the
// operation would have, the queue holds what is left, and the swept one then
// dequeues it.
func TestCrashSweepBothOps(t *testing.T) {
	ops := []struct {
		name      string
		kind, arg uint64
		want      uint64
		left      []uint64
	}{
		{"enqueue", OpEnq, 2, RespTrue, []uint64{1, 2}},
		{"dequeue", OpDeq, 0, EncodeValue(1), []uint64{2}},
	}
	for _, variant := range []Variant{General, Normal} {
		for i, op := range ops {
			t.Run(fmt.Sprintf("variant=%d/%s", variant, op.name), func(t *testing.T) {
				crash.SweepAfter(t, func() []crash.Instance {
					h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: 1, Tracked: true})
					q := New(h, variant)
					p := h.Proc(0)
					q.Enqueue(p, 1)
					var steps []crash.Instance
					for k, op := range ops[:i+1] {
						steps = append(steps, crash.Instance{
							Heap:    h,
							Prepare: func() { q.Begin(p) }, // system-side invocation step
							Run: func() ([]uint64, error) {
								if op.kind == OpEnq {
									q.Enqueue(p, op.arg)
									return []uint64{RespTrue}, nil
								}
								if v, ok := q.Dequeue(p); ok {
									return []uint64{EncodeValue(v)}, nil
								}
								return []uint64{RespEmpty}, nil
							},
							Resolve: func() ([]uint64, error) { return []uint64{q.Recover(p, op.kind, op.arg)}, nil },
							Verify: func() string {
								vs := q.Values()
								if !slices.Equal(vs, op.left) {
									return fmt.Sprintf("queue holds %v, want %v", vs, op.left)
								}
								if k < i {
									return "" // the swept operation still runs on it
								}
								var got []uint64
								for v, ok := q.Dequeue(p); ok; v, ok = q.Dequeue(p) {
									got = append(got, v)
								}
								if !slices.Equal(got, op.left) {
									return fmt.Sprintf("then dequeued %v, want %v", got, op.left)
								}
								return ""
							},
						})
					}
					return steps
				}, []uint64{op.want})
			})
		}
	}
}
