package logqueue

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

func newQ(t *testing.T, procs int) (*Queue, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: procs, Tracked: true})
	return New(h), h
}

func TestFIFO(t *testing.T) {
	q, h := newQ(t, 1)
	p := h.Proc(0)
	if _, ok := q.Dequeue(p); ok {
		t.Fatal("dequeue on empty")
	}
	for v := uint64(1); v <= 80; v++ {
		q.Enqueue(p, v)
	}
	for v := uint64(1); v <= 80; v++ {
		got, ok := q.Dequeue(p)
		if !ok || got != v {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", got, ok, v)
		}
	}
	if _, ok := q.Dequeue(p); ok {
		t.Fatal("not drained")
	}
}

func TestConcurrentNoDuplicates(t *testing.T) {
	const procs, perProc = 3, 300
	q, h := newQ(t, 2*procs)
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
		t.Fatalf("%d values dequeued, want %d", len(seen), procs*perProc)
	}
}

func TestCrashSweepEnqueue(t *testing.T) { sweepOne(t, []uint64{1}, false, RespTrue, []uint64{1, 2}) }

func TestCrashSweepDequeue(t *testing.T) {
	sweepOne(t, []uint64{7, 8}, true, EncodeValue(7), []uint64{8})
}

// sweepOne crashes an enqueue of 2 or a dequeue, on a queue holding prefill,
// at every access (crash.Sweep): recovery must answer want, and the queue
// then dequeue left, no element lost or duplicated.
func sweepOne(t *testing.T, prefill []uint64, dequeue bool, want uint64, left []uint64) {
	crash.SweepTest(t, func() crash.Instance {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 20, Procs: 1, Tracked: true})
		q := New(h)
		p := h.Proc(0)
		for _, v := range prefill {
			q.Enqueue(p, v)
		}
		return crash.Instance{
			Heap:    h,
			Prepare: func() { q.Begin(p) }, // system-side invocation step
			Run: func() ([]uint64, error) {
				if !dequeue {
					q.Enqueue(p, 2)
					return []uint64{RespTrue}, nil
				}
				if v, ok := q.Dequeue(p); ok {
					return []uint64{EncodeValue(v)}, nil
				}
				return []uint64{RespEmpty}, nil
			},
			Resolve: func() ([]uint64, error) {
				if dequeue {
					return []uint64{q.Recover(p, OpDeq)}, nil
				}
				return []uint64{q.RecoverEnqueue(p, 2)}, nil
			},
			Verify: func() string {
				var got []uint64
				for v, ok := q.Dequeue(p); ok; v, ok = q.Dequeue(p) {
					got = append(got, v)
				}
				if !slices.Equal(got, left) {
					return fmt.Sprintf("then dequeued %v, want %v", got, left)
				}
				return ""
			},
		}
	}, []uint64{want})
}

func TestRecoverAfterCompletion(t *testing.T) {
	q, h := newQ(t, 1)
	p := h.Proc(0)
	q.Enqueue(p, 3)
	if r := q.RecoverEnqueue(p, 3); r != RespTrue {
		t.Fatalf("recover enqueue = %d", r)
	}
	v, ok := q.Dequeue(p)
	if !ok || v != 3 {
		t.Fatalf("dequeue (%d,%v)", v, ok)
	}
	if r := q.Recover(p, OpDeq); r != EncodeValue(3) {
		t.Fatalf("recover dequeue = %d", r)
	}
	if _, ok := q.Dequeue(p); ok {
		t.Fatal("recovery duplicated an operation")
	}
}
