package queue

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/isb"
	"repro/internal/pmem"
)

func newQueue(t *testing.T, procs int) (*Queue, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: procs, Tracked: true})
	return NewWithEngine(h, isb.NewEngine(h)), h
}

// value decodes a dequeue response: ok is false on empty.
func value(r uint64) (uint64, bool) {
	if !isb.IsValue(r) {
		return 0, false
	}
	return isb.DecodeValue(r), true
}

func TestEmptyDequeue(t *testing.T) {
	q, h := newQueue(t, 1)
	p := h.Proc(0)
	if _, ok := value(q.ApplyOp(p, OpDeq, 0)); ok {
		t.Fatal("dequeue on empty queue succeeded")
	}
	if len(q.Values()) != 0 {
		t.Fatal("empty queue has nonzero length")
	}
}

func TestFIFOOrder(t *testing.T) {
	q, h := newQueue(t, 1)
	p := h.Proc(0)
	for v := uint64(1); v <= 100; v++ {
		q.ApplyOp(p, OpEnq, v)
	}
	if len(q.Values()) != 100 {
		t.Fatalf("Len = %d, want 100", len(q.Values()))
	}
	for v := uint64(1); v <= 100; v++ {
		got, ok := value(q.ApplyOp(p, OpDeq, 0))
		if !ok || got != v {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", got, ok, v)
		}
	}
	if _, ok := value(q.ApplyOp(p, OpDeq, 0)); ok {
		t.Fatal("queue should be drained")
	}
}

func TestInterleavedEnqDeq(t *testing.T) {
	q, h := newQueue(t, 1)
	p := h.Proc(0)
	q.ApplyOp(p, OpEnq, 1)
	q.ApplyOp(p, OpEnq, 2)
	if v, _ := value(q.ApplyOp(p, OpDeq, 0)); v != 1 {
		t.Fatalf("got %d, want 1", v)
	}
	q.ApplyOp(p, OpEnq, 3)
	if v, _ := value(q.ApplyOp(p, OpDeq, 0)); v != 2 {
		t.Fatalf("got %d, want 2", v)
	}
	if v, _ := value(q.ApplyOp(p, OpDeq, 0)); v != 3 {
		t.Fatalf("got %d, want 3", v)
	}
	if msg := q.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestValuesSnapshot(t *testing.T) {
	q, h := newQueue(t, 1)
	p := h.Proc(0)
	for _, v := range []uint64{5, 6, 7} {
		q.ApplyOp(p, OpEnq, v)
	}
	got := q.Values()
	if len(got) != 3 || got[0] != 5 || got[1] != 6 || got[2] != 7 {
		t.Fatalf("Values = %v", got)
	}
}

// TestConcurrentEnqueueDequeue: every enqueued value is dequeued exactly
// once across procs, and per-producer order is preserved (FIFO implies each
// producer's values are consumed in production order).
func TestConcurrentEnqueueDequeue(t *testing.T) {
	const procs = 4
	const perProc = 500
	q, h := newQueue(t, procs*2)
	var wg sync.WaitGroup
	consumed := make([][]uint64, procs)
	// Producers: proc i enqueues i*1e6 + j for j = 0.. (globally unique).
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			for j := 0; j < perProc; j++ {
				q.ApplyOp(p, OpEnq, uint64(id)*1_000_000+uint64(j))
			}
		}(id)
	}
	// Consumers.
	var drained sync.WaitGroup
	var total sync.Map
	for id := 0; id < procs; id++ {
		drained.Add(1)
		go func(id int) {
			defer drained.Done()
			p := h.Proc(procs + id)
			var got []uint64
			for len(got) < perProc {
				if v, ok := value(q.ApplyOp(p, OpDeq, 0)); ok {
					got = append(got, v)
					if _, dup := total.LoadOrStore(v, id); dup {
						t.Errorf("value %d dequeued twice", v)
						return
					}
				}
			}
			consumed[id] = got
		}(id)
	}
	wg.Wait()
	drained.Wait()
	if t.Failed() {
		return
	}
	// Per-producer order within each consumer's stream must be increasing.
	for cid, got := range consumed {
		lastSeen := map[uint64]uint64{}
		for _, v := range got {
			prod := v / 1_000_000
			seq := v % 1_000_000
			if last, ok := lastSeen[prod]; ok && seq < last {
				t.Fatalf("consumer %d saw producer %d out of order: %d after %d", cid, prod, seq, last)
			}
			lastSeen[prod] = seq
		}
	}
	if len(q.Values()) != 0 {
		t.Fatalf("queue not drained: %d left", len(q.Values()))
	}
	if msg := q.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestRecoverAfterCompletedOps(t *testing.T) {
	q, h := newQueue(t, 1)
	p := h.Proc(0)
	q.ApplyOp(p, OpEnq, 42)
	if r := q.RecoverLeg(p, 0, OpEnq, 42); r != isb.RespTrue {
		t.Fatalf("Recover(enq) = %d", r)
	}
	if len(q.Values()) != 1 {
		t.Fatalf("recover duplicated enqueue: len %d", len(q.Values()))
	}
	v, ok := value(q.ApplyOp(p, OpDeq, 0))
	if !ok || v != 42 {
		t.Fatalf("Dequeue = (%d,%v)", v, ok)
	}
	if r := q.RecoverLeg(p, 0, OpDeq, 0); r != isb.EncodeValue(42) {
		t.Fatalf("Recover(deq) = %d, want EncodeValue(42)", r)
	}
	if len(q.Values()) != 0 {
		t.Fatal("recover re-executed dequeue")
	}
}

func TestTailHintCatchesUp(t *testing.T) {
	q, h := newQueue(t, 2)
	p := h.Proc(0)
	for v := uint64(1); v <= 50; v++ {
		q.ApplyOp(p, OpEnq, v)
	}
	if msg := q.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	q, h := newQueue(t, 1)
	p := h.Proc(0)
	var model []uint64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		if rng.Intn(2) == 0 {
			v := uint64(i) + 1
			q.ApplyOp(p, OpEnq, v)
			model = append(model, v)
		} else {
			v, ok := value(q.ApplyOp(p, OpDeq, 0))
			if len(model) == 0 {
				if ok {
					t.Fatalf("op %d: dequeue non-empty on empty model", i)
				}
			} else {
				if !ok || v != model[0] {
					t.Fatalf("op %d: dequeue (%d,%v), want (%d,true)", i, v, ok, model[0])
				}
				model = model[1:]
			}
		}
	}
	if len(q.Values()) != len(model) {
		t.Fatalf("length mismatch: %d vs %d", len(q.Values()), len(model))
	}
}

// TestSharedQueueLosesNothing: two Procs each loop enqueue-then-dequeue on
// one queue, with no crashes. A Proc's own enqueue precedes its dequeue,
// so the queue is never empty at a dequeue and none may answer EMPTY; with
// as many dequeues as enqueues, nothing is left at the end. An enqueue that
// answers true without linking its node breaks both. The 100k pairs per
// Proc are split over ten fresh queues so that a heap of 2^22 words holds a
// round even if nothing is freed: the arena never frees, and the reclaimer
// drops retirements while the other Proc is descheduled inside an attempt.
func TestSharedQueueLosesNothing(t *testing.T) {
	const procs, pairs = 2, 10_000
	rounds := 10
	if testing.Short() {
		rounds = 2 // the race job's size
	}
	for _, tc := range []struct {
		name    string
		engine  func(*pmem.Heap) *isb.Engine
		reclaim bool
	}{
		{"isb/arena", isb.NewEngine, false},
		{"isb-opt/arena", isb.NewEngineOpt, false},
		{"isb/reclaim", isb.NewEngine, true},
		{"isb-opt/reclaim", isb.NewEngineOpt, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < rounds && !t.Failed(); round++ {
				h := pmem.NewHeap(pmem.Config{Words: 1 << 22, Procs: procs})
				e := tc.engine(h)
				if tc.reclaim {
					e.SetAllocator(pmem.NewReclaimer(h))
				}
				q := NewWithEngine(h, e)
				var wg sync.WaitGroup
				for id := 0; id < procs; id++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						p := h.Proc(id)
						for i := 0; i < pairs; i++ {
							q.ApplyOp(p, OpEnq, uint64(id)<<32|uint64(i))
							if _, ok := value(q.ApplyOp(p, OpDeq, 0)); !ok {
								t.Errorf("round %d proc %d pair %d: dequeue answered EMPTY right after its own enqueue", round, id, i)
								return
							}
						}
					}()
				}
				wg.Wait()
				if n := len(q.Values()); n != 0 {
					t.Errorf("round %d: %d values left after as many dequeues as enqueues", round, n)
				}
				if msg := q.CheckInvariants(); msg != "" {
					t.Errorf("round %d: %s", round, msg)
				}
			}
		})
	}
}
