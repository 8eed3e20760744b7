package dtlist

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

func newList(t *testing.T, procs int) (*List, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: procs, Tracked: true})
	return New(h), h
}

func TestBasicSemantics(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	if !l.Insert(p, 5) || l.Insert(p, 5) {
		t.Fatal("insert semantics")
	}
	if !l.Find(p, 5) || l.Find(p, 6) {
		t.Fatal("find semantics")
	}
	if !l.Delete(p, 5) || l.Delete(p, 5) {
		t.Fatal("delete semantics")
	}
}

func TestModelEquivalence(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 4000; i++ {
		k := uint64(rng.Intn(48) + 1)
		switch rng.Intn(3) {
		case 0:
			if l.Insert(p, k) != !model[k] {
				t.Fatalf("op %d insert(%d)", i, k)
			}
			model[k] = true
		case 1:
			if l.Delete(p, k) != model[k] {
				t.Fatalf("op %d delete(%d)", i, k)
			}
			delete(model, k)
		default:
			if l.Find(p, k) != model[k] {
				t.Fatalf("op %d find(%d)", i, k)
			}
		}
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestConcurrentConservation: under contention, for each key the net count
// of successful inserts minus successful deletes matches final presence.
func TestConcurrentConservation(t *testing.T) {
	const procs, perProc, keys = 6, 400, 8
	l, h := newList(t, procs)
	nets := make([]map[uint64]int, procs)
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		nets[id] = map[uint64]int{}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			rng := rand.New(rand.NewSource(int64(id + 7)))
			for i := 0; i < perProc; i++ {
				k := uint64(rng.Intn(keys) + 1)
				if rng.Intn(2) == 0 {
					if l.Insert(p, k) {
						nets[id][k]++
					}
				} else if l.Delete(p, k) {
					nets[id][k]--
				}
			}
		}(id)
	}
	wg.Wait()
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	total := map[uint64]int{}
	for _, m := range nets {
		for k, v := range m {
			total[k] += v
		}
	}
	present := map[uint64]bool{}
	for _, k := range l.Keys() {
		present[k] = true
	}
	for k := uint64(1); k <= keys; k++ {
		want := 0
		if present[k] {
			want = 1
		}
		if total[k] != want {
			t.Fatalf("key %d: net %d vs present %v", k, total[k], present[k])
		}
	}
}

// TestCrashSweepSingleProc crashes an insert, then a delete, then a find at
// every access, each on every state the ones before it leave, crashed at one
// offset or not (crash.SweepAfter), single process, so direct tracking's
// per-process detectability guarantees apply in full: recovery answers true,
// and the list holds what the operations leave.
func TestCrashSweepSingleProc(t *testing.T) {
	ops := []struct {
		name      string
		kind, key uint64
		apply     func(*List, *pmem.Proc, uint64) bool
		want      []uint64
	}{
		{"insert", OpInsert, 20, (*List).Insert, []uint64{10, 20, 30}},
		{"delete", OpDelete, 10, (*List).Delete, []uint64{20, 30}},
		{"find", OpFind, 20, (*List).Find, []uint64{20, 30}},
	}
	for i, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			crash.SweepAfter(t, func() []crash.Instance {
				h := pmem.NewHeap(pmem.Config{Words: 1 << 20, Procs: 1, Tracked: true})
				l := New(h)
				p := h.Proc(0)
				l.Insert(p, 10)
				l.Insert(p, 30)
				var steps []crash.Instance
				for _, op := range ops[:i+1] {
					steps = append(steps, crash.Instance{
						Heap:    h,
						Prepare: func() { l.Begin(p) },
						Run:     func() ([]uint64, error) { return crash.Bool(op.apply(l, p, op.key)) },
						Resolve: func() ([]uint64, error) { return crash.Bool(l.Recover(p, op.kind, op.key)) },
						Verify: func() string {
							if ks := l.Keys(); !slices.Equal(ks, op.want) {
								return fmt.Sprintf("keys %v, want %v", ks, op.want)
							}
							return l.CheckInvariants()
						},
					})
				}
				return steps
			}, []uint64{1})
		})
	}
}

func TestDeleteArbitrationLoser(t *testing.T) {
	// Two procs delete the same key: exactly one wins.
	for seed := 0; seed < 10; seed++ {
		l, h := newList(t, 2)
		p0 := h.Proc(0)
		l.Insert(p0, 5)
		var r0, r1 bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); r0 = l.Delete(h.Proc(0), 5) }()
		go func() { defer wg.Done(); r1 = l.Delete(h.Proc(1), 5) }()
		wg.Wait()
		if r0 == r1 {
			t.Fatalf("seed %d: both deletes returned %v", seed, r0)
		}
		if len(l.Keys()) != 0 {
			t.Fatalf("seed %d: key survived deletion", seed)
		}
	}
}

func TestRecoverAfterCompletion(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	l.Insert(p, 5)
	if !l.Recover(p, OpInsert, 5) {
		t.Fatal("recover after completed insert")
	}
	if n := len(l.Keys()); n != 1 {
		t.Fatalf("recover re-executed insert: %d keys", n)
	}
}
