package capsules

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

func newList(t *testing.T, procs int, v Variant) (*List, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 22, Procs: procs, Tracked: true})
	return New(h, v), h
}

func TestBasicSemanticsBothVariants(t *testing.T) {
	for _, v := range []Variant{General, Normalized} {
		l, h := newList(t, 1, v)
		p := h.Proc(0)
		if !l.Insert(p, 5) || l.Insert(p, 5) {
			t.Fatalf("variant %d: insert semantics", v)
		}
		if !l.Find(p, 5) || l.Find(p, 6) {
			t.Fatalf("variant %d: find semantics", v)
		}
		if !l.Delete(p, 5) || l.Delete(p, 5) {
			t.Fatalf("variant %d: delete semantics", v)
		}
	}
}

func TestModelEquivalence(t *testing.T) {
	l, h := newList(t, 1, Normalized)
	p := h.Proc(0)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(40) + 1)
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

func TestConcurrentConservation(t *testing.T) {
	const procs, perProc, keys = 6, 300, 8
	l, h := newList(t, procs, Normalized)
	nets := make([]map[uint64]int, procs)
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		nets[id] = map[uint64]int{}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			rng := rand.New(rand.NewSource(int64(id + 3)))
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

// TestCrashSweepSingleProc crashes an insert at every access and, after it,
// a delete at every access on every state the insert's crashes leave
// (crash.SweepAfter) under both variants: recovery answers true, and the list
// holds what the operations leave.
func TestCrashSweepSingleProc(t *testing.T) {
	ops := []struct {
		name      string
		kind, key uint64
		apply     func(*List, *pmem.Proc, uint64) bool
		want      []uint64
	}{
		{"insert", OpInsert, 20, (*List).Insert, []uint64{10, 20, 30}},
		{"delete", OpDelete, 10, (*List).Delete, []uint64{20, 30}},
	}
	for _, variant := range []Variant{General, Normalized} {
		for i, op := range ops {
			t.Run(fmt.Sprintf("variant=%d/%s", variant, op.name), func(t *testing.T) {
				crash.SweepAfter(t, func() []crash.Instance {
					h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: 1, Tracked: true})
					l := New(h, variant)
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
}

func TestGeneralVariantBarrierHeavy(t *testing.T) {
	// The General transform must issue far more barriers than Normalized —
	// that gap is the whole point of Figure 1's Capsules curve.
	count := func(v Variant) uint64 {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: 1})
		l := New(h, v)
		p := h.Proc(0)
		for k := uint64(1); k <= 50; k++ {
			l.Insert(p, k)
		}
		p.ResetStats()
		for k := uint64(1); k <= 50; k++ {
			l.Find(p, k)
		}
		return p.Stats().Barriers
	}
	g, n := count(General), count(Normalized)
	if g < 10*n+10 {
		t.Fatalf("General barriers (%d) not ≫ Normalized (%d)", g, n)
	}
}
