package stack

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/isb"
	"repro/internal/pmem"
)

func newStack(t *testing.T, procs, spins int) (*Stack, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: procs, Tracked: true})
	return NewWithEngine(h, isb.NewEngine(h), spins), h
}

// value decodes a pop response: ok is false on empty.
func value(r uint64) (uint64, bool) {
	if !isb.IsValue(r) {
		return 0, false
	}
	return isb.DecodeValue(r), true
}

func TestEmptyPop(t *testing.T) {
	s, h := newStack(t, 1, 0)
	p := h.Proc(0)
	if _, ok := value(s.ApplyOp(p, OpPop, 0)); ok {
		t.Fatal("pop on empty stack succeeded")
	}
}

func TestLIFOOrder(t *testing.T) {
	s, h := newStack(t, 1, 0)
	p := h.Proc(0)
	for v := uint64(1); v <= 50; v++ {
		s.ApplyOp(p, OpPush, v)
	}
	for v := uint64(50); v >= 1; v-- {
		got, ok := value(s.ApplyOp(p, OpPop, 0))
		if !ok || got != v {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", got, ok, v)
		}
	}
	if _, ok := value(s.ApplyOp(p, OpPop, 0)); ok {
		t.Fatal("stack should be empty")
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestValuesSnapshot(t *testing.T) {
	s, h := newStack(t, 1, 0)
	p := h.Proc(0)
	s.ApplyOp(p, OpPush, 1)
	s.ApplyOp(p, OpPush, 2)
	s.ApplyOp(p, OpPush, 3)
	got := s.Values()
	if len(got) != 3 || got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("Values = %v, want [3 2 1]", got)
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	s, h := newStack(t, 1, 0)
	p := h.Proc(0)
	var model []uint64
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 4000; i++ {
		if rng.Intn(2) == 0 {
			v := uint64(i) + 1
			s.ApplyOp(p, OpPush, v)
			model = append(model, v)
		} else {
			v, ok := value(s.ApplyOp(p, OpPop, 0))
			if len(model) == 0 {
				if ok {
					t.Fatalf("op %d: pop on empty model returned %d", i, v)
				}
			} else {
				want := model[len(model)-1]
				if !ok || v != want {
					t.Fatalf("op %d: Pop = (%d,%v), want (%d,true)", i, v, ok, want)
				}
				model = model[:len(model)-1]
			}
		}
	}
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestConcurrentPushPop checks conservation under concurrency (with
// elimination enabled): every pushed value is popped at most once, and
// pushed-but-not-popped values remain on the stack.
func TestConcurrentPushPop(t *testing.T) {
	const procs = 4
	const perProc = 300
	s, h := newStack(t, 2*procs, DefaultElimSpins)
	var wg sync.WaitGroup
	popped := make([][]uint64, procs)
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			for j := 0; j < perProc; j++ {
				s.ApplyOp(p, OpPush, uint64(id)*1_000_000+uint64(j)+1)
			}
		}(id)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(procs + id)
			for j := 0; j < perProc; j++ {
				if v, ok := value(s.ApplyOp(p, OpPop, 0)); ok {
					popped[id] = append(popped[id], v)
				}
			}
		}(id)
	}
	wg.Wait()
	if msg := s.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	seen := map[uint64]bool{}
	for _, ps := range popped {
		for _, v := range ps {
			if seen[v] {
				t.Fatalf("value %d popped twice", v)
			}
			seen[v] = true
		}
	}
	rest := s.Values()
	for _, v := range rest {
		if seen[v] {
			t.Fatalf("value %d popped and still on stack", v)
		}
		seen[v] = true
	}
	if len(seen) != procs*perProc {
		t.Fatalf("conservation: %d values accounted, want %d", len(seen), procs*perProc)
	}
}

func TestEliminationPairs(t *testing.T) {
	// With a large elimination window and one pusher + one popper, at least
	// some operations should eliminate; regardless, outcomes must be
	// consistent.
	s, h := newStack(t, 2, 1<<16)
	var wg sync.WaitGroup
	var got []uint64
	wg.Add(2)
	go func() {
		defer wg.Done()
		p := h.Proc(0)
		for v := uint64(1); v <= 50; v++ {
			s.ApplyOp(p, OpPush, v)
		}
	}()
	go func() {
		defer wg.Done()
		p := h.Proc(1)
		for i := 0; i < 50; i++ {
			if v, ok := value(s.ApplyOp(p, OpPop, 0)); ok {
				got = append(got, v)
			}
		}
	}()
	wg.Wait()
	seen := map[uint64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	for _, v := range s.Values() {
		if seen[v] {
			t.Fatalf("value %d popped and still present", v)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("%d values accounted, want 50", len(seen))
	}
}

func TestRecoverAfterCompletedOps(t *testing.T) {
	s, h := newStack(t, 1, 0)
	p := h.Proc(0)
	s.ApplyOp(p, OpPush, 9)
	if r := s.RecoverLeg(p, 0, OpPush, 9); r != isb.RespTrue {
		t.Fatalf("Recover(push) = %d", r)
	}
	if n := len(s.Values()); n != 1 {
		t.Fatalf("recover duplicated push: %d values", n)
	}
	v, ok := value(s.ApplyOp(p, OpPop, 0))
	if !ok || v != 9 {
		t.Fatalf("Pop = (%d,%v)", v, ok)
	}
	if r := s.RecoverLeg(p, 0, OpPop, 0); r != isb.EncodeValue(9) {
		t.Fatalf("Recover(pop) = %d", r)
	}
	if len(s.Values()) != 0 {
		t.Fatal("recover re-executed pop")
	}
}
