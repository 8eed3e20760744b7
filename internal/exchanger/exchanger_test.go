package exchanger

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/crash"
	"repro/internal/pmem"
)

func newEx(t *testing.T, procs int) (*Exchanger, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: procs, Tracked: true})
	return New(h), h
}

func TestTimeoutAborts(t *testing.T) {
	e, h := newEx(t, 1)
	p := h.Proc(0)
	if v, ok := e.Exchange(p, 7, Symmetric, 3); ok {
		t.Fatalf("lonely exchange succeeded with %d", v)
	}
	if !e.SlotFree() {
		t.Fatal("slot not cleaned after withdrawal")
	}
}

func TestColliderOnlyAbortsOnEmptySlot(t *testing.T) {
	e, h := newEx(t, 1)
	p := h.Proc(0)
	if _, ok := e.Exchange(p, 7, ColliderOnly, 3); ok {
		t.Fatal("collider succeeded with no waiter")
	}
	if !e.SlotFree() {
		t.Fatal("collider dirtied the slot")
	}
}

func TestPairedExchange(t *testing.T) {
	e, h := newEx(t, 2)
	var v0, v1 uint64
	var ok0, ok1 bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); v0, ok0 = e.Exchange(h.Proc(0), 100, Symmetric, 1<<20) }()
	go func() { defer wg.Done(); v1, ok1 = e.Exchange(h.Proc(1), 200, Symmetric, 1<<20) }()
	wg.Wait()
	if !ok0 || !ok1 {
		t.Fatalf("exchange failed: (%v,%v)", ok0, ok1)
	}
	if v0 != 200 || v1 != 100 {
		t.Fatalf("values crossed wrong: got %d,%d", v0, v1)
	}
	if !e.SlotFree() {
		t.Fatal("slot not cleared")
	}
}

func TestAsymmetricRoles(t *testing.T) {
	e, h := newEx(t, 2)
	var wv, cv uint64
	var wok, cok bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); wv, wok = e.Exchange(h.Proc(0), 1, WaiterOnly, 1<<20) }()
	go func() { defer wg.Done(); cv, cok = e.Exchange(h.Proc(1), 2, ColliderOnly, 1<<20) }()
	wg.Wait()
	if !wok || !cok || wv != 2 || cv != 1 {
		t.Fatalf("asymmetric exchange: waiter (%d,%v), collider (%d,%v)", wv, wok, cv, cok)
	}
}

func TestManyPairs(t *testing.T) {
	const pairs = 4
	e, h := newEx(t, 2*pairs)
	var wg sync.WaitGroup
	got := make([]uint64, 2*pairs)
	oks := make([]bool, 2*pairs)
	for i := 0; i < 2*pairs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], oks[i] = e.Exchange(h.Proc(i), uint64(1000+i), Symmetric, 1<<22)
		}(i)
	}
	wg.Wait()
	// Successful exchanges must form disjoint value pairs.
	matched := map[uint64]int{}
	nOK := 0
	for i, ok := range oks {
		if !ok {
			continue
		}
		nOK++
		matched[got[i]]++
		if got[i] == uint64(1000+i) {
			t.Fatalf("proc %d exchanged with itself", i)
		}
	}
	if nOK%2 != 0 {
		t.Fatalf("odd number of successful exchanges: %d", nOK)
	}
	for v, n := range matched {
		if n != 1 {
			t.Fatalf("value %d received by %d procs", v, n)
		}
	}
}

func TestRecoverAfterCompletedExchange(t *testing.T) {
	e, h := newEx(t, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); e.Exchange(h.Proc(0), 10, Symmetric, 1<<20) }()
	go func() { defer wg.Done(); e.Exchange(h.Proc(1), 20, Symmetric, 1<<20) }()
	wg.Wait()
	// Recovery after completion must report the same outcome, not redo it.
	v, ok := e.Recover(h.Proc(0), 10, Symmetric, 4, false)
	if !ok || v != 20 {
		t.Fatalf("Recover = (%d,%v), want (20,true)", v, ok)
	}
	v, ok = e.Recover(h.Proc(1), 20, Symmetric, 4, false)
	if !ok || v != 10 {
		t.Fatalf("Recover = (%d,%v), want (10,true)", v, ok)
	}
}

func TestRecoverAfterAbort(t *testing.T) {
	e, h := newEx(t, 1)
	p := h.Proc(0)
	e.Exchange(p, 5, Symmetric, 2) // aborts
	if _, ok := e.Recover(p, 5, Symmetric, 2, false); ok {
		t.Fatal("recover of aborted exchange reported success")
	}
}

// TestCrashSweepWaiterInstall crashes a lone waiter at every access while it
// installs and then times out (crash.Sweep); recovery (retry=false) must
// abort cleanly and leave the slot reusable.
func TestCrashSweepWaiterInstall(t *testing.T) {
	crash.SweepTest(t, func() crash.Instance {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
		e := New(h)
		p := h.Proc(0)
		exchanged := func(_ uint64, ok bool) ([]uint64, error) {
			if ok {
				return nil, errors.New("lonely exchange succeeded")
			}
			return nil, nil
		}
		return crash.Instance{
			Heap:    h,
			Run:     func() ([]uint64, error) { return exchanged(e.Exchange(p, 9, Symmetric, 2)) },
			Resolve: func() ([]uint64, error) { return exchanged(e.Recover(p, 9, Symmetric, 2, false)) },
			// The slot must be usable afterwards: another lonely exchange
			// must install, time out and withdraw cleanly.
			Verify: func() string {
				if v, ok := e.Exchange(p, 11, Symmetric, 2); ok {
					return fmt.Sprintf("second lonely exchange succeeded with %d", v)
				}
				if !e.SlotFree() {
					return "slot left dirty"
				}
				return ""
			},
		}
	}, nil)
}

func TestCrashSweepCollision(t *testing.T) {
	// Proc 0 installs; proc 1 collides with a crash injected at every
	// offset. After recovery both sides must agree on the outcome.
	for offset := uint64(1); offset <= 30; offset++ {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 2, Tracked: true})
		e := New(h)
		p0, p1 := h.Proc(0), h.Proc(1)

		var w0 uint64
		var ok0, crashed0 bool
		done0 := make(chan struct{})
		go func() {
			defer close(done0)
			crashed0 = !pmem.RunOp(func() { w0, ok0 = e.Exchange(p0, 100, WaiterOnly, 1<<24) })
		}()
		// Wait until p0's ExInfo occupies the slot.
		for e.SlotFree() {
			runtime.Gosched()
		}

		h.ScheduleCrashAt(h.AccessCount() + offset)
		var w1 uint64
		var ok1 bool
		crashed1 := !pmem.RunOp(func() { w1, ok1 = e.Exchange(p1, 200, ColliderOnly, 4) })
		<-done0 // p0 either finished or crashed (the crash flag stops its spin)
		if crashed0 || crashed1 {
			h.ResetAfterCrash()
			if crashed1 {
				w1, ok1 = e.Recover(p1, 200, ColliderOnly, 4, false)
			}
			if crashed0 {
				w0, ok0 = e.Recover(p0, 100, WaiterOnly, 4, false)
			}
		}
		if ok1 != ok0 {
			t.Fatalf("offset %d: outcome disagreement waiter=%v collider=%v (crashed0=%v crashed1=%v)",
				offset, ok0, ok1, crashed0, crashed1)
		}
		if ok1 && (w1 != 100 || w0 != 200) {
			t.Fatalf("offset %d: wrong values waiter=%d collider=%d", offset, w0, w1)
		}
	}
}

// TestRecoverRacesCollider runs a collider at every access of a crashed
// waiter's recovery, from the heap's access hook: the waiter crashed in its
// wait loop, its record installed and durable, so until its withdrawal lands
// the collider can still win it. Both sides must agree on the outcome, and a
// collision must swap the values.
func TestRecoverRacesCollider(t *testing.T) {
	for k := 1; ; k++ {
		e, h := newEx(t, 2)
		p0, p1 := h.Proc(0), h.Proc(1)
		h.ScheduleCrashAt(h.AccessCount() + 64)
		if pmem.RunOp(func() { e.Exchange(p0, 100, WaiterOnly, 1<<10) }) {
			t.Fatal("the waiter did not crash")
		}
		h.ResetAfterCrash()
		if e.SlotFree() {
			t.Fatal("the waiter crashed before its record was durably installed")
		}
		var cv uint64
		var cok, ran bool
		n := 0
		h.SetAccessHook(func(*pmem.Proc) {
			if n++; n == k {
				h.SetAccessHook(nil)
				cv, cok = e.Exchange(p1, 200, ColliderOnly, 4)
				ran = true
			}
		})
		wv, wok := e.Recover(p0, 100, WaiterOnly, 4, false)
		h.SetAccessHook(nil)
		if !ran {
			return
		}
		if wok != cok || wok && (wv != 200 || cv != 100) {
			t.Fatalf("collider at recovery access %d: waiter (%d, %v), collider (%d, %v)", k, wv, wok, cv, cok)
		}
	}
}
