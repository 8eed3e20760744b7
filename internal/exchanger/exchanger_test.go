package exchanger

import (
	"errors"
	"fmt"
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
			Verify:  slotUsable(e, p),
		}
	}, nil)
}

// collider is Proc 1's ColliderOnly exchange of 200 as a preemption of Proc
// 0's exchange of 100 (crash.Preempt), recovered by resolve if a crash cut it
// short, and run after Proc 0's recovery if the crash came before it. check
// holds Proc 0's outcome, got (crash.Bool's, then the value), to Proc 1's:
// both succeed, the values swapped, or both abort.
type collider struct {
	e         *Exchanger
	p         *pmem.Proc
	v         uint64
	ok        bool
	ran, done bool
}

func (c *collider) op() {
	c.ran = true
	c.v, c.ok = c.e.Exchange(c.p, 200, ColliderOnly, 4)
	c.done = true
}

// resolve recovers Proc 1 before Proc 0 (recover0) and runs it after, if the
// crash came first.
func (c *collider) resolve(recover0 func() (uint64, bool)) ([]uint64, error) {
	if c.ran && !c.done {
		c.v, c.ok = c.e.Recover(c.p, 200, ColliderOnly, 4, false)
	}
	got, err := outcome(recover0())
	if !c.ran {
		c.op()
	}
	return got, err
}

func (c *collider) check(got []uint64) error {
	if wok := got[0] == 1; wok != c.ok || wok && (got[1] != 200 || c.v != 100) {
		return fmt.Errorf("waiter (%d, %v), collider (%d, %v)", got[1], wok, c.v, c.ok)
	}
	return nil
}

// outcome is an exchange's outcome as a response vector.
func outcome(v uint64, ok bool) ([]uint64, error) {
	got, err := crash.Bool(ok)
	return append(got, v), err
}

// slotUsable is the post-state every crash sweep here holds: the slot is
// usable, though a withdrawn record may still sit in it. Another lonely
// exchange, by p, must install, time out and withdraw cleanly.
func slotUsable(e *Exchanger, p *pmem.Proc) func() string {
	return func() string {
		if v, ok := e.Exchange(p, 11, Symmetric, 2); ok {
			return fmt.Sprintf("a lonely exchange succeeded with %d", v)
		}
		if !e.SlotFree() {
			return "slot left dirty"
		}
		return ""
	}
}

// TestCrashSweepCollision runs a collider at every access of a waiter's
// exchange (crash.Preempt) and, at each access after the waiter's install
// (its first CAS), crashes the preempted run at every access, the
// collider's included. After recovery both sides must agree on the outcome,
// a collision must swap the values, and the slot must be usable.
func TestCrashSweepCollision(t *testing.T) {
	crash.SweepTest(t, func() crash.Instance {
		e, h := newEx(t, 2)
		p0 := h.Proc(0)
		c := &collider{e: e, p: h.Proc(1)}
		return crash.Instance{
			Heap: h,
			Run:  func() ([]uint64, error) { return outcome(e.Exchange(p0, 100, WaiterOnly, 4)) },
			Resolve: func() ([]uint64, error) {
				return c.resolve(func() (uint64, bool) { return e.Recover(p0, 100, WaiterOnly, 4, false) })
			},
			Verify: slotUsable(e, p0),
			Preempt: &crash.Preempt{
				Op:    c.op,
				Check: c.check,
				Cross: func(st pmem.Stats) bool { return st.CASes >= 1 },
			},
		}
	}, nil)
}

// TestRecoverRacesCollider runs a collider at every access of a crashed
// waiter's recovery (crash.Preempt): the waiter crashed in its wait loop, its
// record installed and durable, so until its withdrawal lands the collider
// can still win it. Both sides must agree on the outcome, a collision must
// swap the values, and the slot must be usable.
func TestRecoverRacesCollider(t *testing.T) {
	crash.SweepTest(t, func() crash.Instance {
		e, h := newEx(t, 2)
		p0 := h.Proc(0)
		c := &collider{e: e, p: h.Proc(1)}
		return crash.Instance{
			Heap: h,
			Prepare: func() {
				h.ScheduleCrashAt(h.AccessCount() + 64)
				if pmem.RunOp(func() { e.Exchange(p0, 100, WaiterOnly, 1<<10) }) {
					panic("the waiter did not crash")
				}
				h.ResetAfterCrash()
				if e.SlotFree() {
					panic("the waiter crashed before its record was durably installed")
				}
			},
			Run:    func() ([]uint64, error) { return outcome(e.Recover(p0, 100, WaiterOnly, 4, false)) },
			Verify: slotUsable(e, p0),
			Preempt: &crash.Preempt{
				Op:    c.op,
				Check: c.check,
			},
		}
	}, nil)
}
