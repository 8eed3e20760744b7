package pmem

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func newTracked(t *testing.T, procs int) *Heap {
	t.Helper()
	return NewHeap(Config{Words: 1 << 16, Procs: procs, Tracked: true})
}

func TestAllocEvenAlignedAndDistinct(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	seen := map[Addr]bool{}
	for i := 0; i < 1000; i++ {
		a := p.Alloc(3)
		if a == Null {
			t.Fatal("Alloc returned Null")
		}
		if a%2 != 0 {
			t.Fatalf("Alloc returned odd address %d", a)
		}
		if seen[a] {
			t.Fatalf("Alloc returned duplicate address %d", a)
		}
		seen[a] = true
	}
}

func TestAllocConcurrentDisjoint(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 20, Procs: 8, Tracked: false})
	var mu sync.Mutex
	all := map[Addr]int{}
	var wg sync.WaitGroup
	for id := 0; id < 8; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			local := make([]Addr, 0, 2000)
			for i := 0; i < 2000; i++ {
				local = append(local, p.Alloc(5))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, a := range local {
				if prev, dup := all[a]; dup {
					t.Errorf("address %d allocated by both proc %d and %d", a, prev, id)
					return
				}
				all[a] = id
			}
		}(id)
	}
	wg.Wait()
}

func TestStoreLoadCAS(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 7)
	if got := p.Load(a); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	if got := p.CAS(a, 7, 9); got != 7 {
		t.Fatalf("successful CAS returned %d, want read value 7", got)
	}
	if got := p.Load(a); got != 9 {
		t.Fatalf("after CAS Load = %d, want 9", got)
	}
	if got := p.CAS(a, 7, 11); got != 9 {
		t.Fatalf("failed CAS returned %d, want current value 9", got)
	}
	if got := p.Load(a); got != 9 {
		t.Fatalf("failed CAS mutated value: %d", got)
	}
}

func TestUnpersistedWriteLostAtCrash(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 1)
	p.PWB(a)
	p.PSync()
	p.Store(a, 2) // never flushed

	h.Crash()
	crashed := !RunOp(func() { p.Load(a) })
	if !crashed {
		t.Fatal("proc did not observe the crash")
	}
	h.ResetAfterCrash()
	if got := p.Load(a); got != 1 {
		t.Fatalf("after crash value = %d, want persisted 1", got)
	}
}

func TestPWBSynchronouslyDurable(t *testing.T) {
	// PWB models the paper's clflush: the line is written back before the
	// process continues, so a PWB'd store survives a crash even without a
	// following PSync.
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 5)
	p.PWB(a)

	h.Crash()
	RunOp(func() { p.Load(a) })
	h.ResetAfterCrash()
	if got := p.Load(a); got != 5 {
		t.Fatalf("PWB'd value lost at crash: %d", got)
	}
}

func TestPSyncPersistsWholeLine(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	base := p.Alloc(WordsPerLine)
	base = lineOf(base + WordsPerLine - 1) // a fully owned line
	for i := Addr(0); i < WordsPerLine; i++ {
		p.Store(base+i, uint64(100+i))
	}
	p.PWB(base) // one pwb covers the whole cache line
	p.PSync()
	for i := Addr(0); i < WordsPerLine; i++ {
		if got := h.ReadPersisted(base + i); got != uint64(100+i) {
			t.Fatalf("word %d persisted %d, want %d", i, got, 100+i)
		}
	}
}

func TestPWBCapturesValueAtFlushTime(t *testing.T) {
	// A store after the PWB is not covered by it (clflush semantics): the
	// persisted image holds the value at flush time.
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 1)
	p.PWB(a)
	p.Store(a, 2)
	p.PSync()
	if got := h.ReadPersisted(a); got != 1 {
		t.Fatalf("persisted %d, want 1 (flush-time value)", got)
	}
}

func TestPrivateCacheImmediatelyDurable(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 1, Tracked: true, Model: PrivateCache})
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 42)
	if got := h.ReadPersisted(a); got != 42 {
		t.Fatalf("private-cache store not durable: persisted %d", got)
	}
	s0 := p.Stats()
	p.PWB(a)
	p.PSync()
	p.PBarrier(a)
	d := p.Stats().Sub(s0)
	if d.Flushes != 0 || d.Syncs != 0 || d.Barriers != 0 {
		t.Fatalf("private-cache persistence instructions counted: %+v", d)
	}
}

func TestCrashLosesOnlyUnflushedState(t *testing.T) {
	h := newTracked(t, 2)
	p0, p1 := h.Proc(0), h.Proc(1)
	a := p0.Alloc(WordsPerLine) // own line
	b := p0.Alloc(WordsPerLine) // own line
	p0.Store(a, 1)
	p0.PWB(a)      // durable
	p1.Store(b, 2) // never flushed: lost

	h.Crash()
	RunOp(func() { p0.Load(a) })
	RunOp(func() { p1.Load(b) })
	h.ResetAfterCrash()

	if got := h.ReadVolatile(a); got != 1 {
		t.Fatalf("flushed word lost: %d", got)
	}
	if got := h.ReadVolatile(b); got != 0 {
		t.Fatalf("unflushed word survived: %d", got)
	}
	// After reset, procs run again and can persist normally.
	p0.Store(a, 3)
	p0.PWB(a)
	p0.PSync()
	if got := h.ReadPersisted(a); got != 3 {
		t.Fatalf("post-crash persist failed: %d", got)
	}
}

func TestCrashPanicsOncePerProc(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	h.Crash()
	if RunOp(func() { p.Store(a, 1) }) {
		t.Fatal("op completed during crash")
	}
	// The same proc does not re-panic before reset (it already unwound);
	// this lets recovery code of *other* heaps proceed and simplifies the
	// controller. After reset it runs normally.
	if !RunOp(func() { _ = p.crashed }) {
		t.Fatal("unexpected second panic")
	}
	h.ResetAfterCrash()
	if !RunOp(func() { p.Store(a, 2) }) {
		t.Fatal("op failed after reset")
	}
}

func TestStatsCounting(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 1})
	p := h.Proc(0)
	a := p.Alloc(2)
	p.Store(a, 1)
	p.Load(a)
	p.CAS(a, 1, 2)
	p.PWB(a)
	p.PSync()
	p.PBarrier(a, a+1) // same cache line: 1 barrier, 1 fence
	p.PFence()
	s := p.Stats()
	if s.Stores != 1 || s.Loads != 1 || s.CASes != 1 {
		t.Fatalf("primitive counts wrong: %+v", s)
	}
	if s.Flushes != 1 {
		t.Fatalf("stand-alone flushes = %d, want 1 (barrier pwbs excluded)", s.Flushes)
	}
	if s.Barriers != 1 {
		t.Fatalf("barriers = %d, want 1", s.Barriers)
	}
	if s.Syncs != 1 {
		t.Fatalf("syncs = %d, want 1", s.Syncs)
	}
	if s.Fences != 2 { // one inside the barrier, one explicit
		t.Fatalf("fences = %d, want 2", s.Fences)
	}
}

func TestEvictionPersistsWithoutFlush(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 1, Tracked: true, EvictEvery: 1, Seed: 1})
	p := h.Proc(0)
	a := p.Alloc(1)
	p.Store(a, 9) // EvictEvery=1 persists every store
	if got := h.ReadPersisted(a); got != 9 {
		t.Fatalf("eviction did not persist: %d", got)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestPersistedNeverAheadWithoutWriteback(t *testing.T) {
	// Property: with no PWB/PSync and no eviction, the persisted image of a
	// word stays at its last explicitly persisted value no matter the
	// volatile history.
	h := newTracked(t, 1)
	p := h.Proc(0)
	f := func(vals []uint64) bool {
		a := p.Alloc(1)
		for _, v := range vals {
			p.Store(a, v)
		}
		return h.ReadPersisted(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFlushSyncIdempotent(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	f := func(v uint64, repeats uint8) bool {
		a := p.Alloc(1)
		p.Store(a, v)
		for i := 0; i <= int(repeats%5); i++ {
			p.PWB(a)
			p.PSync()
		}
		return h.ReadPersisted(a) == v && h.ReadVolatile(a) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCASLinearizes(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 4})
	a := h.Proc(0).Alloc(1)
	const perProc = 10000
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			for i := 0; i < perProc; i++ {
				for {
					old := p.Load(a)
					if p.CASBool(a, old, old+1) {
						break
					}
				}
			}
		}(id)
	}
	wg.Wait()
	if got := h.ReadVolatile(a); got != 4*perProc {
		t.Fatalf("counter = %d, want %d", got, 4*perProc)
	}
}

func TestModelString(t *testing.T) {
	if SharedCache.String() != "shared-cache" || PrivateCache.String() != "private-cache" {
		t.Fatal("Model.String broken")
	}
	if Model(9).String() == "" {
		t.Fatal("unknown model should still format")
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct{ in, want Addr }{{0, 0}, {7, 0}, {8, 8}, {15, 8}, {16, 16}}
	for _, c := range cases {
		if got := lineOf(c.in); got != c.want {
			t.Fatalf("lineOf(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSpinItersPositive(t *testing.T) {
	if spinIters(0) != 0 {
		t.Fatal("zero duration should not spin")
	}
	if spinIters(DefaultPWBLatency) < 1 {
		t.Fatal("calibration produced non-positive spin count")
	}
}

func TestScheduleSelfCrashIndividualFailure(t *testing.T) {
	h := newTracked(t, 2)
	p0, p1 := h.Proc(0), h.Proc(1)
	a := p0.Alloc(1)
	b := p0.Alloc(1)
	p0.ScheduleSelfCrash(3)
	crashed := !RunOp(func() {
		p0.Store(a, 1) // access 1
		p0.Store(a, 2) // access 2
		p0.Store(a, 3) // access 3: crash fires here
		p0.Store(a, 4) // never reached
	})
	if !crashed {
		t.Fatal("individual crash did not fire")
	}
	// Other processes are unaffected — no system-wide crash in progress.
	if h.Crashing() {
		t.Fatal("individual failure escalated to a system crash")
	}
	if !RunOp(func() { p1.Store(b, 9) }) {
		t.Fatal("survivor was crashed too")
	}
	// The failed process resumes immediately (no Restart needed).
	if !RunOp(func() { p0.Store(a, 5) }) {
		t.Fatal("failed process could not resume")
	}
	if got := h.ReadVolatile(a); got != 5 {
		t.Fatalf("a = %d", got)
	}
}

func TestCancelSelfCrash(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	p.ScheduleSelfCrash(2)
	p.CancelSelfCrash()
	if !RunOp(func() { p.Store(a, 1); p.Store(a, 2); p.Store(a, 3) }) {
		t.Fatal("cancelled self-crash still fired")
	}
}

func TestDisarmCrash(t *testing.T) {
	h := newTracked(t, 1)
	p := h.Proc(0)
	a := p.Alloc(1)
	h.ScheduleCrashAt(h.AccessCount() + 2)
	h.DisarmCrash()
	if !RunOp(func() { p.Store(a, 1); p.Store(a, 2); p.Store(a, 3) }) {
		t.Fatal("disarmed crash still fired")
	}
}

// TestSyncScopeClosesOnWriteBacks pins what closing a sync scope costs: a
// scope in which nothing was written back closes without a psync — there is
// nothing for it to order — and one with a single write-back, a stand-alone
// pwb or a barrier, closes with exactly one.
func TestSyncScopeClosesOnWriteBacks(t *testing.T) {
	for _, c := range []struct {
		name  string
		body  func(p *Proc, a Addr)
		syncs uint64
	}{
		{"empty", func(*Proc, Addr) {}, 0},
		{"one pwb", func(p *Proc, a Addr) { p.Store(a, 1); p.PWB(a) }, 1},
		{"one barrier", func(p *Proc, a Addr) { p.Store(a, 1); p.PBarrier(a) }, 1},
	} {
		h := newTracked(t, 1)
		p := h.Proc(0)
		a := p.Alloc(2)
		p.OpenSyncScope()
		c.body(p, a)
		p.CloseSyncScope()
		if got := p.Stats().Syncs; got != c.syncs {
			t.Errorf("%s: the scope closed with %d psyncs, want %d", c.name, got, c.syncs)
		}
	}
}

// TestAccessCountOneProcDifferential pins the plain access count of a
// one-Proc heap against the shared atomic one a heap of two Procs keeps:
// one script, run by Proc 0 with Proc 1 idle, spans the same AccessCount
// after every step on both, and a crash armed at each offset lands on the
// same step. The script covers every primitive that counts an access, the
// reclaimer's Alloc, Free and Retire among them.
func TestAccessCountOneProcDifferential(t *testing.T) {
	script := func(h *Heap, step func()) {
		p := h.Proc(0)
		r := NewReclaimer(h)
		a := p.Alloc(16)
		step()
		p.Store(a, 1)
		step()
		p.Load(a)
		step()
		p.CAS(a, 1, 2)
		step()
		p.CAS(a, 1, 3) // fails
		step()
		p.FetchOr(a+1, 6)
		step()
		p.FetchAndNot(a+1, 2)
		step()
		p.Carry(a + 8)
		step()
		p.PWB(a)
		step()
		p.PFence()
		step()
		p.PBarrier(a, a+8)
		step()
		p.PBarrierRange(a, 16)
		step()
		p.PSync()
		step()
		b := r.Alloc(p, 4)
		step()
		r.Free(p, b)
		step()
		r.Retire(p, r.Alloc(p, 32))
		step()
	}
	build := func(procs int) *Heap { return NewHeap(Config{Words: 1 << 14, Procs: procs, Tracked: true}) }

	var spans [2][]uint64
	for i, procs := range []int{1, 2} {
		h := build(procs)
		start := h.AccessCount()
		script(h, func() { spans[i] = append(spans[i], h.AccessCount()-start) })
	}
	if !slices.Equal(spans[0], spans[1]) {
		t.Fatalf("access spans after each step: one Proc %v, two Procs %v", spans[0], spans[1])
	}
	total := spans[0][len(spans[0])-1]
	for off := uint64(1); off <= total; off++ {
		var landed [2]int
		for i, procs := range []int{1, 2} {
			h := build(procs)
			h.ScheduleCrashAt(h.AccessCount() + off)
			steps := 0
			if RunOp(func() { script(h, func() { steps++ }) }) {
				t.Fatalf("offset %d of %d: the crash never fired on %d Procs", off, total, procs)
			}
			landed[i] = steps
		}
		if landed[0] != landed[1] {
			t.Fatalf("a crash at offset %d lands after step %d on one Proc, after step %d on two", off, landed[0], landed[1])
		}
	}
}
