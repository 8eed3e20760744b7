package pmem

import "testing"

func reclaimHeap(t *testing.T, procs int) *Heap {
	t.Helper()
	return NewHeap(Config{Procs: procs, Words: 1 << 16, Tracked: true})
}

// TestReclaimerAllocFreeReuse pins the insta-reuse path: a never-published
// block freed by its owner is handed out again by the very next Alloc of
// the same class, even-aligned and distinct from every block still in use.
// Its content is not promised (Allocator.Alloc): the reclaimer clears
// nothing, so the test reads none of it.
func TestReclaimerAllocFreeReuse(t *testing.T) {
	h := reclaimHeap(t, 2)
	r := NewReclaimer(h)
	p := h.Proc(0)

	a := r.Alloc(p, 4)
	live := r.Alloc(p, 4)
	p.Store(a, 77)
	p.Store(a+3, 99)
	r.Free(p, a+2) // interior pointer must resolve to the block
	b := r.Alloc(p, 4)
	if b != a {
		t.Fatalf("freed block not reused: got %#x want %#x", b, a)
	}
	c := r.Alloc(p, 4)
	for _, x := range []Addr{live, b, c} {
		if x&1 != 0 {
			t.Fatalf("block %#x is not even-aligned", x)
		}
	}
	if c == b || c == live || b == live {
		t.Fatalf("blocks in use overlap: %#x, %#x, %#x", live, b, c)
	}
	if st := r.Stats(); st.Reused != 1 || st.Carved != 3 {
		t.Fatalf("stats %+v, want 1 reused and 3 carved", st)
	}
}

// TestReclaimerRoundTripStores pins what a block's round trip writes: a
// 32-word block retired, freed after its grace and handed out again costs
// two read-modify-writes (the dead bit set, then cleared) and nothing else.
// The free stack is Go-side: no word of the block is read or written, and no
// other heap word is touched.
func TestReclaimerRoundTripStores(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)

	a := r.Alloc(p, 32)
	for w := Addr(0); w < 32; w++ {
		p.Store(a+w, uint64(a)+uint64(w)) // words that look like pointers
	}
	before, st0 := h.TotalStats(), r.Stats()
	r.Enter(p)
	r.Retire(p, a)
	r.Exit(p)
	for i := 0; i < 3; i++ {
		r.advanceAndFree(p)
	}
	if b := r.Alloc(p, 32); b != a {
		t.Fatalf("the freed block did not come back: got %#x want %#x", b, a)
	}
	if got := h.TotalStats().Sub(before); got != (Stats{CASes: 2}) {
		t.Fatalf("retire → free → Alloc cost %+v, want 2 CASes", got)
	}
	st := r.Stats()
	if st.Retired-st0.Retired != 1 || st.Freed-st0.Freed != 1 || st.Reused-st0.Reused != 1 || st.Carved != st0.Carved {
		t.Fatalf("stats %+v after %+v, want one retired, freed and reused", st, st0)
	}
}

// TestReclaimStatsSumProcs pins the per-process counters: ReclaimStats is
// the sum over the processes of what each did, and Recover and Scan, which
// reset every other Go-side record, leave it monotone.
func TestReclaimStatsSumProcs(t *testing.T) {
	h := reclaimHeap(t, 2)
	r := NewReclaimer(h)
	r.ForceRecovery(RecoverFast)
	for id, n := range []int{3, 5} {
		p := h.Proc(id)
		r.Enter(p)
		for i := 0; i < n; i++ {
			r.Retire(p, r.Alloc(p, 4))
		}
		r.Exit(p)
		for i := 0; i < 3; i++ {
			r.advanceAndFree(p)
		}
		for i := 0; i < n; i++ {
			r.Alloc(p, 4)
		}
	}
	want := ReclaimStats{Carved: 3 + 5, Reused: 3 + 5, Retired: 3 + 5, Freed: 3 + 5, Advances: r.Stats().Advances}
	for id, n := range []uint64{3, 5} {
		for c := range r.procs[id].counts {
			if got := r.procs[id].counts[c].Load(); got != n {
				t.Fatalf("process %d counted %d events of kind %d, want %d", id, got, c, n)
			}
		}
	}
	if st := r.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}

	p := h.Proc(0)
	prev := r.Stats()
	for _, recov := range []func(){
		func() { r.Recover(p, func(func(Addr)) {}) },
		func() { r.Scan(p, func(func(Addr)) {}) },
	} {
		h.Crash()
		h.ResetAfterCrash()
		recov()
		st := r.Stats()
		if st.Carved < prev.Carved || st.Reused < prev.Reused || st.Retired < prev.Retired || st.Freed < prev.Freed ||
			st.FastRecoveries+st.FullScans != prev.FastRecoveries+prev.FullScans+1 {
			t.Fatalf("stats %+v after a recovery, were %+v: not monotone", st, prev)
		}
		prev = st
	}
}

// TestReclaimerLateMarksAfterCrash pins the late marks after a crash: a
// block retired into a slab nobody has adopted yet is marked late, and the
// adoption that follows leaves it to the ring; a block retired into a
// claimed slab is not marked; and nothing is handed out twice.
func TestReclaimerLateMarksAfterCrash(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	r.ForceRecovery(RecoverFast)
	p := h.Proc(0)

	const n = slabWords / 4 // two slabs of 4-word blocks, eight bitmap words each
	blocks := make([]Addr, 2*n)
	for i := range blocks {
		blocks[i] = r.Alloc(p, 4)
	}
	sa, _, _, _ := r.lookup(blocks[0])
	sb, _, _, _ := r.lookup(blocks[n])
	if sa == sb || sa.gen.Load() != r.gen.Load() || sb.gen.Load() != r.gen.Load() {
		t.Fatal("the two carved slabs are not two, claimed by their carver")
	}
	r.Free(p, blocks[0])
	r.Free(p, blocks[300])
	r.Free(p, blocks[n+5])
	p.PBarrierAddrs(nil)

	h.Crash()
	h.ResetAfterCrash()
	r.Recover(p, func(func(Addr)) { t.Fatal("fast recovery ran the mark phase") })
	audit := func(when string) {
		t.Helper()
		if rep := r.Audit(func(func(Addr)) {}); rep.Twice != 0 {
			t.Fatalf("%s: %d blocks pooled twice (%+v)", when, rep.Twice, rep)
		}
	}

	handed := map[Addr]bool{}
	alloc := func() Addr {
		a := r.Alloc(p, 4)
		if handed[a] {
			t.Fatalf("block %#x handed out twice", a)
		}
		handed[a] = true
		return a
	}
	if a := alloc(); a != blocks[0] || sa.gen.Load() != r.gen.Load() || sb.gen.Load() == r.gen.Load() {
		t.Fatalf("post-crash Alloc: %#x, want %#x from the first slab, adopted alone", a, blocks[0])
	}
	r.Enter(p)
	r.Retire(p, blocks[400]) // claimed slab
	r.Retire(p, blocks[n+100])
	for w := range sa.late {
		if sa.late[w].Load() != 0 {
			t.Fatal("a retirement in a claimed slab took a late mark")
		}
	}
	if sb.late[100/64].Load()>>(100%64)&1 == 0 {
		t.Fatal("a retirement in an unclaimed slab took no late mark")
	}
	audit("with one slab adopted")
	if a := alloc(); a != blocks[300] {
		t.Fatalf("Alloc: %#x, want the free block %#x", a, blocks[300])
	}
	if a := alloc(); a != blocks[n+5] || sb.gen.Load() != r.gen.Load() {
		t.Fatalf("Alloc: %#x, want %#x from the second slab's adoption", a, blocks[n+5])
	}
	audit("with both slabs adopted")
	r.Exit(p)
	for i := 0; i < 3; i++ {
		r.advanceAndFree(p)
	}
	for _, want := range []Addr{blocks[n+100], blocks[400]} {
		if a := alloc(); a != want {
			t.Fatalf("Alloc: %#x, want the retired block %#x after its grace", a, want)
		}
	}
	if a := alloc(); a >= sa.base && a < sa.base+slabWords || a >= sb.base && a < sb.base+slabWords {
		t.Fatalf("Alloc: %#x from an exhausted slab", a)
	}
}

// TestReclaimerAdoptionRace pins the order inside adopt: it reads a slab's
// whole bitmap before it claims the slab. Proc 1 retires a block of the
// slab Proc 0 is adopting at each of its bitmap loads, into the word the
// load reads, so every retirement lands while the slab is unclaimed, takes
// a late mark and stays out of the adoption. Nothing is handed out twice
// and the audit passes. An adoption that claimed first would pool those
// blocks from their bits while they wait in Proc 1's ring.
func TestReclaimerAdoptionRace(t *testing.T) {
	h := reclaimHeap(t, 2)
	r := NewReclaimer(h)
	r.ForceRecovery(RecoverFast)
	p, q := h.Proc(0), h.Proc(1)

	const n, words = slabWords / 4, slabWords / 4 / 64
	blocks := make([]Addr, n)
	for i := range blocks {
		blocks[i] = r.Alloc(p, 4)
	}
	pooled := map[Addr]bool{}
	for w := 0; w < words; w++ {
		pooled[blocks[w*64]] = true
		r.Free(p, blocks[w*64])
	}
	p.PBarrierAddrs(nil)
	h.Crash()
	h.ResetAfterCrash()
	r.Recover(p, func(func(Addr)) {})

	var retired []Addr
	h.SetAccessHook(func(x *Proc) {
		if x == p && len(retired) < words {
			a := blocks[(words-1-len(retired))*64+1] // adopt reads the top word first
			retired = append(retired, a)
			r.Retire(q, a)
		}
	})
	first := r.Alloc(p, 4)
	h.SetAccessHook(nil)
	if len(retired) != words || first != blocks[0] {
		t.Fatalf("adoption: %d retirements during it, then %#x, want %d and %#x", len(retired), first, words, blocks[0])
	}
	for _, a := range retired {
		pooled[a] = true
	}
	rep := r.Audit(func(mark func(Addr)) {
		for _, a := range blocks {
			if !pooled[a] || a == first {
				mark(a)
			}
		}
	})
	if msg := rep.Check(0); msg != "" {
		t.Fatalf("audit after the adoption: %s (%+v)", msg, rep)
	}

	for i := 0; i < 3; i++ {
		r.advanceAndFree(q)
	}
	handed := map[Addr]bool{first: true}
	for _, x := range []*Proc{p, q} {
		for {
			a := r.Alloc(x, 4)
			if a < blocks[0] || a > blocks[n-1] {
				break
			}
			if handed[a] || !pooled[a] {
				t.Fatalf("Proc %d: block %#x handed out twice or never freed", x.ID(), a)
			}
			handed[a] = true
		}
	}
	if len(handed) != len(pooled) {
		t.Fatalf("%d blocks handed out, want the %d freed or retired", len(handed), len(pooled))
	}
}

// TestReclaimerStampAtReset pins that Recover stamps the stacks it empties
// with the heap epoch: a block retired after the recovery, whose grace ends
// before its process's first Alloc, waits on a current stack and is handed
// out by that Alloc. Were the stack left stamped before the crash, the Alloc
// would empty it, and the block, late-marked in its unclaimed slab, would be
// lost to the adoption as well.
func TestReclaimerStampAtReset(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	r.ForceRecovery(RecoverFast)
	p := h.Proc(0)

	blocks := make([]Addr, 8)
	for i := range blocks {
		blocks[i] = r.Alloc(p, 4)
	}
	p.PBarrierAddrs(nil)
	h.Crash()
	h.ResetAfterCrash()
	r.Recover(p, func(func(Addr)) {})

	r.Retire(p, blocks[3])
	for i := 0; i < 3; i++ {
		r.advanceAndFree(p)
	}
	if st := r.Stats(); st.Freed != 1 {
		t.Fatalf("stats %+v, want the retired block freed", st)
	}
	if a := r.Alloc(p, 4); a != blocks[3] {
		t.Fatalf("first Alloc after the recovery: %#x, want the freed block %#x", a, blocks[3])
	}
}

// TestReclaimerBlockOfEverySize pins lookup's shift: for every block size a
// class can take — each divides slabWords, so each is a power of two —
// BlockOf resolves every word of every block of a slab to that block.
func TestReclaimerBlockOfEverySize(t *testing.T) {
	for size := uint64(2); size <= slabWords; size *= 2 {
		h := reclaimHeap(t, 1)
		r := NewReclaimer(h)
		p := h.Proc(0)
		for i := uint64(0); i < slabWords/size; i++ {
			a := r.Alloc(p, size)
			for w := Addr(0); w < Addr(size); w++ {
				if start, words, ok := r.BlockOf(a + w); !ok || start != a || words != size {
					t.Fatalf("size %d: BlockOf(%#x) = %#x, %d, %v, want block %#x", size, a+w, start, words, ok, a)
				}
			}
		}
	}
}

// TestReclaimerRetireGrace pins the epoch grace period and the spill: a
// retired block is not freed while any process stays pinned in the retire
// epoch, a ring that fills meanwhile grows instead of dropping, and every
// block is freed once the pins are released.
func TestReclaimerRetireGrace(t *testing.T) {
	h := reclaimHeap(t, 2)
	r := NewReclaimer(h)
	p, q := h.Proc(0), h.Proc(1)

	r.Enter(p)
	r.Enter(q) // q's pin will go stale, blocking the epoch
	a := r.Alloc(p, 4)
	r.Retire(p, a)

	// Force many advance attempts: q is pinned at the current epoch, so the
	// epoch advances at most once and a's grace period never elapses. The
	// 257 retirements outgrow the ring's initial capacity.
	const retired = 1 + 4*ringFreeThreshold
	for i := 1; i < retired; i++ {
		n := r.Alloc(p, 4)
		r.Retire(p, n)
	}
	if st := r.Stats(); st.Freed != 0 || st.Dropped != 0 || st.Retired != retired {
		t.Fatalf("while a process was pinned in the retire epoch: %+v, want %d retired, 0 freed, 0 dropped", st, retired)
	}

	// Release both pins; two epoch advances later every grace period is over.
	r.Exit(q)
	r.Exit(p)
	for i := 0; i < 3; i++ {
		r.advanceAndFree(p)
	}
	if st := r.Stats(); st.Freed != retired || st.Dropped != 0 {
		t.Fatalf("after the pins were released: %+v, want all %d blocks freed", st, retired)
	}
	if ps := &r.procs[0]; ps.n != 0 || len(ps.ring) < retired {
		t.Fatalf("ring holds %d entries in %d slots, want 0 in at least %d (a grown ring keeps its capacity)", ps.n, len(ps.ring), retired)
	}
}

// TestReclaimerBoundedHeap pins the tentpole property at the allocator
// level: churn far beyond the heap capacity completes because blocks are
// recycled, with bump-pointer usage bounded.
func TestReclaimerBoundedHeap(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)

	churn := 4 * h.Capacity() / 4 // 4× capacity worth of 4-word blocks
	for i := uint64(0); i < churn; i++ {
		r.Enter(p)
		a := r.Alloc(p, 4)
		p.Store(a, i)
		r.Retire(p, a)
	}
	r.Exit(p)
	if used := h.Used(); used > h.Capacity()/2 {
		t.Fatalf("heap not bounded under churn: used %d of %d", used, h.Capacity())
	}
	st := r.Stats()
	if st.Reused == 0 {
		t.Fatal("no blocks reused under churn")
	}
}

// TestReclaimerTwoClasses pins the class separation (4-word nodes and
// 32-word Info records must not alias) and the class-table limit.
func TestReclaimerTwoClasses(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)

	a := r.Alloc(p, 4)
	b := r.Alloc(p, 32)
	if sa, wa, ok := r.BlockOf(a + 1); !ok || sa != a || wa != 4 {
		t.Fatalf("BlockOf(node) = %#x,%d,%v", sa, wa, ok)
	}
	if sb, wb, ok := r.BlockOf(b + 31); !ok || sb != b || wb != 32 {
		t.Fatalf("BlockOf(info) = %#x,%d,%v", sb, wb, ok)
	}
	if _, _, ok := r.BlockOf(1 << 40); ok {
		t.Fatal("BlockOf accepted an address outside every slab")
	}
	r.Free(p, a)
	if c := r.Alloc(p, 32); c == a {
		t.Fatal("cross-class reuse: 32-word alloc returned a freed 4-word block")
	}
}

// TestReclaimerDegradedAfterCrash pins the desync guard: after a crash and
// before any scan, Alloc bypasses the free lists and Retire drops.
func TestReclaimerDegradedAfterCrash(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)

	a := r.Alloc(p, 4)
	r.Free(p, a)

	h.Crash()
	h.ResetAfterCrash()

	b := r.Alloc(p, 4)
	if b == a {
		t.Fatal("degraded Alloc reused a pre-crash free-list block")
	}
	pre := r.Stats().Dropped
	r.Retire(p, b)
	if r.Stats().Dropped != pre+1 {
		t.Fatal("degraded Retire did not drop the retirement")
	}

	// A scan with an empty mark set resynchronizes and re-homes everything.
	rep := r.Scan(p, func(mark func(Addr)) {})
	if rep.Swept == 0 {
		t.Fatalf("scan swept nothing: %+v", rep)
	}
	if !r.synced() {
		t.Fatal("reclaimer still degraded after scan")
	}
}

// TestReclaimerScanMarksSurvive pins the conservative sweep: marked blocks
// stay live (content intact), and unmarked blocks — retired or not — return
// to the pool.
func TestReclaimerScanMarksSurvive(t *testing.T) {
	h := reclaimHeap(t, 2)
	r := NewReclaimer(h)
	p := h.Proc(0)

	keep := r.Alloc(p, 4)
	p.Store(keep, 42)
	p.PWB(keep)
	lose := r.Alloc(p, 4)
	p.Store(lose, 43)
	gone := r.Alloc(p, 4)
	gone2 := r.Alloc(p, 4)
	p.PBarrierAddrs(nil) // the four allocations' cleared bits are durable
	r.Enter(p)
	r.Retire(p, gone) // the set bits are not: the crash loses them
	r.Retire(p, gone2)
	r.Exit(p)

	h.Crash()
	h.ResetAfterCrash()

	rep := r.Scan(p, func(mark func(Addr)) {
		mark(keep + 2)  // interior pointer marks the block
		mark(1 << 40)   // garbage addresses are ignored
		mark(r.dirBase) // non-slab pmem addresses are ignored
	})
	if rep.Marked != 1 {
		t.Fatalf("Marked = %d, want 1 (%+v)", rep.Marked, rep)
	}
	if rep.Swept != 3 {
		t.Fatalf("Swept = %d, want 3 (%+v)", rep.Swept, rep)
	}
	if v := p.Load(keep); v != 42 {
		t.Fatalf("marked block content lost: %d", v)
	}
	if got := r.LiveBlocks(); got != 1 {
		t.Fatalf("LiveBlocks = %d, want 1", got)
	}

	// Swept blocks are reusable and zeroed.
	x := r.Alloc(p, 4)
	if x != lose && x != gone && x != gone2 {
		t.Fatalf("post-scan Alloc did not reuse a swept block: %#x", x)
	}
	if v := p.Load(x); v != 0 {
		t.Fatalf("swept block not zeroed: %d", v)
	}
}

// TestReclaimerScanIdempotent pins restartability: running the scan twice
// (as a crash mid-scan would) yields the same live set.
func TestReclaimerScanIdempotent(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)

	keep := r.Alloc(p, 4)
	r.Alloc(p, 4) // swept
	p.PBarrierAddrs(nil)
	h.Crash()
	h.ResetAfterCrash()

	markAll := func(mark func(Addr)) { mark(keep) }
	rep1 := r.Scan(p, markAll)
	rep2 := r.Scan(p, markAll)
	if rep1.Marked != 1 || rep2.Marked != 1 {
		t.Fatalf("Marked = %d then %d, want 1 both times", rep1.Marked, rep2.Marked)
	}
	// The first scan wrote its sweep back; the second finds it in the
	// bitmaps and returns nothing more: the partition does not change.
	if rep1.Swept != 1 || rep2.Swept != 0 {
		t.Fatalf("scan not idempotent: swept %d then %d, want 1 then 0", rep1.Swept, rep2.Swept)
	}
	if got := r.LiveBlocks(); got != 1 {
		t.Fatalf("LiveBlocks = %d, want 1", got)
	}
}

// TestReclaimerRecoverFast pins the fast post-crash path: Recover frees
// nothing and never calls mark; what the crash caught on a free list or in
// a ring comes back from the dead bitmap once a barrier wrote its bit back,
// and a block freed after the last barrier is booked as garbage, in words,
// and never handed out again; and retirement and reuse work again for
// post-crash blocks.
func TestReclaimerRecoverFast(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)

	for i := 0; i < 16; i++ {
		r.Alloc(p, 4) // live: keeps the garbage rule quiet
	}
	freed := r.Alloc(p, 4)
	r.Free(p, freed)
	r.Enter(p)
	ringed := r.Alloc(p, 4) // pops freed
	ringed2 := r.Alloc(p, 32)
	r.Retire(p, ringed)
	r.Retire(p, ringed2)
	r.Exit(p)
	if ringed != freed {
		t.Fatalf("setup: Alloc did not pop the freed block")
	}
	onList := r.Alloc(p, 4)
	r.Free(p, onList)
	lost := r.Alloc(p, 32)
	p.PBarrierAddrs(nil) // every bit so far is durable
	back := map[Addr]bool{ringed: true, ringed2: true, onList: true}
	r.Free(p, lost) // after the last barrier: its bit is lost

	h.Crash()
	h.ResetAfterCrash()
	rep := r.Recover(p, func(func(Addr)) { t.Fatal("fast recovery ran the mark phase") })
	if rep.Full || rep.Marked != 0 || rep.Swept != 0 {
		t.Fatalf("fast recovery reported a scan: %+v", rep)
	}
	if rep.Dropped != 32 || rep.Garbage != rep.Dropped {
		t.Fatalf("fast recovery books: %+v, want 32 words dropped", rep)
	}
	if !r.synced() {
		t.Fatal("reclaimer still degraded after Recover")
	}
	if st := r.Stats(); st.FastRecoveries != 1 || st.FullScans != 0 || st.Freed != 0 {
		t.Fatalf("stats after one fast recovery: %+v", st)
	}

	// The pool hands the pre-crash free blocks out again, never the lost
	// one; post-crash blocks cycle.
	r.Enter(p)
	for i := 0; i < 8*ringFreeThreshold; i++ {
		r.Enter(p)
		for _, words := range []uint64{4, 32} {
			a := r.Alloc(p, words)
			if a == lost {
				t.Fatalf("Alloc handed out block %#x, whose dead bit the crash lost", a)
			}
			delete(back, a)
			r.Retire(p, a)
		}
	}
	r.Exit(p)
	if len(back) != 0 {
		t.Fatalf("blocks freed before the last barrier never came back: %v", back)
	}
	if st := r.Stats(); st.Freed == 0 || st.Reused < 5 {
		t.Fatalf("post-crash retirements were not recycled: %+v", st)
	}
}

// TestReclaimerRecoverForgets pins what the fast recovery resets: the
// rings (one grown past its initial capacity behind a stuck pin), the free
// lists and the pins; the epoch moves on instead, so that no pin taken after
// the crash is as old as one taken before it (Reclaimer.Stamp). After Recover no pre-crash block is reachable from
// the Go-side state, and the reset touches no heap word; the bookkeeping
// around an operation (Enter, Retire, Exit) touches one, the block's
// bitmap word, and issues no persistence instruction.
func TestReclaimerRecoverForgets(t *testing.T) {
	h := reclaimHeap(t, 2)
	r := NewReclaimer(h)
	p, q := h.Proc(0), h.Proc(1)
	r.ForceRecovery(RecoverFast)

	pre := map[Addr]bool{}
	r.Enter(p)
	r.Enter(q) // stuck: q crashes pinned, and the epoch stalls behind it
	for i := 0; i < 2*ringCap; i++ {
		a := r.Alloc(p, 4)
		pre[a] = true
		r.Retire(p, a)
	}
	listed := r.Alloc(q, 32)
	pre[listed] = true
	r.Free(q, listed)

	a := r.Alloc(p, 4)
	pre[a] = true
	before, stats := h.AccessCount(), h.TotalStats()
	r.Enter(p)
	r.Retire(p, a)
	r.Exit(p)
	if got := h.AccessCount(); got != before+1 || h.TotalStats().Sub(stats) != (Stats{CASes: 1}) {
		t.Fatalf("Enter, Retire and Exit made %d heap accesses and %+v, want the bitmap word's one fetch-OR",
			got-before, h.TotalStats().Sub(stats))
	}
	if st := r.Stats(); st.Dropped != 0 || r.procs[0].n != len(pre)-1 {
		t.Fatalf("a stalled epoch dropped retirements: %+v, ring %d", st, r.procs[0].n)
	}
	r.Enter(p) // p crashes pinned too
	epoch := r.epoch.Load()

	h.Crash()
	h.ResetAfterCrash()
	before, stats = h.AccessCount(), h.TotalStats()
	rep := r.Recover(p, func(func(Addr)) { t.Fatal("fast recovery ran the mark phase") })
	if got := h.AccessCount(); got != before || h.TotalStats() != stats {
		t.Fatalf("fast recovery made %d heap accesses and %+v persistence instructions, want none",
			got-before, h.TotalStats().Sub(stats))
	}
	if rep.Full || rep.Dropped != 4*uint64(len(pre)-1)+32 {
		t.Fatalf("fast recovery books: %+v", rep)
	}
	if e := r.epoch.Load(); e != epoch+1 {
		t.Fatalf("epoch %d after recovery, want %d: it moves on past every pre-crash pin", e, epoch+1)
	}
	for id := range r.procs {
		if pin := r.pins[id].epoch.Load(); pin != 0 {
			t.Fatalf("proc %d still pinned at %d", id, pin)
		}
		r.procs[id].eachHeld(func(a Addr) {
			t.Errorf("proc %d still reaches block %#x (pre-crash: %v)", id, a, pre[a])
		})
	}
}

// TestReclaimerRecoverGarbageRule pins when Recover pays for a scan:
// exactly when the words lost since the last scan, doubled, reach the words
// carved — and that the scan restarts the account.
func TestReclaimerRecoverGarbageRule(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)
	crash := func() ScanReport {
		h.Crash()
		h.ResetAfterCrash()
		return r.Recover(p, func(func(Addr)) {})
	}

	// 15 carved, their cleared bits durable; 7 freed after the barrier lose
	// their set bits: 28 words × 2 < 60.
	var blocks []Addr
	for i := 0; i < 15; i++ {
		blocks = append(blocks, r.Alloc(p, 4))
	}
	p.PBarrierAddrs(nil)
	for _, a := range blocks[8:] {
		r.Free(p, a)
	}
	if rep := crash(); rep.Full || rep.Dropped != 7*4 {
		t.Fatalf("below the rule: %+v, want a fast recovery dropping 28 words", rep)
	}
	// One more lost block tips it: (28+4) × 2 ≥ 64 carved.
	r.Free(p, r.Alloc(p, 4))
	rep := crash()
	if !rep.Full || rep.Garbage != 32 || rep.Marked != 0 || rep.Swept != 15 {
		t.Fatalf("at the rule: %+v, want a full scan of 32 garbage words sweeping the 15 blocks in use", rep)
	}
	// The sweep wrote every bit back and the account is back at 0, so the
	// next crash loses nothing.
	if rep := crash(); rep.Full || rep.Dropped != 0 || rep.Garbage != 0 {
		t.Fatalf("after the scan: %+v, want a fast recovery with nothing lost", rep)
	}
	if st := r.Stats(); st.FastRecoveries != 2 || st.FullScans != 1 {
		t.Fatalf("stats: %+v, want 2 fast recoveries and 1 scan", st)
	}
}

// TestReclaimerScanClosureCounts pins the full scan's counts on a fixed
// graph, computed two ways: a caller-side closure that pushes exactly the
// blocks MarkBlock reports as newly marked, and the old shape — a visited
// map in front of the plain mark callback. Same Marked, same Swept.
func TestReclaimerScanClosureCounts(t *testing.T) {
	build := func() (*Reclaimer, *Proc, Addr) {
		h := reclaimHeap(t, 1)
		r := NewReclaimer(h)
		p := h.Proc(0)
		// A chain of 40 nodes, every fourth hanging a 32-word record that
		// points back into the chain; 25 unreachable blocks beside it.
		var head, prev Addr
		for i := 0; i < 40; i++ {
			n := r.Alloc(p, 4)
			if i%4 == 0 {
				rec := r.Alloc(p, 32)
				p.Store(rec+5, uint64(n)|1) // tagged back-pointer
				p.Store(n+2, uint64(rec))
			}
			if prev == Null {
				head = n
			} else {
				p.Store(prev+1, uint64(n))
			}
			prev = n
		}
		for i := 0; i < 20; i++ {
			r.Alloc(p, 4)
		}
		for i := 0; i < 5; i++ {
			r.Alloc(p, 32)
		}
		return r, p, head
	}

	r, p, head := build()
	viaMarkBlock := r.Scan(p, func(func(Addr)) {
		work := []Addr{head}
		for len(work) > 0 {
			a := work[len(work)-1]
			work = work[:len(work)-1]
			if start, words, fresh := r.MarkBlock(a); fresh {
				for w := Addr(0); w < Addr(words); w++ {
					work = append(work, Addr(p.Load(start+w)&^1))
				}
			}
		}
	})

	r, p, head = build()
	viaVisited := r.Scan(p, func(mark func(Addr)) {
		visited := map[Addr]bool{}
		work := []Addr{head}
		for len(work) > 0 {
			a := work[len(work)-1]
			work = work[:len(work)-1]
			start, words, ok := r.BlockOf(a)
			if !ok || visited[start] {
				continue
			}
			visited[start] = true
			mark(start)
			for w := Addr(0); w < Addr(words); w++ {
				work = append(work, Addr(p.Load(start+w)&^1))
			}
		}
	})

	if viaMarkBlock.Marked != 50 || viaMarkBlock.Swept != 25 {
		t.Fatalf("MarkBlock closure: %+v, want 50 marked and 25 swept", viaMarkBlock)
	}
	if viaVisited.Marked != viaMarkBlock.Marked || viaVisited.Swept != viaMarkBlock.Swept {
		t.Fatalf("visited-map closure %+v differs from MarkBlock closure %+v", viaVisited, viaMarkBlock)
	}
}

// TestReclaimerAudit pins the read-only checker: it counts in words, finds
// a marked block on a free list or in a ring, and changes nothing.
func TestReclaimerAudit(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)

	keep := r.Alloc(p, 4)
	r.Alloc(p, 32) // handed out, unreachable, unaccounted: a leak
	listed := r.Alloc(p, 4)
	r.Free(p, listed)
	r.Enter(p)
	ringed := r.Alloc(p, 32)
	r.Retire(p, ringed)
	r.Exit(p)
	before := h.AccessCount()

	rep := r.Audit(func(mark func(Addr)) { mark(keep) })
	if rep.Marked != 4 || rep.Unmarked != 32+4+32 || rep.Held != 4+32 || rep.Garbage != 0 || rep.MarkedHeld != 0 {
		t.Fatalf("audit: %+v", rep)
	}
	if msg := rep.Check(0); msg == "" {
		t.Fatal("Check accepted 32 unexplained words")
	}
	if msg := rep.Check(32); msg != "" {
		t.Fatalf("Check with the leak allowed for: %s", msg)
	}
	for _, held := range []Addr{listed, ringed} {
		rep := r.Audit(func(mark func(Addr)) { mark(held) })
		if rep.MarkedHeld != 1 || rep.Check(1<<20) == "" {
			t.Fatalf("marked block %#x on a list or ring not reported: %+v", held, rep)
		}
	}
	if h.AccessCount() != before {
		t.Fatal("Audit made counted heap accesses")
	}
	if got := r.LiveBlocks(); got != 3 {
		t.Fatalf("LiveBlocks = %d after audits, want 3 (marks must be cleared)", got)
	}
}
