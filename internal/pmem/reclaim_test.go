package pmem

import "testing"

func reclaimHeap(t *testing.T, procs int) *Heap {
	t.Helper()
	return NewHeap(Config{Procs: procs, Words: 1 << 16, Tracked: true})
}

// TestReclaimerAllocFreeReuse pins the insta-reuse path: a never-published
// block freed by its owner is handed out again by the very next Alloc of
// the same class, zeroed.
func TestReclaimerAllocFreeReuse(t *testing.T) {
	h := reclaimHeap(t, 2)
	r := NewReclaimer(h)
	p := h.Proc(0)

	a := r.Alloc(p, 4)
	p.Store(a, 77)
	p.Store(a+3, 99)
	r.Free(p, a+2) // interior pointer must resolve to the block
	b := r.Alloc(p, 4)
	if b != a {
		t.Fatalf("freed block not reused: got %#x want %#x", b, a)
	}
	for w := Addr(0); w < 4; w++ {
		if v := p.Load(b + w); v != 0 {
			t.Fatalf("reused block word %d not zeroed: %d", w, v)
		}
	}
	st := r.Stats()
	if st.Reused != 1 {
		t.Fatalf("Reused = %d, want 1", st.Reused)
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
// zeroed to free lists.
func TestReclaimerScanMarksSurvive(t *testing.T) {
	h := reclaimHeap(t, 2)
	r := NewReclaimer(h)
	p := h.Proc(0)

	keep := r.Alloc(p, 4)
	p.Store(keep, 42)
	p.PWB(keep)
	lose := r.Alloc(p, 4)
	p.Store(lose, 43)
	r.Enter(p)
	gone := r.Alloc(p, 4)
	r.Retire(p, gone)
	gone2 := r.Alloc(p, 4)
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
	h.Crash()
	h.ResetAfterCrash()

	markAll := func(mark func(Addr)) { mark(keep) }
	rep1 := r.Scan(p, markAll)
	rep2 := r.Scan(p, markAll)
	if rep1.Marked != 1 || rep2.Marked != 1 {
		t.Fatalf("Marked = %d then %d, want 1 both times", rep1.Marked, rep2.Marked)
	}
	// Free blocks are re-swept (the heads were reset, so every free block
	// must be re-pushed), but the partition must not change.
	if rep2.Swept != rep1.Swept {
		t.Fatalf("scan not idempotent: swept %d then %d", rep1.Swept, rep2.Swept)
	}
	if got := r.LiveBlocks(); got != 1 {
		t.Fatalf("LiveBlocks = %d, want 1", got)
	}
}

// TestReclaimerRecoverFast pins the fast post-crash path: Recover frees
// nothing and never calls mark; what the crash caught on a free list or in
// a ring is abandoned — never handed out again — and booked as garbage, in
// words; and retirement and reuse work again for post-crash blocks.
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
	abandoned := map[Addr]bool{ringed: true, ringed2: true}
	onList := r.Alloc(p, 4)
	r.Free(p, onList)
	abandoned[onList] = true

	h.Crash()
	h.ResetAfterCrash()
	rep := r.Recover(p, func(func(Addr)) { t.Fatal("fast recovery ran the mark phase") })
	if rep.Full || rep.Marked != 0 || rep.Swept != 0 {
		t.Fatalf("fast recovery reported a scan: %+v", rep)
	}
	if rep.Dropped != 4+32+4 || rep.Garbage != rep.Dropped {
		t.Fatalf("fast recovery books: %+v, want 40 words dropped", rep)
	}
	if !r.synced() {
		t.Fatal("reclaimer still degraded after Recover")
	}
	if st := r.Stats(); st.FastRecoveries != 1 || st.FullScans != 0 || st.Freed != 0 {
		t.Fatalf("stats after one fast recovery: %+v", st)
	}

	// Post-crash blocks cycle; abandoned ones never come back.
	r.Enter(p)
	for i := 0; i < 8*ringFreeThreshold; i++ {
		r.Enter(p)
		for _, words := range []uint64{4, 32} {
			a := r.Alloc(p, words)
			if abandoned[a] {
				t.Fatalf("Alloc handed out abandoned block %#x", a)
			}
			r.Retire(p, a)
		}
	}
	r.Exit(p)
	if st := r.Stats(); st.Freed == 0 || st.Reused < 2 {
		t.Fatalf("post-crash retirements were not recycled: %+v", st)
	}
}

// TestReclaimerRecoverForgets pins what the fast recovery resets: the
// rings (one grown past its initial capacity behind a stuck pin), the free
// lists and the pins. After Recover no pre-crash block is reachable from
// the Go-side state, and neither the reset nor the bookkeeping around an
// operation (Enter, Retire, Exit) touches the heap.
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
	before := h.AccessCount()
	r.Enter(p)
	r.Retire(p, a)
	r.Exit(p)
	if got := h.AccessCount(); got != before {
		t.Fatalf("Enter, Retire and Exit made %d heap accesses, want 0", got-before)
	}
	if st := r.Stats(); st.Dropped != 0 || r.procs[0].n != len(pre)-1 {
		t.Fatalf("a stalled epoch dropped retirements: %+v, ring %d", st, r.procs[0].n)
	}
	r.Enter(p) // p crashes pinned too

	h.Crash()
	h.ResetAfterCrash()
	before, stats := h.AccessCount(), h.TotalStats()
	rep := r.Recover(p, func(func(Addr)) { t.Fatal("fast recovery ran the mark phase") })
	if got := h.AccessCount(); got != before || h.TotalStats() != stats {
		t.Fatalf("fast recovery made %d heap accesses and %+v persistence instructions, want none",
			got-before, h.TotalStats().Sub(stats))
	}
	if rep.Full || rep.Dropped != 4*uint64(len(pre)-1)+32 {
		t.Fatalf("fast recovery books: %+v", rep)
	}
	if e := r.epoch.Load(); e != firstEpoch {
		t.Fatalf("epoch %d after recovery, want %d", e, firstEpoch)
	}
	for id := range r.procs {
		if pin := r.pins[id].epoch.Load(); pin != 0 {
			t.Fatalf("proc %d still pinned at %d", id, pin)
		}
		if held := r.procs[id].held; held != 0 {
			t.Fatalf("proc %d still holds %d words", id, held)
		}
		r.procs[id].eachHeld(h.ReadVolatile, func(a Addr) {
			t.Errorf("proc %d still reaches block %#x (pre-crash: %v)", id, a, pre[a])
		})
	}
}

// TestReclaimerRecoverGarbageRule pins when Recover pays for a scan:
// exactly when the words abandoned since the last scan, doubled, reach the
// words carved — and that the scan restarts the account.
func TestReclaimerRecoverGarbageRule(t *testing.T) {
	h := reclaimHeap(t, 1)
	r := NewReclaimer(h)
	p := h.Proc(0)
	crash := func() ScanReport {
		h.Crash()
		h.ResetAfterCrash()
		return r.Recover(p, func(func(Addr)) {})
	}

	// 8 live + 7 freed of 15 carved: 28 words × 2 < 60.
	var blocks []Addr
	for i := 0; i < 15; i++ {
		blocks = append(blocks, r.Alloc(p, 4))
	}
	for _, a := range blocks[8:] {
		r.Free(p, a)
	}
	if rep := crash(); rep.Full || rep.Dropped != 7*4 {
		t.Fatalf("below the rule: %+v, want a fast recovery dropping 28 words", rep)
	}
	// One more abandoned block tips it: (28+4) × 2 ≥ 64 carved.
	r.Free(p, r.Alloc(p, 4))
	rep := crash()
	if !rep.Full || rep.Garbage != 32 || rep.Marked != 0 || rep.Swept != 16 {
		t.Fatalf("at the rule: %+v, want a full scan of 32 garbage words sweeping all 16 blocks", rep)
	}
	// The sweep put every block on the free list and the account is back
	// at 0, so the next crash drops exactly that list — and, with nothing
	// marked, that is the whole carved heap again.
	if rep := crash(); !rep.Full || rep.Dropped != 16*4 || rep.Garbage != rep.Dropped {
		t.Fatalf("after the scan: %+v, want 64 words dropped and nothing older", rep)
	}
	if st := r.Stats(); st.FastRecoveries != 1 || st.FullScans != 2 {
		t.Fatalf("stats: %+v, want 1 fast recovery and 2 scans", st)
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
