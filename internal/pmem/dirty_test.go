package pmem

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"unsafe"
)

// drive applies one pseudo-random store/pwb/barrier/psync step to a heap.
// Two heaps built with identical Configs and driven with the same rng
// sequence perform bit-identical access sequences (per-proc eviction PRNGs
// are seeded from the heap seed, so even simulated evictions agree).
func drive(rng *rand.Rand, h *Heap, base Addr, span uint64, steps int) {
	p := h.Proc(0)
	for i := 0; i < steps; i++ {
		a := base + Addr(rng.Int63n(int64(span)))
		switch rng.Intn(10) {
		case 0:
			p.PWB(a)
		case 1:
			addrs := make([]Addr, 1+rng.Intn(40))
			for j := range addrs {
				addrs[j] = base + Addr(rng.Int63n(int64(span)))
			}
			p.PBarrierAddrs(addrs)
		case 2:
			p.PSync()
		case 3:
			p.CAS(a, p.Load(a), rng.Uint64())
		default:
			p.Store(a, rng.Uint64())
		}
	}
}

// TestResetAfterCrashDifferential pins the tentpole equivalence: after
// randomized store/pwb/evict/crash sequences, the dirty-line restore and the
// brute-force full-arena restore must yield bit-identical volatile images.
// Quick-check style over both persistency models, eviction on and off,
// with several crash rounds per sequence so post-crash state is exercised.
func TestResetAfterCrashDifferential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model Model
		evict uint64
	}{
		{"shared-cache", SharedCache, 0},
		{"shared-cache-evict", SharedCache, 4},
		{"private-cache", PrivateCache, 0},
		{"private-cache-evict", PrivateCache, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seq := int64(0); seq < 20; seq++ {
				cfg := Config{
					Words: 1 << 14, Procs: 1, Model: tc.model,
					Tracked: true, EvictEvery: tc.evict, Seed: uint64(seq) + 1,
				}
				hd := NewHeap(cfg) // dirty-line restore under test
				hf := NewHeap(cfg) // full-restore oracle
				const span = 4096
				bd := hd.Proc(0).Alloc(span)
				bf := hf.Proc(0).Alloc(span)
				if bd != bf {
					t.Fatalf("heaps diverged at allocation: %d vs %d", bd, bf)
				}
				for round := 0; round < 3; round++ {
					rd := rand.New(rand.NewSource(seq*31 + int64(round)))
					rf := rand.New(rand.NewSource(seq*31 + int64(round)))
					drive(rd, hd, bd, span, 400)
					drive(rf, hf, bf, span, 400)
					hd.Crash()
					hf.Crash()
					hd.ResetAfterCrash()
					hf.resetAfterCrashFull()
					for w := uint64(0); w < hd.Used(); w++ {
						if g, want := hd.ReadVolatile(Addr(w)), hf.ReadVolatile(Addr(w)); g != want {
							t.Fatalf("seq %d round %d: volatile[%d] = %#x after dirty restore, %#x after full restore",
								seq, round, w, g, want)
						}
					}
				}
			}
		})
	}
}

// TestDirtyLineCount checks the bitmap's lifecycle: a store dirties its
// line, a pwb cleans it, and a crash reset leaves everything clean.
func TestDirtyLineCount(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 13, Procs: 1, Tracked: true})
	p := h.Proc(0)
	a := p.Alloc(16)
	if n := h.DirtyLineCount(); n != 0 {
		t.Fatalf("fresh heap has %d dirty lines", n)
	}
	p.Store(a, 7)
	if n := h.DirtyLineCount(); n != 1 {
		t.Fatalf("after one store: %d dirty lines, want 1", n)
	}
	p.PWB(a)
	if n := h.DirtyLineCount(); n != 0 {
		t.Fatalf("after pwb: %d dirty lines, want 0", n)
	}
	p.Store(a, 8)
	p.Store(a+8, 9)
	h.Crash()
	h.ResetAfterCrash()
	if n := h.DirtyLineCount(); n != 0 {
		t.Fatalf("after crash reset: %d dirty lines, want 0", n)
	}
	if g := h.ReadVolatile(a); g != 7 {
		t.Fatalf("after crash reset: volatile = %d, want persisted 7", g)
	}
}

// TestDivergedLinesAreDirty holds DivergedLines to the dirty field's
// invariant, "volatile != persisted implies dirty", which ResetAfterCrash's
// O(dirty) restore relies on: after randomized store/pwb/barrier/evict
// sequences every line it returns is line-aligned, listed once in address
// order, and has its dirty bit set. A line re-stored with the value it
// persisted is dirty but not diverged, and is left out.
func TestDivergedLinesAreDirty(t *testing.T) {
	diverged := 0
	for _, evict := range []uint64{0, 4} {
		for seq := int64(0); seq < 20; seq++ {
			h := NewHeap(Config{Words: 1 << 14, Procs: 1, Tracked: true, EvictEvery: evict, Seed: uint64(seq) + 1})
			const span = 4096
			drive(rand.New(rand.NewSource(seq)), h, h.Proc(0).Alloc(span), span, 400)
			lines := h.DivergedLines()
			for i, line := range lines {
				w, m := dirtyBit(line)
				if line%WordsPerLine != 0 || i > 0 && line <= lines[i-1] || h.dirty[w].Load()&m == 0 {
					t.Fatalf("evict=%d seq %d: diverged line %d is misaligned, out of order or clean (lines %v)", evict, seq, line, lines)
				}
			}
			diverged += len(lines)
		}
	}
	if diverged == 0 {
		t.Fatal("no sequence left a diverged line: the check is vacuous")
	}

	h := NewHeap(Config{Words: 1 << 13, Procs: 1, Tracked: true})
	p := h.Proc(0)
	a := p.Alloc(16)
	p.Store(a, 7)
	p.PWB(a)
	p.Store(a, 7)
	if lines, n := h.DivergedLines(), h.DirtyLineCount(); len(lines) != 0 || n != 1 {
		t.Fatalf("a re-store of the persisted value: diverged lines %v, %d dirty, want none and 1", lines, n)
	}
}

// TestPersistLineSkipsClean pins the skip: re-flushing an already-clean
// line must not issue another line write-back copy (observable through the
// persisted image staying at the volatile value — and, more directly, the
// dirty bit staying clear lets the barrier hot path skip the copy loop).
func TestPersistLineSkipsClean(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 13, Procs: 1, Tracked: true})
	p := h.Proc(0)
	a := p.Alloc(8)
	p.Store(a, 1)
	p.PWB(a)
	if g := h.ReadPersisted(a); g != 1 {
		t.Fatalf("persisted = %d, want 1", g)
	}
	// Clean re-flush: no divergence, nothing to copy, image unchanged.
	p.PWB(a)
	if g := h.ReadPersisted(a); g != 1 {
		t.Fatalf("persisted after clean re-flush = %d, want 1", g)
	}
}

// TestAccessCountUnconditional is the regression for the AccessCount doc
// bug: tracked-mode accesses must count whether or not a crash is armed
// (the counter used to advance only while armed).
func TestAccessCountUnconditional(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 13, Procs: 1, Tracked: true})
	p := h.Proc(0)
	a := p.Alloc(8) // Alloc is itself one tracked access
	before := h.AccessCount()
	if before == 0 {
		t.Fatal("Alloc access did not count")
	}
	for i := 0; i < 5; i++ {
		p.Store(a, uint64(i))
	}
	for i := 0; i < 3; i++ {
		p.Load(a)
	}
	if got := h.AccessCount() - before; got != 8 {
		t.Fatalf("AccessCount advanced by %d with no crash armed, want 8", got)
	}

	// Untracked heaps do not pay for the shared counter.
	hu := NewHeap(Config{Words: 1 << 13, Procs: 1})
	pu := hu.Proc(0)
	pu.Store(pu.Alloc(8), 1)
	if got := hu.AccessCount(); got != 0 {
		t.Fatalf("untracked AccessCount = %d, want 0", got)
	}
}

// barrierLineFixture allocates n distinct cache lines, dirties them all,
// and returns an address list naming each line three times, interleaved.
func barrierLineFixture(p *Proc, n int) []Addr {
	base := p.Alloc(uint64(n * WordsPerLine))
	addrs := make([]Addr, 0, 3*n)
	for rep := 0; rep < 3; rep++ {
		for i := 0; i < n; i++ {
			a := base + Addr(i*WordsPerLine+rep) // different word, same line
			addrs = append(addrs, a)
		}
	}
	for _, a := range addrs {
		p.Store(a, uint64(a))
	}
	return addrs
}

// TestPBarrierAddrsExactDedup pins the exact-dedup acceptance criterion:
// a phase touching far more distinct lines than the old 16-entry window
// must still flush each distinct line exactly once.
func TestPBarrierAddrsExactDedup(t *testing.T) {
	const lines = 40 // > the old window sizes (8 for PBarrier, 16 for Addrs)
	h := NewHeap(Config{Words: 1 << 14, Procs: 1, Tracked: true})
	p := h.Proc(0)
	addrs := barrierLineFixture(p, lines)

	before := p.Stats()
	p.PBarrierAddrs(addrs)
	d := p.Stats().Sub(before)
	if d.Barriers != 1 || d.Fences != 1 {
		t.Fatalf("barrier accounting: %d barriers, %d fences, want 1 and 1", d.Barriers, d.Fences)
	}
	if d.LineFlushes != lines {
		t.Fatalf("PBarrierAddrs flushed %d lines for %d distinct lines (%d addresses)",
			d.LineFlushes, lines, len(addrs))
	}
	if d.Flushes != 0 {
		t.Fatalf("barrier pwbs counted as %d stand-alone flushes", d.Flushes)
	}
	for _, a := range addrs {
		if g, want := h.ReadPersisted(a), uint64(a); g != want {
			t.Fatalf("persisted[%d] = %#x, want %#x", a, g, want)
		}
	}

	// The variadic form shares the same exact dedup.
	addrs2 := barrierLineFixture(p, lines)
	before = p.Stats()
	p.PBarrier(addrs2...)
	if d := p.Stats().Sub(before); d.LineFlushes != lines {
		t.Fatalf("PBarrier flushed %d lines for %d distinct lines", d.LineFlushes, lines)
	}
}

// TestBarrierZeroAllocs pins zero steady-state Go allocations on the
// barrier hot path, including phases larger than any fixed window.
func TestBarrierZeroAllocs(t *testing.T) {
	h := NewHeap(Config{Words: 1 << 16, Procs: 1, Tracked: true})
	p := h.Proc(0)
	addrs := barrierLineFixture(p, 64)
	if n := testing.AllocsPerRun(100, func() {
		for _, a := range addrs {
			p.Store(a, uint64(a))
		}
		p.PBarrierAddrs(addrs)
		p.PBarrier(addrs[:24]...)
		p.PSync()
	}); n != 0 {
		t.Fatalf("barrier hot path allocates %.1f times per run, want 0", n)
	}
}

// TestReleaseRecyclesCleanImages pins Heap.Release: a heap built from
// recycled images is all zero — volatile, persisted and dirty bitmap, over the
// whole arena — whatever the released heap did; images only ever go to a heap
// of the size they came from; and the recycled heap then behaves exactly like
// one that never was.
func TestReleaseRecyclesCleanImages(t *testing.T) {
	cfg := Config{Words: 1 << 13, Procs: 2, Tracked: true, EvictEvery: 4, Seed: 7}
	const span = 2048
	var prev *atomic.Uint64 // the last released heap's first volatile word
	reused := 0
	for round := int64(0); round < 16; round++ {
		if other := NewHeap(Config{Words: cfg.Words * 2, Tracked: true}); len(other.vol) != cfg.Words*2 {
			t.Fatalf("round %d: a %d-word heap got %d-word images", round, cfg.Words*2, len(other.vol))
		}
		h, fresh := NewHeap(cfg), NewHeap(cfg)
		if &h.vol[0] == prev {
			reused++
		}
		for w := range h.vol {
			if h.vol[w].Load() != 0 || h.per[w].Load() != 0 {
				t.Fatalf("round %d: word %d of a new heap is not zero", round, w)
			}
		}
		if h.DirtyLineCount() != 0 {
			t.Fatalf("round %d: a new heap has dirty lines", round)
		}
		for _, hp := range []*Heap{h, fresh} {
			base := hp.Proc(0).Alloc(span)
			// Proc 1's reserved region: one line written back, one left dirty.
			q, r := hp.Proc(1), hp.Proc(1).Region()
			q.Store(r, uint64(round)+1)
			q.PWB(r)
			q.Store(r+WordsPerLine, uint64(round)+1)
			drive(rand.New(rand.NewSource(round)), hp, base, span, 600)
			hp.Crash()
			hp.ResetAfterCrash()
			drive(rand.New(rand.NewSource(-round)), hp, base, span, 200)
		}
		for w := uint64(0); w < h.Used(); w++ {
			if h.vol[w].Load() != fresh.vol[w].Load() || h.per[w].Load() != fresh.per[w].Load() {
				t.Fatalf("round %d: word %d differs from a never-recycled heap's", round, w)
			}
		}
		prev = &h.vol[0]
		h.Release()
	}
	// sync.Pool may drop a Put (it does so at random under -race), never all.
	if reused == 0 {
		t.Fatal("no heap was ever built from released images")
	}
}

// TestProcFillsCacheLines pins the Proc padding: Procs run on different
// goroutines and write their counters at every access, so a Proc that did
// not fill whole cache lines would share one with its neighbour in the
// allocator's size class and slow both down.
func TestProcFillsCacheLines(t *testing.T) { fillsCacheLines(t, "Proc", unsafe.Sizeof(Proc{})) }

// TestReclaimProcFillsCacheLines and TestPinFillsCacheLines pin the
// reclaimer's per-process padding on the same grounds: a process writes its
// reclaimProc at every Alloc and Retire, and its pin at every attempt.
func TestReclaimProcFillsCacheLines(t *testing.T) {
	fillsCacheLines(t, "reclaimProc", unsafe.Sizeof(reclaimProc{}))
}

func TestPinFillsCacheLines(t *testing.T) { fillsCacheLines(t, "pin", unsafe.Sizeof(pin{})) }

func fillsCacheLines(t *testing.T, name string, n uintptr) {
	t.Helper()
	if n%(WordsPerLine*8) != 0 {
		t.Fatalf("a %s is %d bytes, not a whole number of %d-byte cache lines: adjust its padding", name, n, WordsPerLine*8)
	}
}
