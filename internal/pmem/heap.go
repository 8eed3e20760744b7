// Package pmem simulates byte-addressable non-volatile main memory (NVRAM)
// with explicit epoch persistency, as assumed by the paper "Tracking in
// Order to Recover" (SPAA 2020).
//
// Real persistence control (clflush/mfence on designated NVM) is not
// available from Go: the garbage-collected runtime owns the heap layout and
// offers no cache-line write-back primitives. Instead, the package keeps a
// word-addressed arena with two images:
//
//   - a volatile image, on which all Load/Store/CAS primitives act
//     (simulating CPU caches + store buffers under TSO), and
//   - a persisted image, to which cache lines move only via explicit
//     PWB/PSync instructions (or simulated random eviction).
//
// A system-wide crash discards the volatile image: every word reverts to its
// persisted value. This reproduces the abstract semantics of the paper's
// shared cache model. The private cache model is also supported: there every
// Store/CAS is immediately persistent and persistency instructions are free.
//
// Addresses (Addr) are word indices into the arena; address 0 is Null and is
// never returned by Alloc. Allocations are even-aligned so that bit 0 of an
// address is always available as a tag bit (ISB tagging) or mark bit
// (Harris-style deletion marks).
//
// Persistence-instruction accounting is cache-line granular (8 words per
// line), matching the paper's counting of clflush/mfence instructions, and
// simulated latencies are attached to PWB/PSync in the shared cache model so
// that throughput comparisons are driven by the same quantity the paper
// measures: the number of persistence instructions per operation.
//
// # Performance model
//
// The simulator keeps its own costs off the measured hot paths. On Linux a
// heap's images are demand-zero mappings of anonymous memory, not Go
// allocations: NewHeap clears nothing, so building a heap is O(1) whatever
// its capacity, and the kernel zeroes a page at a run's first touch of it. A
// heap is resident only where it was used, and its images stay out of the
// garbage collector's heap and pacing.
//
// A tracked heap maintains a per-cache-line dirty bitmap recording which
// lines' volatile image may diverge from the persisted image: line write-backs
// skip clean lines, a line write-back stores only the words that differ,
// and ResetAfterCrash restores only dirty lines, reading the bitmap only as
// far as the bump pointer — O(dirty), not O(arena) — which is what makes
// every-crash-point conformance sweeps cheap enough to run densely. Barrier
// dedup (PBarrier/PBarrierAddrs) is exact for any phase size via a per-proc
// reusable line set, so each distinct line is flushed once and the hot
// path performs zero steady-state Go allocations. Tracked-mode accesses
// are counted unconditionally (AccessCount): with a locked add on a heap of
// several Procs, with a plain one on a heap of one, where no other
// goroutine can race the count; untracked heaps skip the counter entirely.
// A read-modify-write of a word's bits (FetchOr, FetchAndNot) is one access,
// not a load and a CAS.
package pmem

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Addr is a word index into a Heap's arena. 0 is Null.
type Addr uint64

// Null is the zero address. Loads of Null return 0; stores to Null panic.
const Null Addr = 0

// WordsPerLine is the simulated cache line size in 64-bit words (64 bytes).
const WordsPerLine = 8

// Model selects the persistency model from the paper's Section 2.
type Model int

const (
	// SharedCache: main memory is non-volatile, caches are volatile.
	// Writes reach persistence only through PWB/PSync (or eviction).
	SharedCache Model = iota
	// PrivateCache: shared variables are always persistent; persistency
	// instructions are no-ops with zero cost.
	PrivateCache
)

func (m Model) String() string {
	switch m {
	case SharedCache:
		return "shared-cache"
	case PrivateCache:
		return "private-cache"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Config parameterises a Heap.
type Config struct {
	// Words is the arena capacity in 64-bit words. Zero selects a default
	// suitable for tests (1<<20 words: 8 MiB of address space for the
	// volatile image, resident only as far as a run touches it).
	Words int
	// Procs is the number of process descriptors. Zero defaults to 1.
	Procs int
	// Model selects shared-cache (default) or private-cache persistency.
	Model Model
	// Tracked enables the persisted image and crash support. Benchmarks
	// leave it off: persistence instructions then only count and delay.
	Tracked bool
	// PWBLatency and PSyncLatency simulate the cost of clflush and mfence
	// in the shared cache model. Zero means no simulated delay.
	PWBLatency   time.Duration
	PSyncLatency time.Duration
	// EvictEvery, when Tracked and >0, makes roughly one in EvictEvery
	// stores also persist its cache line immediately, simulating an
	// arbitrary cache eviction. This widens the crash-state space tests
	// explore (persisted state may be *newer* than the last explicit sync).
	EvictEvery uint64
	// Seed feeds the per-proc PRNGs used for eviction decisions.
	Seed uint64
}

// Heap is a simulated persistent memory region shared by a set of Procs.
type Heap struct {
	// im owns the mappings vol, per and dirty lie in; holding it keeps them
	// mapped for as long as the heap can be reached (images).
	im *images

	vol []atomic.Uint64 // volatile image: what primitives act on
	per []atomic.Uint64 // persisted image (tracked mode only)

	// dirty is a per-cache-line bitmap (tracked mode only): bit l%64 of
	// word l/64 is set iff line l's volatile image may diverge from its
	// persisted image. Writers set a line's bit immediately after the
	// volatile store; persistLine clears it immediately before copying the
	// line back. That ordering keeps the invariant "volatile != persisted
	// implies dirty" under concurrency (a racing store re-dirties the line
	// after the clear, and the copy then already sees its value), at worst
	// leaving a spuriously dirty line — never a silently clean one. The
	// bitmap is what makes ResetAfterCrash O(dirty lines) instead of
	// O(used arena) and lets persistLine skip write-backs of clean lines.
	dirty []atomic.Uint64

	next    atomic.Uint64 // bump pointer (word index)
	cap     uint64
	procs   []*Proc
	model   Model
	tracked bool

	pwbSpin   int64 // calibrated spin iterations per PWB
	psyncSpin int64 // calibrated spin iterations per PSync

	evictEvery uint64

	// hook, when set, runs at every access of a tracked heap before it is
	// counted (SetAccessHook).
	hook func(*Proc)

	crashing  atomic.Bool // when set, every Proc panics at its next access
	epoch     atomic.Uint64
	accessCtr atomic.Uint64 // total pmem accesses (tracked mode, unconditional)
	crashAt   atomic.Uint64 // armed access-count threshold; 0 = disarmed

	// single marks a heap of one Proc, which counts its accesses in
	// accesses with a plain add: its one Proc runs on one goroutine at a
	// time, so the count needs no locked instruction. The numbering is
	// accessCtr's exactly (TestAccessCountOneProcDifferential).
	single   bool
	accesses uint64
}

// reserved words at the bottom of the arena (so Null==0 is never allocated,
// and the first line is never flushed by accident).
const reservedWords = WordsPerLine

// ProcRegionWords is the size of the region the heap reserves for each
// process right after the Null line (Proc.Region), at fixed addresses: the
// ISB engine keeps its per-process announcement record there.
const ProcRegionWords = 392

// NewHeap allocates a simulated persistent heap and its process descriptors.
func NewHeap(cfg Config) *Heap {
	if cfg.Words <= 0 {
		cfg.Words = 1 << 20
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	// Room for the Null line, the per-proc regions, and an arena.
	if min := 2*reservedWords + ProcRegionWords*cfg.Procs; cfg.Words < min {
		cfg.Words = min
	}
	h := &Heap{
		cap:        uint64(cfg.Words),
		model:      cfg.Model,
		tracked:    cfg.Tracked,
		evictEvery: cfg.EvictEvery,
		single:     cfg.Procs == 1,
	}
	var im *images
	if cfg.Tracked {
		im, _ = releasedImages(cfg.Words).Get().(*images)
	}
	if im == nil {
		im = newImages(cfg.Words, cfg.Tracked)
	}
	h.im, h.vol, h.per, h.dirty = im, im.vol, im.per, im.dirty
	h.next.Store(reservedWords + uint64(cfg.Procs)*ProcRegionWords)
	h.pwbSpin = spinIters(cfg.PWBLatency)
	h.psyncSpin = spinIters(cfg.PSyncLatency)
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	h.procs = make([]*Proc, cfg.Procs)
	for i := range h.procs {
		h.procs[i] = &Proc{
			h:   h,
			id:  i,
			rng: seed ^ (uint64(i)+1)*0xbf58476d1ce4e5b9,
		}
	}
	return h
}

// images are a heap's arrays: the volatile image and, on a tracked heap,
// the persisted image and the dirty bitmap. Each is a mapping of anonymous
// memory (mapWords), zero until a run touches it. The mappings lie outside
// the Go heap, so the images struct owns them: a cleanup unmaps them once it
// is unreachable, whether its heap was dropped unreleased or its released
// images were dropped by the pool. Between one heap's Release and the next
// NewHeap of the same size they are all zero.
type images struct{ vol, per, dirty []atomic.Uint64 }

// mapped counts the images whose mappings are not yet unmapped.
var mapped atomic.Int64

// newImages maps a heap's images: zero, and resident only where touched.
func newImages(words int, tracked bool) *images {
	im := &images{vol: mapWords(words)}
	if tracked {
		lines := (words + WordsPerLine - 1) / WordsPerLine
		im.per, im.dirty = mapWords(words), mapWords((lines+63)/64)
	}
	mapped.Add(1)
	runtime.AddCleanup(im, images.unmap, *im)
	return im
}

// unmap unmaps the images, once their owner is unreachable.
func (im images) unmap() {
	for _, w := range [][]atomic.Uint64{im.vol, im.per, im.dirty} {
		if w != nil {
			unmapWords(w)
		}
	}
	mapped.Add(-1)
}

// released pools images by Config.Words (a *sync.Pool each, so the garbage
// collector still takes what nobody asks for again).
var released sync.Map

func releasedImages(words int) *sync.Pool {
	p, _ := released.LoadOrStore(words, new(sync.Pool))
	return p.(*sync.Pool)
}

// Release ends a tracked heap's life and recycles its images: the next
// NewHeap of the same size gets them back, pages already faulted in,
// instead of mapping three fresh ones. Only the carved prefix [0, Used()) of
// the two images is cleared: nothing above the bump pointer is ever written.
// The heap must not be used again (its images are gone; any access panics),
// and no Proc may be running. A harness that builds a heap per crash offset
// calls this; a heap that is never released is unmapped once it is
// unreachable.
func (h *Heap) Release() {
	if !h.tracked || h.im == nil {
		return
	}
	n := min(h.next.Load(), h.cap)
	clear(h.vol[:n])
	clear(h.per[:n])
	clear(h.dirty)
	releasedImages(len(h.vol)).Put(h.im)
	h.im, h.vol, h.per, h.dirty = nil, nil, nil, nil
}

// Proc returns process descriptor id (0-based).
func (h *Heap) Proc(id int) *Proc {
	return h.procs[id]
}

// NumProcs reports how many process descriptors the heap was built with.
func (h *Heap) NumProcs() int { return len(h.procs) }

// Model reports the heap's persistency model.
func (h *Heap) Model() Model { return h.model }

// Used reports how many words have been allocated.
func (h *Heap) Used() uint64 { return h.next.Load() }

// Capacity reports the arena capacity in words.
func (h *Heap) Capacity() uint64 { return h.cap }

// allocChunk is the per-proc bump-allocation chunk size in words. Procs
// grab chunks from the shared bump pointer and carve objects locally, so
// allocation does not contend in the common case.
const allocChunk = 4096

// grabChunk advances the shared bump pointer.
func (h *Heap) grabChunk(words uint64) Addr {
	a := h.next.Add(words) - words
	if a+words > h.cap {
		panic(fmt.Sprintf("pmem: arena exhausted (cap %d words); configure a larger Config.Words", h.cap))
	}
	return Addr(a)
}

// ReadVolatile reads the volatile image directly (test/inspection helper;
// does not participate in crash injection).
func (h *Heap) ReadVolatile(a Addr) uint64 { return h.vol[a].Load() }

// ReadPersisted reads the persisted image (tracked mode only).
func (h *Heap) ReadPersisted(a Addr) uint64 {
	if !h.tracked {
		panic("pmem: ReadPersisted on untracked heap")
	}
	return h.per[a].Load()
}

// DivergedLines lists, in address order, the cache lines whose volatile
// image differs from the persisted one (tracked mode only): at a crash, the
// lines an eviction could still persist. A dirty line whose images agree
// would persist nothing new, so it is left out. The scan compares every
// used word rather than reading the dirty bitmap, so it can check the
// bitmap's invariant (TestDivergedLinesAreDirty).
func (h *Heap) DivergedLines() []Addr {
	var out []Addr
	for w := Addr(0); w < Addr(min(h.Used(), h.Capacity())); w++ {
		if h.ReadVolatile(w) != h.ReadPersisted(w) {
			line := lineOf(w)
			out = append(out, line)
			w = line + WordsPerLine - 1
		}
	}
	return out
}

// lineOf returns the first word of the cache line containing a.
func lineOf(a Addr) Addr { return a &^ (WordsPerLine - 1) }

// dirtyBit locates line l's bit in the dirty bitmap.
func dirtyBit(line Addr) (word int, mask uint64) {
	l := uint64(line) / WordsPerLine
	return int(l / 64), 1 << (l % 64)
}

// markDirty records that the line containing a may diverge from its
// persisted image. Must be called after the volatile store it covers (see
// the dirty field's invariant). The load-before-or keeps the common case —
// re-writing an already-dirty line — free of contended atomic RMWs.
func (h *Heap) markDirty(a Addr) {
	w, m := dirtyBit(lineOf(a))
	if d := &h.dirty[w]; d.Load()&m == 0 {
		d.Or(m)
	}
}

// persistLine copies one cache line from the volatile to the persisted
// image. Clean lines (volatile and persisted images already agree) are
// skipped outright. The per-word copy is not atomic across the line,
// mirroring real hardware where a line write-back races with subsequent
// cache updates; each persisted word is always *some* value the volatile
// word held at or after the write-back was issued. The dirty bit is cleared
// before the copy so a concurrent store either lands in the copy or
// re-dirties the line.
func (h *Heap) persistLine(line Addr) {
	w, m := dirtyBit(line)
	d := &h.dirty[w]
	if d.Load()&m == 0 {
		return
	}
	d.And(^m)
	h.copyLine(h.per, h.vol, line)
}

// copyLine copies one cache line from src to dst, clamped to the arena. It
// stores only the words that differ: a store is a locked exchange, a load
// is not, and a written-back line mostly holds words already persisted.
func (h *Heap) copyLine(dst, src []atomic.Uint64, line Addr) {
	end := line + WordsPerLine
	if end > Addr(h.cap) {
		end = Addr(h.cap)
	}
	for w := line; w < end; w++ {
		if v := src[w].Load(); dst[w].Load() != v {
			dst[w].Store(v)
		}
	}
}

// Crash initiates a system-wide crash: every Proc panics with a Crash value
// at its next pmem access. The harness must wait for all procs to unwind
// (e.g. via RunOp) and then call ResetAfterCrash before restarting them.
// Tracked mode only.
func (h *Heap) Crash() {
	if !h.tracked {
		panic("pmem: Crash on untracked heap")
	}
	h.crashing.Store(true)
}

// Crashing reports whether a crash is in progress.
func (h *Heap) Crashing() bool { return h.crashing.Load() }

// AccessCount returns the total number of pmem accesses performed so far in
// tracked mode, whether or not a crash is armed (used to schedule crashes at
// access granularity and to measure an operation's access span). Untracked
// heaps do not count: the counter is a shared atomic (a plain word on a
// one-Proc heap), and untracked heaps exist precisely so benchmarks skip
// that hot-path cost. On a one-Proc heap, read it only while the Proc is
// not running.
func (h *Heap) AccessCount() uint64 {
	if h.single {
		return h.accesses
	}
	return h.accessCtr.Load()
}

// ScheduleCrashAt arms a crash that fires when the global access counter
// reaches n: the Proc whose access crosses the threshold initiates the
// system-wide crash and panics, guaranteeing the crash lands mid-operation.
// Tracked mode only.
func (h *Heap) ScheduleCrashAt(n uint64) {
	if !h.tracked {
		panic("pmem: ScheduleCrashAt on untracked heap")
	}
	if n == 0 {
		n = 1
	}
	h.crashAt.Store(n)
}

// SetAccessHook installs f, a test hook, to run at every access of a tracked
// heap on the accessing Proc's goroutine, before the access is counted or can
// crash; nil removes it. A crash harness's scheduler decides there which Proc
// runs next (crash.Run). Set it while no Proc is running.
func (h *Heap) SetAccessHook(f func(*Proc)) { h.hook = f }

// DisarmCrash cancels a scheduled crash that has not fired yet.
func (h *Heap) DisarmCrash() { h.crashAt.Store(0) }

// ResetAfterCrash discards the volatile image: every allocated word reverts
// to its persisted value and the crash flag is cleared. Callers must
// guarantee no Proc is running.
//
// Only dirty lines — those whose volatile image diverged from the persisted
// image since their last write-back — are restored, and the bitmap is read
// only as far as the bump pointer (nothing above it was ever written), so
// the cost is O(dirty lines) plus a bitmap word per 512 used lines, not
// O(arena). TestResetAfterCrashDifferential pins the equivalence against a
// brute-force full-arena restore.
func (h *Heap) ResetAfterCrash() {
	if !h.tracked {
		panic("pmem: ResetAfterCrash on untracked heap")
	}
	lines := (min(h.Used(), h.cap) + WordsPerLine - 1) / WordsPerLine
	for wi := range h.dirty[:(lines+63)/64] {
		bitsw := h.dirty[wi].Load()
		if bitsw == 0 {
			continue
		}
		h.dirty[wi].Store(0)
		base := Addr(wi) * 64 * WordsPerLine
		for bitsw != 0 {
			line := base + Addr(bits.TrailingZeros64(bitsw))*WordsPerLine
			h.copyLine(h.vol, h.per, line)
			bitsw &= bitsw - 1
		}
	}
	h.finishReset()
}

// resetAfterCrashFull is the brute-force restore ResetAfterCrash replaced:
// every used word reverts to its persisted value regardless of dirty state.
// Kept as the differential-testing oracle.
func (h *Heap) resetAfterCrashFull() {
	if !h.tracked {
		panic("pmem: ResetAfterCrash on untracked heap")
	}
	n := h.next.Load()
	for w := uint64(0); w < n; w++ {
		h.vol[w].Store(h.per[w].Load())
	}
	for wi := range h.dirty {
		h.dirty[wi].Store(0)
	}
	h.finishReset()
}

// finishReset clears crash state once the volatile image is restored.
func (h *Heap) finishReset() {
	for _, p := range h.procs {
		p.crashed = false
		p.ResetSyncScope() // no admission survives a crash
	}
	h.epoch.Add(1)
	h.crashing.Store(false)
}

// DirtyLineCount reports how many cache lines currently diverge (or may
// diverge — spurious dirty bits are possible under races) from the persisted
// image. Tracked mode only; useful for tests and simulator metrics.
func (h *Heap) DirtyLineCount() int {
	n := 0
	for wi := range h.dirty {
		n += bits.OnesCount64(h.dirty[wi].Load())
	}
	return n
}

// Epoch counts completed crashes; useful for tests that must observe that a
// crash actually happened.
func (h *Heap) Epoch() uint64 { return h.epoch.Load() }
