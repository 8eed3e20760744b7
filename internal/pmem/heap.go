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
// The simulator keeps its own costs off the measured hot paths. A tracked
// heap maintains a per-cache-line dirty bitmap recording which lines'
// volatile image may diverge from the persisted image: line write-backs
// skip clean lines, and ResetAfterCrash restores only dirty lines —
// O(dirty), not O(used arena) — which is what makes every-crash-point
// conformance sweeps cheap enough to run densely. Barrier dedup
// (PBarrier/PBarrierAddrs) is exact for any phase size via a per-proc
// reusable line set, so each distinct line is flushed once and the hot
// path performs zero steady-state Go allocations. Tracked-mode accesses
// are counted unconditionally (AccessCount); untracked heaps skip the
// shared counter entirely.
package pmem

import (
	"fmt"
	"math/bits"
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
	// suitable for tests (1<<20 words = 8 MiB volatile image).
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

	annBase Addr // per-proc announcement regions (see the layout above annSum)

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
}

// reserved words at the bottom of the arena (so Null==0 is never allocated,
// and the first line is never flushed by accident).
const reservedWords = WordsPerLine

// Announcement record layout: one region per process, reserved in the heap
// layout right after the Null line. Every admission shape writes the same
// record — a durable vector of N legs behind one header — which the runtime's
// registry-routed recovery reads after a crash (see Proc.Announce):
//
//	word   0        1              2    3           4 … 4+2N-1        136 … 136+2N-3
//	     ┌────────┬──────────────┬────┬───────────┬────────────────┐ ┌───────────────────┐
//	     │ sum    │ N | atomic   │ –  │ admission │ leg 0 … leg N-1│ │ slot 0 … slot N-2 │
//	     └────────┴──────────────┴────┴───────────┴────────────────┘ └───────────────────┘
//	      bound by sum                  bound by sum  bound by sum    response, stamp
//
// A leg is two words: structure ID, flags and kind packed into the first,
// the argument in the second. A single operation is N = 1, a batch window N ≤
// MaxBatch non-atomic legs, a transaction an atomic vector. sum is the
// checksum over the count word, the admission number (Proc.Admission) and
// every leg, and the one word that makes the record valid: 0 means "no
// record", and a record torn across cache lines, or read under another
// admission number, fails it. The header and legs 0–1 share the first line,
// so announcing a single operation or a two-leg transaction is one
// write-back.
//
// A result slot is two words on one line: a closed leg's response, then the
// admission number it was written under (Proc.CloseLeg). A line persists as a
// unit and the number is stored after the response, so a slot stamped with
// the current admission number holds its leg's durable response; a slot of an
// older admission never matches, the number being monotone: no slot is
// stamped before its record's header is written back (StoreLegResult), so a
// number a crash rolls back was never stamped. The completed
// prefix is derived from the stamps: legs below the first unstamped slot have
// durable responses, the leg at it is the one possibly in flight, and legs
// above it never took effect. The last leg never gets a slot — its response
// stays in its engine's tracking record — so the prefix never reaches N.
const (
	annSum       = 0 // checksum over annMeta, annAdmission and every leg word (0 = no record)
	annMeta      = 1 // leg count | atomic flag << annAtomicShift
	annAdmission = 3 // admission number
	annLegs      = 4 // MaxBatch two-word legs

	annAtomicShift = 32

	// annResults is the first result slot word, on its own cache lines. Slots
	// are two-word aligned, so none straddles a line, and never cleared: only
	// a stamp that matches the current admission number counts.
	annResults = (annLegs + 2*MaxBatch + WordsPerLine - 1) &^ (WordsPerLine - 1)

	// annStride is the per-process announcement region size in words.
	annStride = annResults + 2*MaxBatch

	// Leg word 0 packs the structure ID above the flags above the kind.
	legFlagsShift  = 32
	legStructShift = 40
)

// MaxBatch bounds the number of legs one announcement can hold.
const MaxBatch = 64

// NewHeap allocates a simulated persistent heap and its process descriptors.
func NewHeap(cfg Config) *Heap {
	if cfg.Words <= 0 {
		cfg.Words = 1 << 20
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	// Room for the Null line, the per-proc announcement regions, and an arena.
	if min := 2*reservedWords + annStride*cfg.Procs; cfg.Words < min {
		cfg.Words = min
	}
	h := &Heap{
		cap:        uint64(cfg.Words),
		model:      cfg.Model,
		tracked:    cfg.Tracked,
		evictEvery: cfg.EvictEvery,
	}
	if !cfg.Tracked {
		h.vol = make([]atomic.Uint64, cfg.Words)
	} else if im, ok := releasedImages(cfg.Words).Get().(*images); ok {
		h.vol, h.per, h.dirty = im.vol, im.per, im.dirty
	} else {
		h.vol = make([]atomic.Uint64, cfg.Words)
		h.per = make([]atomic.Uint64, cfg.Words)
		lines := (cfg.Words + WordsPerLine - 1) / WordsPerLine
		h.dirty = make([]atomic.Uint64, (lines+63)/64)
	}
	h.annBase = reservedWords
	h.next.Store(reservedWords + uint64(cfg.Procs)*annStride)
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

// images are a tracked heap's three arrays, all zero, between one heap's
// Release and the next NewHeap of the same size.
type images struct{ vol, per, dirty []atomic.Uint64 }

// released pools images by Config.Words (a *sync.Pool each, so the garbage
// collector still takes what nobody asks for again).
var released sync.Map

func releasedImages(words int) *sync.Pool {
	p, _ := released.LoadOrStore(words, new(sync.Pool))
	return p.(*sync.Pool)
}

// Release ends a tracked heap's life and recycles its images: the next
// NewHeap of the same size gets them back instead of allocating — and
// zeroing — a whole arena. Only the carved prefix [0, Used()) is cleared:
// nothing above the bump pointer is ever written. The heap must not be used
// again (its images are gone; any access panics), and no Proc may be
// running. A harness that builds a heap per crash offset calls this; a heap
// that is never released is unaffected.
func (h *Heap) Release() {
	if !h.tracked || h.vol == nil {
		return
	}
	n := min(h.next.Load(), h.cap)
	clear(h.vol[:n])
	clear(h.per[:n])
	clear(h.dirty)
	releasedImages(len(h.vol)).Put(&images{h.vol, h.per, h.dirty})
	h.vol, h.per, h.dirty = nil, nil, nil
}

// Proc returns process descriptor id (0-based).
func (h *Heap) Proc(id int) *Proc {
	return h.procs[id]
}

// annAddr returns the first word of proc id's announcement region.
func (h *Heap) annAddr(id int) Addr { return h.annBase + Addr(id)*annStride }

// annCheck is one step of the announcement checksum: it folds two payload
// words into the running sum. Announce chains it over the count word and the
// admission number, then every leg, in order; the result slots are
// deliberately excluded — they are written as the vector progresses and carry
// their own defense, the admission-number stamp. An announcement is only valid
// if the persisted sum matches the persisted
// payload, which makes a partially persisted record (a crash between its
// stores and its pwbs, with some lines reaching persistence via simulated
// eviction) detectably invalid instead of a garbled route. The result is
// never zero, so a cleared header can never validate.
func annCheck(sum, a, b uint64) uint64 {
	x := sum*0x9e3779b97f4a7c15 ^ a*0xbf58476d1ce4e5b9 ^ b*0x94d049bb133111eb
	x ^= x >> 29
	x *= 0xff51afd7ed558ccd
	x ^= x >> 32
	if x == 0 {
		x = 1
	}
	return x
}

// NumProcs reports how many process descriptors the heap was built with.
func (h *Heap) NumProcs() int { return len(h.procs) }

// Model reports the heap's persistency model.
func (h *Heap) Model() Model { return h.model }

// Tracked reports whether the heap maintains a persisted image.
func (h *Heap) Tracked() bool { return h.tracked }

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

// copyLine copies one cache line from src to dst, clamped to the arena.
func (h *Heap) copyLine(dst, src []atomic.Uint64, line Addr) {
	end := line + WordsPerLine
	if end > Addr(h.cap) {
		end = Addr(h.cap)
	}
	for w := line; w < end; w++ {
		dst[w].Store(src[w].Load())
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
// heaps do not count: the counter is a shared atomic, and untracked heaps
// exist precisely so benchmarks skip that hot-path cost.
func (h *Heap) AccessCount() uint64 { return h.accessCtr.Load() }

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
// image since their last write-back — are restored, so the cost is
// O(dirty lines), not O(used arena). TestResetAfterCrashDifferential pins
// the equivalence against a brute-force full-arena restore.
func (h *Heap) ResetAfterCrash() {
	if !h.tracked {
		panic("pmem: ResetAfterCrash on untracked heap")
	}
	for wi := range h.dirty {
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
