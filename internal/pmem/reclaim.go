package pmem

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Reclaimer is an epoch-based memory reclaimer whose persistent state is a
// slab directory and, per slab, a durable dead bitmap: one bit per block,
// set while the block is free and clear while it may be in use. The free
// pool survives a crash in those bits; everything else — the global epoch,
// per process a pin, a retired ring and one stack of ready blocks per size
// class, and per block a reuse version — is Go-side state that no recovery
// path reads. The reclaimer reads and writes bitmap and directory words
// only, never a block's own.
//
// # Normal operation
//
// Blocks are carved from slabs (even-aligned regions grabbed from the shared
// bump pointer, each serving one size class, its bitmap on its own line(s)
// just below it), recorded durably in the slab directory before any block
// from them is handed out: the bitmap, every block free, then the entry and
// the count that publish it — a pwb per bitmap line and two. The directory
// entry names the slab's blocks; the bitmap sits below them, at an offset its
// class fixes. Alloc pops the process's stack for the block's class; an empty
// stack is refilled from an unclaimed slab (adopt, below), else from a new
// one. The pop clears the block's dead bit with one read-modify-write (flip)
// and hands its line to the process's next barrier (Proc.Carry). Retire sets
// the bit the same way, appends ⟨block, class, epoch⟩ to the process's ring
// and occasionally tries to advance the global epoch. A ring that fills while
// a pinned peer stalls the epoch grows (and keeps its capacity), so a stalled
// peer costs memory held in rings, never a lost retirement. An entry goes on
// the stack once the global epoch is two ahead of the entry's epoch: every
// process pinned when the block was unlinked has exited or re-entered since,
// so no reference survives. Free pushes a never-published block at once. A
// reused block keeps what it held: every caller of Alloc initializes the
// words it reads (Allocator). Epoch pins ride the ISB engine's operation
// entry (see isb.Engine) and are Go-side atomics, so they cost no heap
// access. Lookups go through a table indexed by address / slabWords: O(1),
// two probes at most.
//
// # The dead bitmap
//
// A bit is durable only once a barrier wrote its line back; until then a
// crash may find either value. Three rules make every value a crash can
// leave safe:
//
//   - (i) Setting a bit. Retire and Free set it once the block can be
//     reused after any crash: its unlink is durable and no recovery still
//     consults it — retireLast, retireAffected, the failed-tag path and
//     discardAttempt in the ISB engine guarantee both. After a crash no
//     process holds a reference, so the epoch grace is moot there.
//   - (ii) Clearing a bit. An allocation clears it, and the line rides the
//     allocating admission's install barrier (or the constructor's barrier
//     for a structure's sentinels), which precedes any CAS that links the
//     block: a linked block's bit is durably clear.
//   - (iii) In-flight exclusion. Under Isb-Opt the register that names an
//     install's record (RD_q) is written back by the same barrier as the
//     record's cleared bit, and a crash inside it may persist one without
//     the other. Runtime.RecoverAll therefore clears, before anything
//     allocates, the bit of every block a register names, and of the dead
//     blocks such a kept block's words name, transitively (Keep): an
//     O(Procs × in flight) closure whose clears ride the next barrier.
//
// # Crash recovery
//
// Recover, driven by Runtime.RecoverAll before any operation recovery runs,
// resets the Go-side state — rings, stacks, pins — and moves the epoch on,
// with no heap access, no pwb and no psync, and starts a new pool generation in which
// every slab is unclaimed. The pool is then whatever the bitmaps say: an
// Alloc whose stack is empty adopts the next unclaimed slab of its class,
// reading its whole bitmap, so a recovery costs nothing per slab and an
// allocation one read per bitmap word of a slab it adopts. Blocks retired or
// freed after the crash in a slab nobody has claimed yet are marked late,
// and adoption leaves them to the ring or the stack they went to. A block a
// process held unpublished at the crash — the Info record an ISB engine
// keeps for its next attempt — comes back through Return before anything
// allocates: its dead bit is set, or left set, and adoption pools it. The
// Go-side slab index is kept across a crash as a cache of the directory,
// like the heap's bump pointer; nothing the pool is rebuilt from is Go-side.
//
// What a crash can still lose is booked, in words, as garbage: dead bits a
// process set since its last barrier (Retire, Free — its carried lines may
// not have reached NVM), blocks RecoverAll keeps out of the pool (iii),
// retirements dropped before Recover ran. Not booked: what was in flight —
// the nodes a crashed attempt allocated whose cleared bits persisted, at
// most an attempt's nodes plus its Info record per process per crash, and
// the ISB engine's retired-class operands its recovery does not retire.
// Those blocks are live-but-unreachable until a Scan returns them. The full
// conservative scan (Scan) is the rare fallback, which Recover runs inside
// the same call only when the garbage has caught up with the rest of the
// heap:
//
//	garbage × 2 ≥ words carved
//
// — a GOGC-style rule on two counts the reclaimer keeps anyway (in words:
// the size classes differ 8×, and it is the heap the rule bounds). Scan:
//
//  1. marks every block reachable from the structures' roots or referenced
//     by an announced in-flight operation's Info record (conservative:
//     anything recovery might still touch survives);
//  2. resets the Go-side state as above;
//  3. rewrites every bitmap — marked blocks in use, every other handed-out
//     block free — and writes the bitmaps back with one barrier; the
//     garbage account restarts at 0.
//
// Scan is also the oracle the tests hold the fast path to (Audit).
//
// Until Recover (or Scan) has run after a crash, the reclaimer runs in a
// safe degraded mode: Alloc drops what its stacks held before the crash and
// adopts no slab, and Retire drops retirements (counted in Stats.Dropped and
// as garbage).
type Reclaimer struct {
	h *Heap

	dirBase  Addr // slab directory: word 0 = count, then one word per slab
	maxSlabs uint64

	// classes maps size-class index to block size in words (write-once
	// entries; lock-free readers, mu-serialized writers).
	classes  [maxClasses]atomic.Uint64
	nclasses atomic.Uint64
	mu       sync.Mutex // slab directory + class registration

	// slabs lists every slab in creation order, copy-on-append, so that
	// iteration is lock-free; table resolves an address to its slab
	// (lookup): entry k is the slab whose first block lies in [k, k+1) ×
	// slabWords.
	slabs atomic.Pointer[[]*slab]
	table []atomic.Pointer[slab]

	epoch atomic.Uint64 // the global epoch
	pins  []pin
	procs []reclaimProc

	// scanEpoch is the heap crash-epoch the reclaimer state is valid for;
	// when it trails h.Epoch() a crash happened and Recover has not run yet
	// (degraded mode).
	scanEpoch atomic.Uint64

	// gen numbers the pools: Recover and Scan start a new one, in which no
	// slab is claimed yet. adoptAt is, per class, the index into slabs the
	// next adoption looks at.
	gen     atomic.Uint64
	adoptAt [maxClasses]atomic.Int64

	// garbage counts the words lost since the last full scan (see Crash
	// recovery). Recover weighs it against carved, the words ever handed
	// out, to decide whether this crash pays for a Scan. It may over-count,
	// never under-count.
	garbage atomic.Uint64
	carved  atomic.Uint64
	// mode is the test hook behind ForceRecovery.
	mode RecoveryMode

	// frozen suspends epoch advance and freeing (Retire still records).
	// Runtime.RecoverAll freezes around operation recovery: recovery runs
	// the processes sequentially, and an early process's re-invoked
	// operations must not free blocks a later process's still-unrecovered
	// Info record names.
	frozen atomic.Bool

	// stats holds the rare counters; Carved, Reused, Retired and Freed are
	// per process (reclaimProc.counts), and Stats sums them.
	stats ReclaimStats
}

// pin is one process's epoch pin: 0 when unpinned, else the epoch it
// observed at Enter. Owner-written, read by every peer's advanceAndFree,
// so it sits on a cache line of its own (TestPinFillsCacheLines).
type pin struct {
	epoch atomic.Uint64
	_     [WordsPerLine*8 - 8]byte
}

// reclaimProc is the Go-side per-process state, written only by its owner
// (and by Recover and Scan, with no process running). Its owner writes it at
// every Alloc and Retire, so it fills whole cache lines and two never share
// one (TestReclaimProcFillsCacheLines).
type reclaimProc struct {
	// ring is the retired FIFO, a power-of-two circular buffer of n entries
	// from head; a full ring doubles.
	ring    []retired
	head, n int
	// free holds, per class, the blocks the process hands out next, popped
	// from the end. A stack filled before the heap epoch heapEpoch is stale:
	// Alloc empties it (see Crash recovery).
	free      [maxClasses][]Addr
	heapEpoch uint64
	// pend counts the words whose dead bit the process set since its
	// barrier number pendAt (Proc.barriers): what a crash before its next
	// barrier may lose.
	pend, pendAt uint64
	// counts are the process's Carved, Reused, Retired and Freed events
	// (ReclaimStats), written by the owner only and summed by Stats; reset
	// leaves them, so they stay monotone across Recover and Scan.
	counts [nCounts]atomic.Uint64
}

// The per-process event counters.
const (
	cCarved = iota
	cReused
	cRetired
	cFreed
	nCounts
)

// retired is one ring entry: a block of class unlinked in epoch.
type retired struct {
	block Addr
	class int
	epoch uint64
}

// push appends e to the ring, doubling it when full.
func (ps *reclaimProc) push(e retired) {
	if ps.n == len(ps.ring) {
		grown := make([]retired, 2*len(ps.ring))
		k := copy(grown, ps.ring[ps.head:])
		copy(grown[k:], ps.ring[:ps.head])
		ps.ring, ps.head = grown, 0
	}
	ps.ring[(ps.head+ps.n)&(len(ps.ring)-1)] = e
	ps.n++
}

// eachHeld calls f for every block the process holds: its ring entries,
// then its stacks.
func (ps *reclaimProc) eachHeld(f func(Addr)) {
	for i := 0; i < ps.n; i++ {
		f(ps.ring[(ps.head+i)&(len(ps.ring)-1)].block)
	}
	for _, st := range ps.free {
		for _, a := range st {
			f(a)
		}
	}
}

// empty empties the stacks and stamps them with the heap epoch e.
func (ps *reclaimProc) empty(e uint64) {
	for c := range ps.free {
		ps.free[c] = ps.free[c][:0]
	}
	ps.heapEpoch = e
}

// setDead notes that p set a dead bit of words words: lost if p crashes
// before its next barrier.
func (ps *reclaimProc) setDead(p *Proc, words uint64) {
	if p.barriers != ps.pendAt {
		ps.pend, ps.pendAt = 0, p.barriers
	}
	ps.pend += words
}

// slab is one carved region serving blocks of a single size class.
type slab struct {
	base  Addr   // the first block
	bits  Addr   // the dead bitmap, line-aligned, below base
	class int    // size-class index
	size  uint64 // block words, a power of two
	shift uint   // log2 of size
	n     uint64 // blocks

	// gen is the pool generation (Reclaimer.gen) the slab was claimed in:
	// by the process that carved it, or by the one that adopted it.
	gen atomic.Uint64
	// version is each block's reuse version (Reclaimer.Version): Alloc
	// adds one at every handout, before the new owner's first store.
	version []atomic.Uint64
	// hw is the high-water mark: blocks [0, hw) were handed out at least
	// once. Every pop reads it; only the pop of a block never handed out,
	// which only the slab's claimer holds, raises it.
	hw atomic.Uint64
	// late marks the blocks retired or freed in the current generation
	// while the slab was unclaimed: they reach a ring or a stack, and its
	// adoption leaves them out.
	late []atomic.Uint64
	// marks are the scan's mark bits.
	marks []uint64
}

// Sizes and thresholds.
const (
	maxClasses = 4
	slabWords  = 2048
	ringCap    = 128 // initial retired-ring entries per process (a power of two)

	// firstEpoch is the starting global epoch; nonzero so a pin of 0
	// unambiguously means "unpinned".
	firstEpoch = 2

	// ringFreeThreshold triggers an advance/free pass from Retire.
	ringFreeThreshold = 64
)

// ReclaimStats counts reclaimer events, monotone within a run, Recover and
// Scan included. Carved, Reused, Retired and Freed are summed over the
// processes.
type ReclaimStats struct {
	Carved   uint64 // blocks handed out for the first time
	Reused   uint64 // blocks handed out again
	Retired  uint64 // retirements recorded in a ring
	Freed    uint64 // blocks moved ring → stack after grace
	Dropped  uint64 // retirements dropped (degraded mode, between a crash and Recover)
	Advances uint64 // successful global epoch advances

	FastRecoveries uint64 // crashes recovered by the reset alone
	FullScans      uint64 // conservative scans run (by Recover's rule or directly)
}

// ScanReport summarises one post-crash recovery of the reclaimer: Recover's
// fast reset (Full false; Marked and Swept 0) or a full Scan.
type ScanReport struct {
	Full    bool   // the conservative scan ran
	Marked  uint64 // handed-out blocks kept in use (reachable or announced-operand)
	Swept   uint64 // handed-out blocks the scan returned to the pool (their bit was clear)
	Dropped uint64 // words this crash may have lost: dead bits not yet written back
	Garbage uint64 // words lost since the last full scan, this crash's included
}

// RecoveryMode overrides Recover's garbage rule. Test hook: the crash
// sweeps run every recovery fast, then every recovery full.
type RecoveryMode int

const (
	RecoverAuto RecoveryMode = iota // full scan when garbage × 2 ≥ words carved
	RecoverFast                     // never scan
	RecoverFull                     // scan at every crash
)

// NewReclaimer reserves the reclaimer's slab directory on h and sets up its
// Go-side state.
func NewReclaimer(h *Heap) *Reclaimer {
	n := h.NumProcs()
	r := &Reclaimer{h: h, pins: make([]pin, n), procs: make([]reclaimProc, n)}
	r.maxSlabs = h.Capacity()/slabWords + 1
	r.dirBase = h.Proc(0).Alloc(1 + r.maxSlabs)
	r.table = make([]atomic.Pointer[slab], r.maxSlabs+1)
	for id := range r.procs {
		r.procs[id].ring = make([]retired, ringCap)
		r.procs[id].heapEpoch = h.Epoch()
	}
	r.epoch.Store(firstEpoch)

	empty := make([]*slab, 0)
	r.slabs.Store(&empty)
	r.scanEpoch.Store(h.Epoch())
	return r
}

// synced reports whether the reclaimer's volatile state is trustworthy: no
// crash has happened since construction or the last completed Recover/Scan.
func (r *Reclaimer) synced() bool { return r.scanEpoch.Load() == r.h.Epoch() }

// classFor returns the size-class index for a block of words words,
// registering a new class on first sight (at most maxClasses distinct
// sizes; the repository needs two — 4-word nodes and 32-word Info records).
func (r *Reclaimer) classFor(words uint64) int {
	words = (words + 1) &^ 1
	n := int(r.nclasses.Load())
	for c := 0; c < n; c++ {
		if r.classes[c].Load() == words {
			return c
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n = int(r.nclasses.Load())
	for c := 0; c < n; c++ {
		if r.classes[c].Load() == words {
			return c
		}
	}
	if n == maxClasses {
		panic(fmt.Sprintf("pmem: reclaimer size-class table full (size %d)", words))
	}
	if slabWords%words != 0 {
		panic(fmt.Sprintf("pmem: reclaimer block size %d does not divide slab size %d", words, slabWords))
	}
	r.classes[n].Store(words)
	r.nclasses.Store(uint64(n + 1))
	return n
}

// newSlab carves a fresh slab for class, claimed by the calling process, and
// makes it durable before any block from it can be handed out: its bitmap,
// every block free, then the directory entry (base<<3 | class) and the count
// that publishes it. A crash between the pwbs loses at most this one (still
// unused) slab to the arena. It pushes the slab's blocks on the process's
// stack, the highest first, so they pop in ascending order.
func (r *Reclaimer) newSlab(p *Proc, class int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := *r.slabs.Load()
	if uint64(len(idx)) >= r.maxSlabs {
		panic("pmem: reclaimer slab directory full")
	}
	size := r.classes[class].Load()
	n := slabWords / size
	words := (n + 63) / 64
	below := (words + WordsPerLine - 1) &^ (WordsPerLine - 1)
	// One line of slack aligns the bitmap whatever the bump pointer's
	// alignment, so that a slab of 4-word blocks keeps its bits on one line.
	raw := r.h.grabChunk(below + slabWords + WordsPerLine)
	bm := lineOf(raw + WordsPerLine - 1)
	s := &slab{base: bm + Addr(below), bits: bm, class: class, size: size, shift: uint(bits.TrailingZeros64(size)),
		n: n, version: make([]atomic.Uint64, n), late: make([]atomic.Uint64, words), marks: make([]uint64, words)}
	s.gen.Store(r.gen.Load())
	for w := uint64(0); w < words; w++ {
		p.Store(bm+Addr(w), ^uint64(0)>>(64-min(64, n-w*64)))
	}
	for line := bm; line < s.base; line += WordsPerLine {
		p.PWB(line)
	}
	p.Store(r.dirBase+1+Addr(len(idx)), uint64(s.base)<<3|uint64(class))
	p.PWB(r.dirBase + 1 + Addr(len(idx)))
	p.Store(r.dirBase, uint64(len(idx))+1)
	p.PWB(r.dirBase)
	r.table[uint64(s.base)/slabWords].Store(s)
	next := make([]*slab, len(idx)+1)
	copy(next, idx)
	next[len(idx)] = s
	r.slabs.Store(&next)
	ps := &r.procs[p.ID()]
	for bi := n; bi > 0; bi-- {
		ps.free[class] = append(ps.free[class], s.base+Addr((bi-1)<<s.shift))
	}
}

// lookup resolves a to its slab, block start and block index; ok is false
// for addresses outside every slab's blocks.
func (r *Reclaimer) lookup(a Addr) (s *slab, start Addr, bi uint64, ok bool) {
	k := uint64(a) / slabWords
	if k >= uint64(len(r.table)) {
		return nil, 0, 0, false
	}
	if s = r.table[k].Load(); (s == nil || a < s.base) && k > 0 {
		s = r.table[k-1].Load()
	}
	if s == nil || a < s.base || a >= s.base+slabWords {
		return nil, 0, 0, false
	}
	bi = uint64(a-s.base) >> s.shift
	return s, s.base + Addr(bi<<s.shift), bi, true
}

// BlockOf resolves an interior pointer to its containing block.
func (r *Reclaimer) BlockOf(a Addr) (Addr, uint64, bool) {
	s, start, _, ok := r.lookup(a)
	if !ok {
		return 0, 0, false
	}
	return start, s.size, true
}

// flip sets (dead) or clears block bi's dead bit with one read-modify-write
// (Proc.FetchOr, Proc.FetchAndNot), and carries its line to p's next barrier
// if the bit changed. It reports whether it did.
func (r *Reclaimer) flip(p *Proc, s *slab, bi uint64, dead bool) bool {
	w, m := s.bits+Addr(bi/64), uint64(1)<<(bi%64)
	var old uint64
	if dead {
		old = p.FetchOr(w, m)
	} else {
		old = p.FetchAndNot(w, m)
	}
	if old&m != 0 == dead {
		return false
	}
	p.Carry(w)
	return true
}

// Alloc serves a block of at least words words from the calling process's
// stack for its class, refilled when empty from a slab it adopts, else from
// one it carves. Until Recover has run after a crash it adopts nothing, and
// it empties the stacks filled before the crash. A reused block comes as its
// last user or the crash left it: the caller initializes what it reads
// (Allocator).
func (r *Reclaimer) Alloc(p *Proc, words uint64) Addr {
	class := r.classFor(words)
	ps := &r.procs[p.ID()]
	if e := r.h.Epoch(); ps.heapEpoch != e {
		ps.empty(e)
	}
	for len(ps.free[class]) == 0 {
		if !r.synced() || !r.adopt(p, class) {
			r.newSlab(p, class)
		}
	}
	st := ps.free[class]
	a := st[len(st)-1]
	ps.free[class] = st[:len(st)-1]
	s, _, bi, _ := r.lookup(a)
	s.version[bi].Add(1)
	r.flip(p, s, bi, false)
	if hw := s.hw.Load(); bi < hw {
		ps.counts[cReused].Add(1)
	} else {
		r.carved.Add((bi + 1 - hw) * s.size)
		s.hw.Store(bi + 1)
		ps.counts[cCarved].Add(1)
	}
	return a
}

// adopt refills p's stack for class from the next slab of class no process
// has claimed in this generation: it pushes, the highest first, every block
// whose dead bit is set but those marked late, and only then claims the
// slab; a process that loses the claim keeps none of it. The late mark is
// set before a Retire or Free sets the bit and read after it, so a block
// whose bit adopt reads set on its way to a ring or a stack is left out.
// After the claim nothing reads the bitmap again in this generation — a new
// one starts only in Recover or Scan, with no process running — so kill
// stops marking. It reports false when no slab of class is left unclaimed.
func (r *Reclaimer) adopt(p *Proc, class int) bool {
	ps := &r.procs[p.ID()]
	idx := *r.slabs.Load()
	g := r.gen.Load()
	for {
		i := r.adoptAt[class].Add(1) - 1
		if i >= int64(len(idx)) {
			return false
		}
		s := idx[i]
		old := s.gen.Load()
		if s.class != class || old == g {
			continue
		}
		st := ps.free[class]
		for w := len(s.late) - 1; w >= 0; w-- {
			for free := p.Load(s.bits+Addr(w)) &^ s.late[w].Load(); free != 0; {
				b := 63 - bits.LeadingZeros64(free)
				free &^= 1 << b
				st = append(st, s.base+Addr(uint64(w*64+b)<<s.shift))
			}
		}
		if s.gen.CompareAndSwap(old, g) {
			ps.free[class] = st
			return true
		}
	}
}

// Free returns a never-published block straight to the calling process's
// stack (no grace period: no other process can hold a reference).
func (r *Reclaimer) Free(p *Proc, a Addr) {
	if !r.synced() {
		return
	}
	s, start, bi, ok := r.lookup(a)
	if !ok || !r.kill(p, s, bi) {
		return
	}
	ps := &r.procs[p.ID()]
	ps.free[s.class] = append(ps.free[s.class], start)
}

// Return gives back to the pool a block a crash stranded: one a process
// held, unpublished, when the crash came — the Info record an ISB engine
// keeps for its next attempt. It sets the block's dead bit, carried to p's
// next barrier and booked like Free's, and nothing else: no late mark and
// no stack, since the slab's next adoption pools the block from its
// bit. (Free would mark it late, and a block whose bit a crash had already
// set would then drop out of the pool.) Call it after Recover and before
// anything allocates, while no slab is claimed: Runtime.RecoverAll does.
func (r *Reclaimer) Return(p *Proc, a Addr) {
	if s, _, bi, ok := r.lookup(a); ok && r.synced() && r.flip(p, s, bi, true) {
		r.procs[p.ID()].setDead(p, s.size)
	}
}

// kill marks block bi late while s is unclaimed in this generation, and sets
// its dead bit, reporting whether it was in use (see adopt for the order).
func (r *Reclaimer) kill(p *Proc, s *slab, bi uint64) bool {
	if s.gen.Load() != r.gen.Load() {
		s.late[bi/64].Or(1 << (bi % 64))
	}
	if !r.flip(p, s, bi, true) {
		return false
	}
	r.procs[p.ID()].setDead(p, s.size)
	return true
}

// Retire records that the block containing a has been unlinked: its dead bit
// is set and carried, and ⟨block, epoch⟩ is appended to the calling
// process's ring. Already retired, freed or unknown blocks are ignored,
// which makes the recovery-path retire calls idempotent.
func (r *Reclaimer) Retire(p *Proc, a Addr) {
	s, start, bi, ok := r.lookup(a)
	if !ok {
		return
	}
	if !r.synced() {
		r.drop(s.size)
		return
	}
	if !r.kill(p, s, bi) {
		return
	}
	ps := &r.procs[p.ID()]
	ps.push(retired{start, s.class, r.epoch.Load()})
	ps.counts[cRetired].Add(1)
	if ps.n >= ringFreeThreshold {
		r.advanceAndFree(p)
	}
}

// drop counts a retirement that reaches no ring: the block's words are
// garbage from this moment.
func (r *Reclaimer) drop(words uint64) {
	atomic.AddUint64(&r.stats.Dropped, 1)
	r.garbage.Add(words)
}

// Enter pins the calling process in the current epoch (refreshing any
// existing pin). The pin only gates the epoch within a run; post-crash
// recovery releases stuck pins. A pin that trails the epoch by the time it
// is published only holds the epoch back until the process re-enters.
func (r *Reclaimer) Enter(p *Proc) {
	r.pins[p.ID()].epoch.Store(r.epoch.Load())
}

// Version is the reuse version of the block containing a (Allocator): how
// many times Alloc has handed it out. It is 0 for an address outside every
// slab.
func (r *Reclaimer) Version(a Addr) uint64 {
	s, _, bi, ok := r.lookup(a)
	if !ok {
		return 0
	}
	return s.version[bi].Load()
}

// Exit releases the calling process's pin.
func (r *Reclaimer) Exit(p *Proc) {
	r.pins[p.ID()].epoch.Store(0)
}

// advanceAndFree tries to advance the global epoch (allowed once every
// pinned process has observed the current one) and then frees the prefix
// of the calling process's ring whose entries are two epochs old: every
// pin taken before those blocks were unlinked has been refreshed or
// released since, so no live reference remains.
func (r *Reclaimer) advanceAndFree(p *Proc) {
	if r.frozen.Load() {
		return
	}
	epoch := r.epoch.Load()
	canAdvance := true
	for q := range r.pins {
		if pin := r.pins[q].epoch.Load(); pin != 0 && pin != epoch {
			canAdvance = false
			break
		}
	}
	if canAdvance && r.epoch.CompareAndSwap(epoch, epoch+1) {
		atomic.AddUint64(&r.stats.Advances, 1)
	}
	epoch = r.epoch.Load()

	ps := &r.procs[p.ID()]
	for ; ps.n > 0; ps.n-- {
		e := ps.ring[ps.head]
		if e.epoch+2 > epoch {
			return // grace period not over for this (and later) entries
		}
		ps.free[e.class] = append(ps.free[e.class], e.block)
		ps.counts[cFreed].Add(1)
		ps.head = (ps.head + 1) & (len(ps.ring) - 1)
	}
}

// Freeze suspends epoch advance and freeing until Thaw; Retire keeps
// recording (the rings grow). Used around sequential post-crash operation
// recovery.
func (r *Reclaimer) Freeze() { r.frozen.Store(true) }

// Thaw resumes epoch advance and freeing.
func (r *Reclaimer) Thaw() { r.frozen.Store(false) }

// Stats returns a snapshot of the reclaimer's event counters.
func (r *Reclaimer) Stats() ReclaimStats {
	st := ReclaimStats{
		Dropped:  atomic.LoadUint64(&r.stats.Dropped),
		Advances: atomic.LoadUint64(&r.stats.Advances),

		FastRecoveries: atomic.LoadUint64(&r.stats.FastRecoveries),
		FullScans:      atomic.LoadUint64(&r.stats.FullScans),
	}
	for id := range r.procs {
		c := &r.procs[id].counts
		st.Carved += c[cCarved].Load()
		st.Reused += c[cReused].Load()
		st.Retired += c[cRetired].Load()
		st.Freed += c[cFreed].Load()
	}
	return st
}

// LiveBlocks counts the handed-out blocks in use or awaiting grace: those
// whose dead bit is clear in the volatile image, and the ring entries.
func (r *Reclaimer) LiveBlocks() uint64 {
	var n uint64
	for _, s := range *r.slabs.Load() {
		for bi := uint64(0); bi < s.hw.Load(); bi++ {
			if r.h.ReadVolatile(s.bits+Addr(bi/64))>>(bi%64)&1 == 0 {
				n++
			}
		}
	}
	for id := range r.procs {
		n += uint64(r.procs[id].n)
	}
	return n
}

// ForceRecovery overrides Recover's garbage rule (test hook; call with no
// process running).
func (r *Reclaimer) ForceRecovery(m RecoveryMode) { r.mode = m }

// Forget drops every Go-side record of which blocks are free — the rings,
// the stacks, the late marks — and of which blocks were ever handed out, and
// how often (the versions), as a restarted process would have none of them.
// Test hook, for after a crash and before Runtime.RecoverAll: the pool must
// then come back from the bitmaps alone.
// The counters and the garbage account, which only price recoveries, stay.
func (r *Reclaimer) Forget() {
	for id := range r.procs {
		ps := &r.procs[id]
		ps.head, ps.n = 0, 0
		ps.free = [maxClasses][]Addr{}
	}
	for _, s := range *r.slabs.Load() {
		s.hw.Store(s.n)
		clear(s.marks)
		clear(s.version)
		for w := range s.late {
			s.late[w].Store(0)
		}
	}
}

// Recover is the reclaimer's post-crash entry point, called by
// Runtime.RecoverAll with no process running. It books what the crash may
// have lost (dead bits set since a process's last barrier), then either
// resets the Go-side state — no heap access, nothing freed: the pool is
// the bitmaps — or, when garbage × 2 ≥ words carved, runs the full Scan with
// mark. Like Scan it may itself crash at any point and simply be re-run; a
// re-run may count a block as garbage twice, never miss one.
func (r *Reclaimer) Recover(p *Proc, mark func(mark func(Addr))) ScanReport {
	var dropped uint64
	if r.h.model != PrivateCache {
		for id := range r.procs {
			if ps := &r.procs[id]; ps.pendAt == r.h.procs[id].barriers {
				dropped += ps.pend
			}
		}
	}
	garbage := r.garbage.Add(dropped)

	full := garbage*2 >= r.carved.Load()
	if r.mode != RecoverAuto {
		full = r.mode == RecoverFull
	}
	var rep ScanReport
	if full {
		rep = r.Scan(p, mark)
	} else {
		r.reset()
		atomic.AddUint64(&r.stats.FastRecoveries, 1)
	}
	rep.Dropped, rep.Garbage = dropped, garbage
	return rep
}

// reset empties the rings and the stacks, stamping each with the heap epoch,
// drops the late marks, releases the pins, moves the epoch on past every pin
// taken before the crash, starts a new pool generation and leaves degraded
// mode. It touches no heap word.
func (r *Reclaimer) reset() {
	for id := range r.procs {
		ps := &r.procs[id]
		ps.head, ps.n, ps.pend = 0, 0, 0
		ps.empty(r.h.Epoch())
		r.pins[id].epoch.Store(0)
	}
	for _, s := range *r.slabs.Load() {
		for w := range s.late {
			s.late[w].Store(0)
		}
	}
	for c := range r.adoptAt {
		r.adoptAt[c].Store(0)
	}
	r.gen.Add(1)
	r.epoch.Add(1)
	r.scanEpoch.Store(r.h.Epoch())
}

// Keep takes the block containing a out of the pool if its dead bit is set:
// it clears the bit, carried to p's next barrier, books the block as
// garbage (nothing will retire it) and returns it with kept true. Any other
// address returns kept false. Runtime.RecoverAll calls it for the blocks
// recovery may still consult (rule iii) before anything allocates.
func (r *Reclaimer) Keep(p *Proc, a Addr) (start Addr, words uint64, kept bool) {
	s, start, bi, ok := r.lookup(a)
	if !ok || !r.flip(p, s, bi, false) {
		return 0, 0, false
	}
	r.garbage.Add(s.size)
	return start, s.size, true
}

// MarkBlock sets the scan mark on the handed-out block containing a and
// returns the block with fresh true the first time; any other address, a
// never handed-out block or an already marked one returns fresh false. It
// is what Scan's mark callback does, exposed so a caller computing a
// transitive closure can push exactly the newly marked blocks.
func (r *Reclaimer) MarkBlock(a Addr) (start Addr, words uint64, fresh bool) {
	s, start, bi, ok := r.lookup(a)
	if !ok || bi >= s.hw.Load() || s.marks[bi/64]>>(bi%64)&1 != 0 {
		return 0, 0, false
	}
	s.marks[bi/64] |= 1 << (bi % 64)
	return start, s.size, true
}

// clearMarks drops every scan mark bit.
func (r *Reclaimer) clearMarks() {
	for _, s := range *r.slabs.Load() {
		clear(s.marks)
	}
}

// handedOut is the mask of word w of s's bitmap covering blocks [0, hw).
func (s *slab) handedOut(w int) uint64 {
	lo, hw := uint64(w)*64, s.hw.Load()
	if hw <= lo {
		return 0
	}
	return ^uint64(0) >> (64 - min(64, hw-lo))
}

// Scan is the full conservative scan: the slow path of Recover, and the
// oracle the tests check the fast path against. mark must invoke its
// callback for (at least) every address reachable from a structure root
// and every address an announced in-flight operation's Info record
// mentions; the callback tolerates arbitrary values (non-block addresses
// are ignored). Scan rebuilds the pool from the marks: every handed-out
// block it did not mark is free, every marked one in use, and the bitmaps
// are written back with one barrier before it returns; it resets the rings,
// stacks, pins, the epoch and the garbage account. It may itself crash
// at any point and simply be re-run. Call with no process running.
func (r *Reclaimer) Scan(p *Proc, mark func(mark func(Addr))) ScanReport {
	rep := ScanReport{Full: true}

	// Phase 0: clear stale mark bits (a previous scan may have crashed).
	r.clearMarks()

	// Phase 1: conservative mark.
	mark(func(a Addr) { r.MarkBlock(a) })

	// Phase 2: empty the rings, pins and stacks, drop the claims; move the
	// epoch on. A crash in the sweep below moves the heap's epoch on, so the
	// reclaimer is degraded again until the re-run.
	r.reset()

	// Phase 3: sweep into the bitmaps. Blocks never handed out keep their
	// bits; the lines go back with one barrier.
	for _, s := range *r.slabs.Load() {
		for w, marks := range s.marks {
			a := s.bits + Addr(w)
			hand, old := s.handedOut(w), p.Load(a)
			want := old&^hand | hand&^marks
			rep.Marked += uint64(bits.OnesCount64(marks))
			rep.Swept += uint64(bits.OnesCount64(want &^ old))
			if want != old {
				p.Store(a, want)
				p.Carry(a)
			}
		}
	}
	p.PBarrierAddrs(nil)

	r.garbage.Store(0)
	atomic.AddUint64(&r.stats.FullScans, 1)
	return rep
}

// AuditReport is Audit's census of the handed-out blocks, in words.
type AuditReport struct {
	Marked   uint64 // in blocks the mark phase reached
	Unmarked uint64 // in blocks it did not: garbage, in flight, or pooled
	Held     uint64 // in the pool and the rings now
	Garbage  uint64 // lost since the last full scan
	// MarkedHeld counts the marked blocks found in the pool or a ring, and
	// Twice the blocks found there twice.
	MarkedHeld uint64
	Twice      uint64
}

// Check holds the census against the accounting: nothing marked may be
// pooled, nothing pooled twice, and what is unmarked must be covered by the
// garbage account, the words pooled and inFlight — the caller's bound on
// what crashed attempts leaked unaccounted since the last full scan. It
// returns the first violation, or "".
func (a AuditReport) Check(inFlight uint64) string {
	if a.MarkedHeld != 0 {
		return fmt.Sprintf("%d marked blocks are in the pool or a ring", a.MarkedHeld)
	}
	if a.Twice != 0 {
		return fmt.Sprintf("%d blocks are in the pool twice", a.Twice)
	}
	if a.Unmarked > a.Garbage+a.Held+inFlight {
		return fmt.Sprintf("%d unmarked words > garbage %d + held %d + in flight %d",
			a.Unmarked, a.Garbage, a.Held, inFlight)
	}
	return ""
}

// Audit is Scan's mark phase run as a read-only checker: it marks, counts
// and clears the marks again, sweeping and storing nothing. The pool it
// checks is what the next allocations can hand out: the rings, the stacks,
// and the dead bits of every unclaimed slab but the late blocks. The crash tests run it after every fast recovery. Call with no
// process running.
func (r *Reclaimer) Audit(mark func(mark func(Addr))) AuditReport {
	r.clearMarks()
	mark(func(a Addr) { r.MarkBlock(a) })
	rep := AuditReport{Garbage: r.garbage.Load()}
	idx := *r.slabs.Load()
	pooled := make(map[*slab][]uint64, len(idx))
	pool := func(s *slab, bi uint64) {
		set := pooled[s]
		if set == nil {
			set = make([]uint64, len(s.marks))
			pooled[s] = set
		}
		w, m := bi/64, uint64(1)<<(bi%64)
		switch {
		case set[w]&m != 0:
			rep.Twice++
		case s.marks[w]&m != 0:
			rep.MarkedHeld++
		}
		set[w] |= m
		if bi < s.hw.Load() {
			rep.Held += s.size
		}
	}
	for id := range r.procs {
		r.procs[id].eachHeld(func(a Addr) {
			if s, _, bi, ok := r.lookup(a); ok {
				pool(s, bi)
			}
		})
	}
	g := r.gen.Load()
	for _, s := range idx {
		unclaimed := s.gen.Load() != g
		for w := range s.marks {
			if unclaimed {
				for free := r.h.ReadVolatile(s.bits+Addr(w)) &^ s.late[w].Load(); free != 0; free &= free - 1 {
					pool(s, uint64(w*64+bits.TrailingZeros64(free)))
				}
			}
			hand := s.handedOut(w)
			rep.Marked += uint64(bits.OnesCount64(s.marks[w]&hand)) * s.size
			rep.Unmarked += uint64(bits.OnesCount64(hand&^s.marks[w])) * s.size
		}
	}
	r.clearMarks()
	return rep
}
