package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Reclaimer is an epoch-based memory reclaimer whose only persistent state
// is a slab directory in the pmem heap, from which the post-crash scan can
// enumerate every block the reclaimer ever carved. Its bookkeeping — the
// global epoch, one pin per process, one retired ring per process and the
// per-size-class free-list heads — is Go-side per-process state that no
// recovery path reads, so none of it is ever written back.
//
// # Normal operation
//
// Blocks are carved from per-process slabs (large even-aligned regions
// grabbed from the shared bump pointer and recorded durably in the slab
// directory before any block from them is handed out — two pwbs per slab),
// one slab per (process, size class). Alloc pops the process's free list for
// the block's class (the link lives in block word 0: two heap accesses),
// falling back to the slab cursor. Retire appends ⟨block, epoch⟩ to the
// process's ring — no heap access — and occasionally tries to advance the
// global epoch. A ring that fills while a pinned peer stalls the epoch grows
// (and keeps its capacity), so a stalled peer costs memory held in rings,
// never a lost retirement. An entry is freed (block zeroed and pushed on a
// free list) once the global epoch is two ahead of the entry's epoch: every
// process pinned when the block was unlinked has exited or re-entered since,
// so no reference survives. Epoch pins ride the ISB engine's operation entry
// (see isb.Engine) and are Go-side atomics, so they cost no heap access.
//
// # Crash recovery
//
// What survives a simulated crash is the Go-side allocator state — the slab
// index, the per-block state bytes, the slab cursors and the counters below
// — exactly as the heap's bump pointer does: it describes which memory has
// been handed out, not what the structures contain. The epoch, the pins, the
// rings and the free lists are untrustworthy after a crash: a ring entry
// names a block whose unlink may not have persisted, a free-list link sits
// in block word 0 and reverts with it, and a pin belongs to an operation
// that no longer runs.
//
// Recover, driven by Runtime.RecoverAll before any operation recovery
// runs, therefore does on every crash only what costs O(Procs): it books
// what the rings and free lists held as garbage and resets the Go-side
// state — no heap access, no pwb, no psync. It frees nothing. Every block
// that sat on a pre-crash free list or in a pre-crash ring is abandoned
// where it is — never reused, never freed — and booked as accounted
// garbage; allocation continues from the slab cursors and only post-crash
// retirements flow through the rings to the free lists. The invariant that
// makes this safe without looking at the structures:
//
//	recovery never adds a block to a free list without a full mark.
//
// A retirement that reached no ring therefore never frees anything, and a
// retirement whose unlink did not persist leaves a reachable block that is
// merely never retired again (Retire ignores non-live blocks).
//
// The full conservative scan (Scan) is what gives abandoned blocks back,
// and Recover runs it inside the same call only when accounted garbage has
// caught up with the rest of the carved heap:
//
//	garbage × 2 ≥ words carved
//
// — a GOGC-style rule on two counts the reclaimer keeps anyway (in words:
// the size classes differ 8×, and it is the heap the rule bounds), so the
// heap stays within about twice what scanning at every crash would hold,
// one crash that drops a huge free list degenerates to a scan right away,
// and the amortised cost of a recovery is O(in flight + blocks dropped)
// instead of O(live). Scan:
//
//  1. marks every block reachable from the structures' roots or referenced
//     by an announced in-flight operation's Info record (conservative:
//     anything recovery might still touch survives);
//  2. resets the Go-side state as above;
//  3. sweeps: every unmarked block returns to a free list (zeroed), every
//     marked block becomes live again; the garbage account restarts at 0.
//
// The conservative cost of Scan: a block that was validly retired but is
// still referenced by an announced operation's Info record stays live
// until a later scan finds it unreferenced.
//
// What neither path accounts is what was in flight: the nodes a crashed
// attempt had allocated but not linked, or unlinked but not yet retired
// (the ISB engine's operation recovery does not retire them) —
// at most an attempt's nodes plus its Info record per process per crash.
// They are live-but-unreachable until the next Scan sweeps them, and small
// next to what a crash abandons, so the rule still fires.
//
// Until Recover (or Scan) has run after a crash, the reclaimer runs in a
// safe degraded mode: Alloc bypasses the (untrustworthy) free lists and
// carves fresh memory, and Retire drops retirements (counted in
// Stats.Dropped and as garbage).
type Reclaimer struct {
	h *Heap

	dirBase  Addr // slab directory: word 0 = count, then one word per slab
	maxSlabs uint64

	// classes maps size-class index to block size in words (write-once
	// entries; lock-free readers, mu-serialized writers).
	classes  [maxClasses]atomic.Uint64
	nclasses atomic.Uint64
	mu       sync.Mutex // slab directory + class registration

	// slabs is the sorted (by base) Go-side slab index used for containment
	// lookups; copy-on-append so hot-path readers are lock-free and
	// allocation-free.
	slabs atomic.Pointer[[]*slab]

	epoch atomic.Uint64 // the global epoch
	pins  []pin
	procs []reclaimProc

	// scanEpoch is the heap crash-epoch the reclaimer state is valid for;
	// when it trails h.Epoch() a crash happened and Recover has not run yet
	// (degraded mode).
	scanEpoch atomic.Uint64

	// garbage counts the words abandoned since the last full scan: what
	// sat on a free list or in a ring when a crash hit, plus every dropped
	// retirement. Recover weighs it against the words carved to decide
	// whether this crash pays for a Scan. Words, not blocks: the size
	// classes differ 8×, and it is the heap the rule bounds. It may
	// over-count (a crash between a counter and the state change it
	// announces), never under-count.
	garbage atomic.Uint64
	// mode is the test hook behind ForceRecovery.
	mode RecoveryMode

	// frozen suspends epoch advance and freeing (Retire still records).
	// Runtime.RecoverAll freezes around operation recovery: recovery runs
	// the processes sequentially, and an early process's re-invoked
	// operations must not free blocks a later process's still-unrecovered
	// Info record names.
	frozen atomic.Bool

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
	// free holds the free-list heads, one per class; a link lives in block
	// word 0.
	free [maxClasses]Addr
	// held counts the words the ring and free lists hold: a block enters
	// at Retire or Free and leaves when Alloc pops it. Recover turns it
	// into garbage.
	held uint64
	// The slab cursors survive a crash, like the heap's bump pointer.
	cur     [maxClasses]Addr
	curLeft [maxClasses]uint64
	_       [48]byte
}

// retired is one ring entry: a block unlinked in epoch.
type retired struct {
	block Addr
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
// then its free lists, whose links it reads through read.
func (ps *reclaimProc) eachHeld(read func(Addr) uint64, f func(Addr)) {
	for i := 0; i < ps.n; i++ {
		f(ps.ring[(ps.head+i)&(len(ps.ring)-1)].block)
	}
	for _, a := range ps.free {
		for ; a != Null; a = Addr(read(a)) {
			f(a)
		}
	}
}

// slab is one carved region serving blocks of a single size class. state
// holds one byte per block: 0 = never allocated (still under the slab
// cursor), else a blockState (possibly with the scan's mark bit).
type slab struct {
	base  Addr
	class int
	state []byte
}

// Block lifecycle states (Go-side; rebuilt from reachability by the scan).
const (
	bsVirgin  byte = 0
	bsLive    byte = 1
	bsRetired byte = 2
	bsFree    byte = 3

	bsMark byte = 0x80 // scan mark bit, OR-ed onto the state
)

// Sizes and thresholds.
const (
	maxClasses = 4
	slabWords  = 2048
	ringCap    = 128 // initial retired-ring entries per process (a power of two)

	// firstEpoch is the starting (and post-recovery) global epoch; nonzero
	// so a pin of 0 unambiguously means "unpinned".
	firstEpoch = 2

	// ringFreeThreshold triggers an advance/free pass from Retire.
	ringFreeThreshold = 64
)

// ReclaimStats counts reclaimer events (monotone within a run).
type ReclaimStats struct {
	Carved   uint64 // blocks carved fresh from a slab
	Reused   uint64 // blocks served from a free list
	Retired  uint64 // retirements recorded in a ring
	Freed    uint64 // blocks moved ring → free list after grace
	Dropped  uint64 // retirements dropped (degraded mode, between a crash and Recover)
	Advances uint64 // successful global epoch advances

	FastRecoveries uint64 // crashes recovered by the O(Procs) reset alone
	FullScans      uint64 // conservative scans run (by Recover's rule or directly)
}

// ScanReport summarises one post-crash recovery of the reclaimer: Recover's
// fast reset (Full false; Marked and Swept 0) or a full Scan.
type ScanReport struct {
	Full    bool   // the conservative scan ran
	Marked  uint64 // blocks kept live (reachable or announced-operand)
	Swept   uint64 // blocks returned to free lists
	Dropped uint64 // words this recovery abandoned (pre-crash rings and free lists)
	Garbage uint64 // words abandoned since the last full scan, this crash's included
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
	for id := range r.procs {
		r.procs[id].ring = make([]retired, ringCap)
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

// newSlab carves a fresh slab for class and durably appends it to the slab
// directory before any block from it can be handed out, so the post-crash
// scan can always enumerate it. Directory entry encoding: base<<3 | class.
func (r *Reclaimer) newSlab(p *Proc, class int) *slab {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.h.grabChunk(slabWords)
	idx := *r.slabs.Load()
	if uint64(len(idx)) >= r.maxSlabs {
		panic("pmem: reclaimer slab directory full")
	}
	// Durable before use: entry first, then the count that publishes it.
	// A crash between the two pwbs loses at most this one (still unused)
	// slab to the arena.
	p.Store(r.dirBase+1+Addr(len(idx)), uint64(base)<<3|uint64(class))
	p.PWB(r.dirBase + 1 + Addr(len(idx)))
	p.Store(r.dirBase, uint64(len(idx))+1)
	p.PWB(r.dirBase)
	s := &slab{base: base, class: class, state: make([]byte, slabWords/r.classes[class].Load())}
	next := make([]*slab, len(idx)+1)
	copy(next, idx) // bump bases are monotone, so append keeps the index sorted
	next[len(idx)] = s
	r.slabs.Store(&next)
	return s
}

// lookup resolves a to its slab, block start and block index; ok is false
// for addresses outside every slab.
func (r *Reclaimer) lookup(a Addr) (s *slab, start Addr, bi uint64, ok bool) {
	idx := *r.slabs.Load()
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		if idx[mid].base+slabWords <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(idx) || a < idx[lo].base {
		return nil, 0, 0, false
	}
	s = idx[lo]
	size := r.classes[s.class].Load()
	bi = uint64(a-s.base) / size
	return s, s.base + Addr(bi*size), bi, true
}

// BlockOf resolves an interior pointer to its containing block.
func (r *Reclaimer) BlockOf(a Addr) (Addr, uint64, bool) {
	s, start, _, ok := r.lookup(a)
	if !ok {
		return 0, 0, false
	}
	return start, r.classes[s.class].Load(), true
}

// Alloc serves a block of at least words words: from the calling process's
// free list when the reclaimer is synced, else (or when the list is empty)
// from the process's slab cursor.
func (r *Reclaimer) Alloc(p *Proc, words uint64) Addr {
	class := r.classFor(words)
	size := r.classes[class].Load()
	ps := &r.procs[p.ID()]
	if a := ps.free[class]; a != Null && r.synced() {
		ps.free[class] = Addr(p.Load(a)) // pop; block word 0 is the free link
		p.Store(a, 0)                    // restore the zeroed-block contract
		s, _, bi, _ := r.lookup(a)
		s.state[bi] = bsLive
		ps.held -= size
		atomic.AddUint64(&r.stats.Reused, 1)
		return a
	}
	if ps.curLeft[class] < size || ps.cur[class] == 0 {
		s := r.newSlab(p, class)
		ps.cur[class] = s.base
		ps.curLeft[class] = slabWords
	}
	a := ps.cur[class]
	ps.cur[class] += Addr(size)
	ps.curLeft[class] -= size
	s, _, bi, _ := r.lookup(a)
	s.state[bi] = bsLive
	atomic.AddUint64(&r.stats.Carved, 1)
	return a
}

// Free returns a never-published block straight to the calling process's
// free list (no grace period: no other process can hold a reference).
func (r *Reclaimer) Free(p *Proc, a Addr) {
	if !r.synced() {
		return
	}
	s, start, bi, ok := r.lookup(a)
	if !ok || s.state[bi] != bsLive {
		return
	}
	ps := &r.procs[p.ID()]
	ps.held += r.classes[s.class].Load()
	r.pushFree(p, ps, s, start, bi)
}

// pushFree zeroes the block and links it onto ps's free list for its
// class. The link lives in block word 0; a crash abandons the list (only a
// full scan rebuilds it). Callers account the block in ps.held.
func (r *Reclaimer) pushFree(p *Proc, ps *reclaimProc, s *slab, start Addr, bi uint64) {
	size := r.classes[s.class].Load()
	for w := Addr(1); w < Addr(size); w++ {
		p.Store(start+w, 0)
	}
	p.Store(start, uint64(ps.free[s.class]))
	ps.free[s.class] = start
	s.state[bi] = bsFree
}

// Retire records that the block containing a has been unlinked: ⟨block,
// epoch⟩ is appended to the calling process's ring, with no heap access.
// Already retired, freed or unknown blocks are ignored, which makes the
// recovery-path retire calls idempotent.
func (r *Reclaimer) Retire(p *Proc, a Addr) {
	s, start, bi, ok := r.lookup(a)
	if !ok || s.state[bi] != bsLive {
		return
	}
	s.state[bi] = bsRetired
	size := r.classes[s.class].Load()
	if !r.synced() {
		r.drop(size)
		return
	}
	ps := &r.procs[p.ID()]
	ps.held += size
	ps.push(retired{start, r.epoch.Load()})
	atomic.AddUint64(&r.stats.Retired, 1)
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
// recovery releases stuck pins.
func (r *Reclaimer) Enter(p *Proc) {
	r.pins[p.ID()].epoch.Store(r.epoch.Load())
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
		if s, start, bi, ok := r.lookup(e.block); ok && s.state[bi] == bsRetired && start == e.block {
			r.pushFree(p, ps, s, start, bi)
			atomic.AddUint64(&r.stats.Freed, 1)
		}
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
	return ReclaimStats{
		Carved:   atomic.LoadUint64(&r.stats.Carved),
		Reused:   atomic.LoadUint64(&r.stats.Reused),
		Retired:  atomic.LoadUint64(&r.stats.Retired),
		Freed:    atomic.LoadUint64(&r.stats.Freed),
		Dropped:  atomic.LoadUint64(&r.stats.Dropped),
		Advances: atomic.LoadUint64(&r.stats.Advances),

		FastRecoveries: atomic.LoadUint64(&r.stats.FastRecoveries),
		FullScans:      atomic.LoadUint64(&r.stats.FullScans),
	}
}

// LiveBlocks counts blocks currently live or awaiting grace (excluding
// free-listed and virgin blocks).
func (r *Reclaimer) LiveBlocks() uint64 {
	var n uint64
	for _, s := range *r.slabs.Load() {
		for _, st := range s.state {
			if st&^bsMark == bsLive || st&^bsMark == bsRetired {
				n++
			}
		}
	}
	return n
}

// ForceRecovery overrides Recover's garbage rule (test hook; call with no
// process running).
func (r *Reclaimer) ForceRecovery(m RecoveryMode) { r.mode = m }

// Recover is the reclaimer's post-crash entry point, called by
// Runtime.RecoverAll with no process running. It abandons what the crash
// left on the free lists and in the rings (booking it as garbage), then
// either resets the Go-side state — O(Procs), no heap access, nothing
// freed — or, when garbage × 2 ≥ words carved, runs the full Scan with
// mark. Like Scan it may itself crash at any point and simply be re-run; a
// re-run may count a block as garbage twice, never miss one.
func (r *Reclaimer) Recover(p *Proc, mark func(mark func(Addr))) ScanReport {
	// Carved: every slab, less what is still under a cursor.
	carved := uint64(len(*r.slabs.Load())) * slabWords
	var dropped uint64
	for id := range r.procs {
		ps := &r.procs[id]
		dropped += ps.held
		for _, left := range ps.curLeft {
			carved -= left
		}
	}
	garbage := r.garbage.Add(dropped)

	full := garbage*2 >= carved
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

// reset empties the rings and the free lists, releases the pins, restarts
// the epoch and leaves degraded mode. It touches no heap word.
func (r *Reclaimer) reset() {
	for id := range r.procs {
		ps := &r.procs[id]
		ps.head, ps.n, ps.held = 0, 0, 0
		ps.free = [maxClasses]Addr{}
		r.pins[id].epoch.Store(0)
	}
	r.epoch.Store(firstEpoch)
	r.scanEpoch.Store(r.h.Epoch())
}

// MarkBlock sets the scan mark on the handed-out block containing a and
// returns the block with fresh true the first time; any other address, a
// never-allocated block or an already marked one returns fresh false. It is
// what Scan's mark callback does, exposed so a caller computing a
// transitive closure can push exactly the newly marked blocks.
func (r *Reclaimer) MarkBlock(a Addr) (start Addr, words uint64, fresh bool) {
	s, start, bi, ok := r.lookup(a)
	if !ok || s.state[bi] == bsVirgin || s.state[bi]&bsMark != 0 {
		return 0, 0, false
	}
	s.state[bi] |= bsMark
	return start, r.classes[s.class].Load(), true
}

// clearMarks drops every scan mark bit.
func (r *Reclaimer) clearMarks() {
	for _, s := range *r.slabs.Load() {
		for i := range s.state {
			s.state[i] &^= bsMark
		}
	}
}

// Scan is the full conservative scan: the slow path of Recover, and the
// oracle the tests check the fast path against. mark must invoke its
// callback for (at least) every address reachable from a structure root
// and every address an announced in-flight operation's Info record
// mentions; the callback tolerates arbitrary values (non-block addresses
// are ignored). Scan rebuilds all reclaimer state from the marks — rings,
// free lists, pins, the epoch and the garbage account — so it may itself
// crash at any point and simply be re-run. Call with no process running.
func (r *Reclaimer) Scan(p *Proc, mark func(mark func(Addr))) ScanReport {
	rep := ScanReport{Full: true}

	// Phase 0: clear stale mark bits (a previous scan may have crashed).
	r.clearMarks()

	// Phase 1: conservative mark.
	mark(func(a Addr) { r.MarkBlock(a) })

	// Phase 2: empty the rings, pins and free lists; restart the epoch. A
	// crash in the sweep below moves the heap's epoch on, so the reclaimer
	// is degraded again until the re-run.
	r.reset()

	// Phase 3: sweep. Marked blocks are live again; everything else the
	// reclaimer ever handed out returns to a free list, zeroed. Freed
	// blocks are spread round-robin over the processes' lists.
	home := 0
	for _, s := range *r.slabs.Load() {
		size := r.classes[s.class].Load()
		for bi, st := range s.state {
			if st == bsVirgin {
				continue
			}
			if st&bsMark != 0 {
				s.state[bi] = bsLive
				rep.Marked++
				continue
			}
			ps := &r.procs[home]
			ps.held += size
			r.pushFree(p, ps, s, s.base+Addr(uint64(bi)*size), uint64(bi))
			home = (home + 1) % len(r.procs)
			rep.Swept++
		}
	}

	r.garbage.Store(0)
	atomic.AddUint64(&r.stats.FullScans, 1)
	return rep
}

// AuditReport is Audit's census of the handed-out blocks, in words.
type AuditReport struct {
	Marked     uint64 // in blocks the mark phase reached
	Unmarked   uint64 // in blocks it did not: garbage, in flight, or held
	Held       uint64 // in the rings and on the free lists now
	Garbage    uint64 // abandoned since the last full scan
	MarkedHeld uint64 // marked blocks (a count) found on a free list or in a ring
}

// Check holds the census against the accounting: nothing marked may be
// held, and what is unmarked must be covered by the garbage account, the
// words currently held, and inFlight — the caller's bound on what crashed
// attempts leaked unaccounted since the last full scan. It returns the
// first violation, or "".
func (a AuditReport) Check(inFlight uint64) string {
	if a.MarkedHeld != 0 {
		return fmt.Sprintf("%d marked blocks are on a free list or in a ring", a.MarkedHeld)
	}
	if a.Unmarked > a.Garbage+a.Held+inFlight {
		return fmt.Sprintf("%d unmarked words > garbage %d + held %d + in flight %d",
			a.Unmarked, a.Garbage, a.Held, inFlight)
	}
	return ""
}

// Audit is Scan's mark phase run as a read-only checker: it marks, counts
// and clears the marks again, sweeping and storing nothing (the free-list
// links are read from the volatile image, uncounted). The crash tests run
// it after every fast recovery. Call with no process running.
func (r *Reclaimer) Audit(mark func(mark func(Addr))) AuditReport {
	r.clearMarks()
	mark(func(a Addr) { r.MarkBlock(a) })
	rep := AuditReport{Garbage: r.garbage.Load()}
	for _, s := range *r.slabs.Load() {
		size := r.classes[s.class].Load()
		for _, st := range s.state {
			switch {
			case st == bsVirgin:
			case st&bsMark != 0:
				rep.Marked += size
			default:
				rep.Unmarked += size
			}
		}
	}
	for id := range r.procs {
		rep.Held += r.procs[id].held
		r.procs[id].eachHeld(r.h.ReadVolatile, func(a Addr) {
			if s, _, bi, ok := r.lookup(a); ok && s.state[bi]&bsMark != 0 {
				rep.MarkedHeld++
			}
		})
	}
	r.clearMarks()
	return rep
}
