package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Reclaimer is an epoch-based memory reclaimer whose recovery-relevant
// state lives in the pmem heap layout, next to the announcement record of
// the runtime registry: a global epoch counter, one reclaimer line per
// process (pin word, retired-ring count, per-size-class free-list heads),
// one retired-node ring per process whose entries are checksum-guarded the
// same way announcements are, and a persistent slab directory from which
// the post-crash scan can enumerate every block the reclaimer ever carved.
//
// # Normal operation
//
// Blocks are carved from per-process slabs (large even-aligned regions
// grabbed from the shared bump pointer and recorded durably in the slab
// directory before any block from them is handed out), one slab per
// (process, size class). Alloc pops the process's free list for the block's
// class, falling back to the slab cursor. Retire appends a checksummed
// entry ⟨block, class, epoch, sum⟩ to the process's ring — one store batch
// plus a single pwb, no psync — and occasionally tries to advance the
// global epoch. An entry is freed (block zeroed and pushed on a free list)
// once the global epoch is two ahead of the entry's epoch: every process
// pinned when the block was unlinked has exited or re-entered since, so no
// reference survives. Epoch pins ride the ISB engine's operation entry
// (see isb.Engine), so epoch transitions add no stand-alone psync.
//
// # Crash recovery
//
// Free-list heads, ring counts, pins and the epoch are maintained with
// volatile stores only: after a crash they are untrustworthy (a head may
// revert to a persisted value pointing at a block that was since
// reallocated and is live). What does survive a simulated crash is the
// Go-side allocator state — the slab index, the per-block state bytes, the
// slab cursors and the counters below — exactly as the heap's bump pointer
// does: it describes which memory has been handed out, not what the
// structures contain.
//
// Recover, driven by Runtime.RecoverAll before any operation recovery
// runs, therefore does on every crash only what costs O(Procs × ringCap):
// it audits the retired rings' checksums (counting torn entries, exactly
// like torn announcements) and clears them, releases stuck pins, zeroes
// the free-list heads, restarts the epoch and persists the control lines
// under one psync. It frees nothing. Every block that sat on a pre-crash
// free list or in a pre-crash ring is abandoned where it is — never
// reused, never freed — and booked as accounted garbage; allocation
// continues from the slab cursors and only post-crash retirements flow
// through the rings to the free lists. The invariant that makes this safe
// without looking at the structures:
//
//	recovery never adds a block to a free list without a full mark.
//
// A retirement whose ring entry was lost therefore never frees anything,
// and a retirement whose unlink did not persist leaves a reachable block
// that is merely never retired again (Retire ignores non-live blocks).
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
//  2. audits and clears the rings as above;
//  3. sweeps: every unmarked block returns to a free list (zeroed), every
//     marked block becomes live again; the garbage account restarts at 0.
//
// The conservative cost of Scan: a block that was validly retired but is
// still referenced by an announced operation's Info record stays live
// until a later scan finds it unreferenced.
//
// What neither path accounts is what was in flight: the nodes a crashed
// attempt had allocated but not linked, or unlinked but not yet retired
// (operation recovery does not retire them, see isb.Engine.RecoverSeq) —
// at most an attempt's nodes plus its Info record per process per crash —
// and, after a Scan, the records whose pending retirement RecoverAll then
// forgets (isb.Engine.ForgetRetired). They are live-but-unreachable until
// the next Scan sweeps them, and small next to what a crash abandons, so
// the rule still fires.
//
// Until Recover (or Scan) has run after a crash, the reclaimer runs in a
// safe degraded mode: Alloc bypasses the (untrustworthy) free lists and
// carves fresh memory, and Retire drops retirements (counted in
// Stats.Dropped and as garbage).
type Reclaimer struct {
	h *Heap

	epochA   Addr // global epoch word (line-aligned)
	procBase Addr // per-proc reclaimer lines
	ringBase Addr // per-proc retired rings, ringCap entries each
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

// reclaimProc is the Go-side per-process allocator state. Like the heap's
// bump pointer, it survives simulated crashes (it describes where fresh
// memory is, not what the structures contain).
type reclaimProc struct {
	ringStart uint64 // oldest live ring entry index
	// held counts the words this process's ring and free lists hold: a
	// block enters at Retire or Free and leaves when Alloc pops it.
	// Owner-written, like the cursors; Recover turns it into garbage.
	held    uint64
	cur     [maxClasses]Addr
	curLeft [maxClasses]uint64
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

// Layout constants.
const (
	maxClasses = 4
	slabWords  = 2048
	ringCap    = 128 // retired-ring entries per process
	entryWords = 4   // ⟨block, class, epoch, sum⟩; never straddles a line

	// Per-proc reclaimer line layout.
	rpPin       = 0 // 0 = unpinned, else the observed epoch
	rpRingCount = 1
	rpFreeBase  = 2 // free-list heads, one word per class

	// firstEpoch is the starting (and post-scan) global epoch; nonzero so
	// a pin word of 0 unambiguously means "unpinned".
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
	Dropped  uint64 // retirements dropped (ring overflow or degraded mode)
	Advances uint64 // successful global epoch advances

	FastRecoveries uint64 // crashes recovered by the O(Procs × ring) reset alone
	FullScans      uint64 // conservative scans run (by Recover's rule or directly)
}

// ScanReport summarises one post-crash recovery of the reclaimer: Recover's
// fast reset (Full false; Marked and Swept 0) or a full Scan.
type ScanReport struct {
	Full         bool   // the conservative scan ran
	Marked       uint64 // blocks kept live (reachable or announced-operand)
	Swept        uint64 // blocks returned to free lists
	ValidRetires uint64 // ring entries whose checksum validated
	TornRetires  uint64 // ring entries rejected by their checksum
	StuckPins    int    // processes found pinned at crash time
	Dropped      uint64 // words this recovery abandoned (pre-crash rings and free lists)
	Garbage      uint64 // words abandoned since the last full scan, this crash's included
}

// RecoveryMode overrides Recover's garbage rule. Test hook: the crash
// sweeps run every recovery fast, then every recovery full.
type RecoveryMode int

const (
	RecoverAuto RecoveryMode = iota // full scan when garbage × 2 ≥ words carved
	RecoverFast                     // never scan
	RecoverFull                     // scan at every crash
)

// NewReclaimer reserves the reclaimer's pmem layout on h: the global epoch
// line, one line + one retired ring per process, and the slab directory.
func NewReclaimer(h *Heap) *Reclaimer {
	p0 := h.Proc(0)
	procs := uint64(h.NumProcs())
	r := &Reclaimer{h: h, procs: make([]reclaimProc, procs)}
	r.maxSlabs = h.Capacity()/slabWords + 1

	alignedLines := func(lines uint64) Addr {
		raw := p0.Alloc(lines*WordsPerLine + WordsPerLine)
		return (raw + WordsPerLine - 1) &^ (WordsPerLine - 1)
	}
	r.epochA = alignedLines(1)
	r.procBase = alignedLines(procs)
	r.ringBase = alignedLines(procs * ringCap * entryWords / WordsPerLine)
	r.dirBase = p0.Alloc(1 + r.maxSlabs)

	p0.Store(r.epochA, firstEpoch)
	p0.PWB(r.epochA)
	p0.PSync()

	empty := make([]*slab, 0)
	r.slabs.Store(&empty)
	r.scanEpoch.Store(h.Epoch())
	return r
}

func (r *Reclaimer) procLine(id int) Addr { return r.procBase + Addr(id)*WordsPerLine }
func (r *Reclaimer) ringSlot(id int, i uint64) Addr {
	return r.ringBase + Addr(uint64(id)*ringCap+i)*entryWords
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
	if r.synced() {
		head := r.procLine(p.ID()) + rpFreeBase + Addr(class)
		if a := Addr(p.Load(head)); a != Null {
			p.Store(head, p.Load(a)) // pop; block word 0 is the free link
			p.Store(a, 0)            // restore the zeroed-block contract
			s, _, bi, _ := r.lookup(a)
			s.state[bi] = bsLive
			r.procs[p.ID()].held -= size
			atomic.AddUint64(&r.stats.Reused, 1)
			return a
		}
	}
	ps := &r.procs[p.ID()]
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
	r.procs[p.ID()].held += r.classes[s.class].Load()
	r.pushFree(p, p.ID(), s, start, bi)
}

// pushFree zeroes the block and links it onto proc id's free list for its
// class. The link lives in block word 0; heads and links are volatile-only
// (a crash abandons the list; only a full scan rebuilds it). Callers
// account the block in the owner's held count.
func (r *Reclaimer) pushFree(p *Proc, id int, s *slab, start Addr, bi uint64) {
	size := r.classes[s.class].Load()
	for w := Addr(1); w < Addr(size); w++ {
		p.Store(start+w, 0)
	}
	head := r.procLine(id) + rpFreeBase + Addr(s.class)
	p.Store(start, p.Load(head))
	p.Store(head, uint64(start))
	s.state[bi] = bsFree
}

// Retire records that the block containing a has been unlinked: a
// checksummed ⟨block, class, epoch, sum⟩ entry is appended to the calling
// process's ring and persisted with a single pwb (no psync — a torn entry
// is detected by its checksum, exactly like a torn announcement). Already
// retired, freed or unknown blocks are ignored, which makes the
// recovery-path retire calls idempotent.
func (r *Reclaimer) Retire(p *Proc, a Addr) {
	s, start, bi, ok := r.lookup(a)
	if !ok || s.state[bi] != bsLive {
		return
	}
	size := r.classes[s.class].Load()
	if !r.synced() {
		s.state[bi] = bsRetired
		r.drop(size)
		return
	}
	id := p.ID()
	line := r.procLine(id)
	count := p.Load(line + rpRingCount)
	if count >= ringCap {
		r.advanceAndFree(p)
		count = p.Load(line + rpRingCount)
		if count >= ringCap {
			// Ring overflow (e.g. a process crashed while pinned, blocking
			// the epoch): drop the retirement. The block stays unreachable
			// and is re-homed by the next full scan.
			s.state[bi] = bsRetired
			r.drop(size)
			return
		}
	}
	r.procs[id].held += size
	s.state[bi] = bsRetired
	epoch := p.Load(r.epochA)
	slot := r.ringSlot(id, (r.procs[id].ringStart+count)%ringCap)
	p.Store(slot+0, uint64(start))
	p.Store(slot+1, uint64(s.class))
	p.Store(slot+2, epoch)
	p.Store(slot+3, annCheck(uint64(start), uint64(s.class), epoch))
	p.PWB(slot)
	p.Store(line+rpRingCount, count+1)
	atomic.AddUint64(&r.stats.Retired, 1)
	if count+1 >= ringFreeThreshold {
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
// existing pin). The store is volatile: the pin only gates the epoch
// within a run, and post-crash recovery releases stuck pins.
func (r *Reclaimer) Enter(p *Proc) {
	p.Store(r.procLine(p.ID())+rpPin, p.Load(r.epochA))
}

// Exit releases the calling process's pin.
func (r *Reclaimer) Exit(p *Proc) {
	p.Store(r.procLine(p.ID())+rpPin, 0)
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
	epoch := p.Load(r.epochA)
	canAdvance := true
	for q := 0; q < len(r.procs); q++ {
		if pin := p.Load(r.procLine(q) + rpPin); pin != 0 && pin != epoch {
			canAdvance = false
			break
		}
	}
	if canAdvance && p.CASBool(r.epochA, epoch, epoch+1) {
		atomic.AddUint64(&r.stats.Advances, 1)
	}
	epoch = p.Load(r.epochA)

	id := p.ID()
	line := r.procLine(id)
	ps := &r.procs[id]
	for {
		count := p.Load(line + rpRingCount)
		if count == 0 {
			return
		}
		slot := r.ringSlot(id, ps.ringStart)
		start := Addr(p.Load(slot + 0))
		class := p.Load(slot + 1)
		retEpoch := p.Load(slot + 2)
		if p.Load(slot+3) != annCheck(uint64(start), class, retEpoch) {
			return // defensive: never free through an invalid entry
		}
		if retEpoch+2 > epoch {
			return // grace period not over for this (and later) entries
		}
		s, blkStart, bi, ok := r.lookup(start)
		if ok && s.state[bi] == bsRetired && blkStart == start {
			r.pushFree(p, id, s, start, bi)
			atomic.AddUint64(&r.stats.Freed, 1)
		}
		p.Store(slot+3, 0) // invalidate the consumed entry
		ps.ringStart = (ps.ringStart + 1) % ringCap
		p.Store(line+rpRingCount, count-1)
	}
}

// Freeze suspends epoch advance and freeing until Thaw; Retire keeps
// recording (a full ring drops retirements, which is safe). Used around
// sequential post-crash operation recovery.
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
// either resets the control state — O(Procs × ringCap), nothing freed — or,
// when garbage × 2 ≥ words carved, runs the full Scan with mark. Like
// Scan it may itself crash at any point and simply be re-run; a re-run may
// count a block as garbage twice, never miss one.
func (r *Reclaimer) Recover(p *Proc, mark func(mark func(Addr))) ScanReport {
	// Carved: every slab, less what is still under a cursor.
	carved := uint64(len(*r.slabs.Load())) * slabWords
	var dropped uint64
	for id := range r.procs {
		ps := &r.procs[id]
		dropped += ps.held
		ps.held = 0
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
		r.resetRings(p, &rep)
		r.persistControl(p)
		atomic.AddUint64(&r.stats.FastRecoveries, 1)
	}
	rep.Dropped, rep.Garbage = dropped, garbage
	return rep
}

// resetRings audits and clears the retired rings, releases stuck pins and
// empties the free-list heads (volatile stores; persistControl follows).
// The ring entries are not trusted for freeing decisions — their checksums
// only distinguish recorded retirements from torn ones.
func (r *Reclaimer) resetRings(p *Proc, rep *ScanReport) {
	for id := range r.procs {
		for i := uint64(0); i < ringCap; i++ {
			slot := r.ringSlot(id, i)
			sum := p.Load(slot + 3)
			if sum == 0 {
				continue
			}
			if sum == annCheck(p.Load(slot+0), p.Load(slot+1), p.Load(slot+2)) {
				rep.ValidRetires++
			} else {
				rep.TornRetires++
			}
			p.Store(slot+3, 0)
		}
		line := r.procLine(id)
		if p.Load(line+rpPin) != 0 {
			rep.StuckPins++
		}
		p.Store(line+rpPin, 0)
		p.Store(line+rpRingCount, 0)
		r.procs[id].ringStart = 0
		for c := 0; c < maxClasses; c++ {
			p.Store(line+rpFreeBase+Addr(c), 0)
		}
	}
}

// persistControl restarts the epoch, persists the control lines under one
// psync and leaves degraded mode.
func (r *Reclaimer) persistControl(p *Proc) {
	p.Store(r.epochA, firstEpoch)
	p.PWB(r.epochA)
	for id := range r.procs {
		p.PWB(r.procLine(id))
	}
	p.PSync()
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
// free lists, pins, the epoch and the garbage account — and persists the
// rebuilt lines, so it may itself crash at any point and simply be re-run.
// Call with no process running.
func (r *Reclaimer) Scan(p *Proc, mark func(mark func(Addr))) ScanReport {
	rep := ScanReport{Full: true}

	// Phase 0: clear stale mark bits (a previous scan may have crashed).
	r.clearMarks()

	// Phase 1: conservative mark.
	mark(func(a Addr) { r.MarkBlock(a) })

	// Phase 2: audit and clear the rings, pins and free-list heads.
	r.resetRings(p, &rep)

	// Phase 3: sweep. Marked blocks are live again; everything else the
	// reclaimer ever handed out returns to a free list, zeroed. Freed
	// blocks are spread round-robin over the processes' lists.
	for id := range r.procs {
		r.procs[id].held = 0
	}
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
			r.procs[home].held += size
			r.pushFree(p, home, s, s.base+Addr(uint64(bi)*size), uint64(bi))
			home = (home + 1) % len(r.procs)
			rep.Swept++
		}
	}

	// Phase 4: restart the epoch and persist the rebuilt control lines.
	r.persistControl(p)
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
// and clears the marks again, sweeping and storing nothing (the rings and
// free lists are read from the volatile image, uncounted). The crash tests
// run it after every fast recovery. Call with no process running.
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
	held := func(a Addr) {
		if s, _, bi, ok := r.lookup(a); ok && s.state[bi]&bsMark != 0 {
			rep.MarkedHeld++
		}
	}
	read := r.h.ReadVolatile
	for id := range r.procs {
		rep.Held += r.procs[id].held
		for c := Addr(0); c < maxClasses; c++ {
			for a := Addr(read(r.procLine(id) + rpFreeBase + c)); a != Null; a = Addr(read(a)) {
				held(a)
			}
		}
		for i := uint64(0); i < ringCap; i++ {
			slot := r.ringSlot(id, i)
			if sum := read(slot + 3); sum != 0 && sum == annCheck(read(slot), read(slot+1), read(slot+2)) {
				held(Addr(read(slot)))
			}
		}
	}
	r.clearMarks()
	return rep
}
