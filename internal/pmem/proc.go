package pmem

import (
	"fmt"
	"slices"
)

// Proc is a process descriptor: the unit of crash-recovery in the paper's
// model. All primitive operations on the heap go through a Proc, which lets
// the simulator (a) inject crashes at any shared-memory access, (b) track
// the per-process pending write-back set required by epoch persistency, and
// (c) attribute persistence-instruction counts to the process that issued
// them. A Proc must be used by one goroutine at a time.
type Proc struct {
	h  *Heap
	id int

	stats   Stats
	rng     uint64
	crashed bool // this proc already observed the current crash

	// Individual-failure support (the paper's footnote 1: in the private
	// cache model processes may also fail individually). Proc-local, so no
	// atomics: arm from the same goroutine before running the operation.
	accesses    uint64
	selfCrashAt uint64 // 0 = disarmed

	// local bump-allocation chunk
	chunk     Addr
	chunkLeft uint64

	// lineScratch is the reusable line-set backing barrier dedup (see
	// flushLines); its capacity is retained across barriers.
	lineScratch []Addr

	// carry holds the lines whose write-back waits for this process's next
	// barrier, on whichever engine it is issued (see Carry). Go-side, and
	// left alone by a crash: a carried line that a crash reverted is clean,
	// and the barrier that finally names it writes back nothing.
	carry []Addr

	// syncScope is set while an admission — one operation, a batch window or
	// a transaction — has a sync scope open on this process: the ISB engines'
	// sync points defer to the scope's one closing psync instead of issuing,
	// and PWB, which still applies its line write-back synchronously (crash
	// semantics and counters are unchanged), skips the simulated clflush
	// latency — the wait is paid once, at the close. Per process, not per
	// engine: a transaction spans two engines and a process is in one
	// admission at a time. Volatile on purpose: a crash abandons the scope,
	// and ResetSyncScope — from Heap.finishReset for a system crash, from
	// every recovery entry point for an individual one — is the one teardown.
	syncScope bool

	// pending holds the legs of an admission announced lazily (AnnounceLazy)
	// whose record is not stored yet, pendingAtomic its atomic flag, and
	// results the responses its boundaries gave legs 0, 1, … meanwhile
	// (CarryLegResult); annPending says there is one. StoreAnnouncement and
	// StoreLegResults store them, and a scope's close or teardown drops what
	// was never stored. Go-side: nothing durable names a pending admission.
	pending       []Leg
	results       []uint64
	pendingAtomic bool
	annPending    bool

	// unsynced is set by every write-back and cleared by PSync: a sync
	// scope whose close finds it clear has nothing to order (CloseSyncScope).
	unsynced bool

	spinSink uint64 // defeats dead-code elimination of latency spins

	// Procs run on different goroutines and write their counters at every
	// access: the padding makes a Proc a whole number of cache lines, so two
	// never share one (TestProcFillsCacheLines).
	_ [56]byte
}

// ID returns the process id (0-based).
func (p *Proc) ID() int { return p.id }

// Heap returns the heap this Proc belongs to.
func (p *Proc) Heap() *Heap { return p.h }

// Crash is the panic value used to simulate the loss of a process's volatile
// state. Harness code recovers it with RunOp.
type Crash struct{ ProcID int }

func (c Crash) Error() string { return "pmem: simulated crash" }

// checkCrash runs the heap's access hook (SetAccessHook), counts this access
// (tracked mode counts unconditionally; see Heap.AccessCount), panics with
// Crash if a system-wide crash is in progress, and fires a scheduled
// (system-wide or individual) crash when this access crosses the armed
// threshold.
func (p *Proc) checkCrash() {
	if !p.h.tracked {
		return
	}
	if p.h.hook != nil {
		p.h.hook(p)
	}
	if p.selfCrashAt != 0 {
		p.accesses++
		if p.accesses >= p.selfCrashAt {
			p.selfCrashAt = 0
			panic(Crash{ProcID: p.id})
		}
	}
	if p.h.crashing.Load() {
		if !p.crashed {
			p.crashed = true
			panic(Crash{ProcID: p.id})
		}
		return
	}
	n := p.h.accessCtr.Add(1)
	if at := p.h.crashAt.Load(); at != 0 && n >= at && p.h.crashAt.CompareAndSwap(at, 0) {
		p.h.crashing.Store(true)
		p.crashed = true
		panic(Crash{ProcID: p.id})
	}
}

// Load atomically reads the volatile image.
func (p *Proc) Load(a Addr) uint64 {
	p.checkCrash()
	p.stats.Loads++
	return p.h.vol[a].Load()
}

// Store atomically writes the volatile image. In the private cache model
// (or under simulated eviction) the write also reaches the persisted image.
func (p *Proc) Store(a Addr, v uint64) {
	p.checkCrash()
	if a == Null {
		panic("pmem: store to Null")
	}
	p.stats.Stores++
	p.h.vol[a].Store(v)
	if p.h.tracked {
		p.h.markDirty(a)
	}
	p.afterWrite(a)
}

// CAS performs Compare&Swap on the volatile image and, following the paper's
// convention, returns the value it read: the CAS succeeded iff the returned
// value equals old.
func (p *Proc) CAS(a Addr, old, new uint64) uint64 {
	p.checkCrash()
	if a == Null {
		panic("pmem: CAS on Null")
	}
	p.stats.CASes++
	for {
		cur := p.h.vol[a].Load()
		if cur != old {
			return cur
		}
		if p.h.vol[a].CompareAndSwap(old, new) {
			if p.h.tracked {
				p.h.markDirty(a)
			}
			p.afterWrite(a)
			return old
		}
	}
}

// CASBool is CAS with a boolean success result, for call sites that do not
// need the read value.
func (p *Proc) CASBool(a Addr, old, new uint64) bool {
	return p.CAS(a, old, new) == old
}

// afterWrite applies private-cache persistence and simulated eviction.
func (p *Proc) afterWrite(a Addr) {
	if !p.h.tracked {
		return
	}
	if p.h.model == PrivateCache {
		p.h.persistLine(lineOf(a))
		return
	}
	if e := p.h.evictEvery; e > 0 {
		if p.nextRand()%e == 0 {
			p.h.persistLine(lineOf(a))
			p.stats.Evictions++
		}
	}
}

// PWB issues a persistent write-back for the cache line containing a.
// Counted as a stand-alone flush unless issued via PBarrier.
//
// The write-back is applied synchronously: the paper's evaluation simulates
// pwb with x86 clflush, which writes the line back before retiring, and the
// ISB protocol's cross-crash ABA argument (info-field values never recur,
// even through a crash) relies on tag CASes being durable right after their
// pwb. PSync retains its ordering/accounting role (the authors' mfence).
//
// What hardware this models: deferring a psync (see OpenSyncScope) is sound
// exactly where a write-back completes before the issuing process's next
// store can reach NVM — clflush, which the paper's evaluation used and this
// method implements. On clwb-class hardware, where a write-back may still be
// in flight when later stores drain, the psync between phases is what orders
// them, and the written placement (isb.NewEngine, the Isb curve) is the one
// to run.
func (p *Proc) PWB(a Addr) {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return // shared variables are always persistent
	}
	p.stats.Flushes++
	p.unsynced = true
	p.pwb(a)
}

// pwb is the uncounted core of PWB, shared with PBarrier.
func (p *Proc) pwb(a Addr) {
	if p.h.pwbSpin > 0 && !p.syncScope {
		p.spin(p.h.pwbSpin)
	}
	if p.h.tracked {
		p.h.persistLine(lineOf(a))
	}
}

// PFence orders preceding PWBs before subsequent PWBs. Under TSO (which the
// paper assumes, and which Go's seq-cst atomics exceed) it has no simulated
// semantic effect beyond its accounting.
func (p *Proc) PFence() {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Fences++
}

// PSync waits until all previous PWBs by this process complete their write
// back. Since PWB applies synchronously (see its doc), PSync contributes
// ordering cost and accounting only.
func (p *Proc) PSync() {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Syncs++
	p.unsynced = false
	if p.h.psyncSpin > 0 {
		p.spin(p.h.psyncSpin)
	}
}

// Carry hands the line containing a to this process's next barrier
// (PBarrierAddrs, PBarrierRange), whichever structure or engine issues it: a
// line whose durability only has to precede what that barrier's fence
// orders. The line is written back with the barrier's own and leaves the
// carry set; until then a crash may or may not find it persisted. Lines are
// kept once however often they are carried.
func (p *Proc) Carry(a Addr) {
	if p.h.model == PrivateCache {
		return
	}
	if l := lineOf(a); !slices.Contains(p.carry, l) {
		p.carry = append(p.carry, l)
	}
}

// flushLines write-backs each distinct cache line of ls — lines a barrier
// collected in lineScratch — or carried (Carry) exactly once, in ascending
// line order, and empties the carry set. Dedup is exact for any phase size —
// no fixed window beyond which duplicates would be re-flushed — and reuses
// the per-proc scratch buffer, so steady-state barriers perform zero Go
// allocations (pinned by TestBarrierZeroAllocs).
func (p *Proc) flushLines(ls []Addr) {
	ls = append(ls, p.carry...)
	p.carry = p.carry[:0]
	slices.Sort(ls)
	ls = slices.Compact(ls)
	p.lineScratch = ls
	for _, line := range ls {
		p.stats.LineFlushes++
		p.pwb(line)
	}
}

// PBarrier issues PWBs for the cache lines covering the given addresses
// followed by a PFence (the paper's pbarrier). It is counted once as a
// barrier, not as stand-alone flushes; each distinct line is flushed
// exactly once.
func (p *Proc) PBarrier(addrs ...Addr) {
	p.PBarrierAddrs(addrs)
}

// PBarrierAddrs issues one barrier (single pfence, counted once) covering
// the cache lines of all given addresses and every carried line (Carry),
// flushing each distinct line exactly once however many there are. This is
// the hand-tuned batching the paper describes: "all pwb instructions can be
// issued at the end of the phase, before the psync; a single pwb flushes all
// fields fitting in a cache line."
func (p *Proc) PBarrierAddrs(addrs []Addr) {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Barriers++
	ls := p.lineScratch[:0]
	for _, a := range addrs {
		ls = append(ls, lineOf(a))
	}
	p.flushLines(ls)
	p.stats.Fences++
	p.unsynced = true
}

// PBarrierRange issues a barrier covering [a, a+words) and every carried
// line (Carry).
func (p *Proc) PBarrierRange(a Addr, words uint64) {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Barriers++
	ls := p.lineScratch[:0]
	for line := lineOf(a); line < a+Addr(words); line += WordsPerLine {
		ls = append(ls, line)
	}
	p.flushLines(ls)
	p.stats.Fences++
	p.unsynced = true
}

// Alloc carves words fresh zeroed words out of the arena, even-aligned so
// bit 0 of the address is free for tags/marks. Memory is never reused
// within a run: the paper's algorithms assume a garbage collector and never
// free (README, "Crash-consistent node reclamation", says what replaces this
// leak-forever arena when Config.Reclaim is on).
func (p *Proc) Alloc(words uint64) Addr {
	p.checkCrash()
	words = (words + 1) &^ 1 // keep the local bump pointer even
	if words > p.chunkLeft {
		req := uint64(allocChunk)
		if words > req {
			req = words
		}
		p.chunk = p.h.grabChunk(req)
		p.chunkLeft = req
	}
	a := p.chunk
	p.chunk += Addr(words)
	p.chunkLeft -= words
	p.stats.AllocWords += words
	return a
}

// Leg is one leg of an announcement: which structure (registry ID, nonzero),
// which operation kind, and its argument. Flags is opaque to this package
// (see flagArgFromLeg1 in the repro root). StructID must fit 24 bits, Flags 8
// and Kind 32: they share the leg's first word.
type Leg struct {
	StructID uint64
	Kind     uint64
	Arg      uint64
	Flags    uint64
}

// Announce durably records that this process is about to execute legs (1 ≤
// len(legs) ≤ MaxBatch), in order, as one admission: the paper's announcement
// discipline, generalized across structures and to vectors. atomic marks the
// vector all-or-nothing (a transaction); pmem only stores the flag. See the
// layout above annSum.
//
// Announce issues one pwb per touched line — one for a single operation or a
// two-leg transaction — and no psync: the caller's next psync (an eager begin
// sequence's, see isb.Engine.Begin) orders them. It raises the admission
// number (see Admission), and the write order is what makes a crash inside it
// safe: the raised number first, which invalidates the previous record — and
// every result slot stamped under it — before any other word of it changes,
// sum last, and the header line written back last. A crash leaves the
// previous, completed record under its own number, which recovery resolves
// idempotently, or no valid record: either way this admission provably
// performed no tracked writes and is simply re-submitted.
// The record stays in place until the next admission begins, which is what
// lets registry-routed recovery find in-flight work after a crash.
func (p *Proc) Announce(atomic bool, legs ...Leg) {
	p.annPending = false
	end := p.writeAnnouncement(atomic, legs)
	a := p.h.annAddr(p.id)
	for line := a + WordsPerLine; line < end; line += WordsPerLine {
		p.PWB(line)
	}
	p.PWB(a)
}

// AnnounceLazy is Announce with nothing stored yet: the legs wait on the
// process (Go-side), and so do the responses of the boundaries reached
// meanwhile (CarryLegResult), until the admission's first durable action —
// its first install, which stores the record (StoreAnnouncement) ahead of its
// barrier and the pending responses (StoreLegResults) after it. A scope that
// closes first drops them all (CloseSyncScope). Until then Admission already
// returns the number the record will be stored under, so CP registers compare
// against it, and a crash finds the previous record under the previous
// number, exactly as a crash inside Announce does. An admission that
// installs nothing — reads and effect-free updates only (isb.Engine's
// attemptLoop) — leaves no record at all, so no durable record can name it
// as in flight once it has returned: recovery would re-invoke it, and a
// re-invoked failed insert could insert a key no caller inserted.
func (p *Proc) AnnounceLazy(atomic bool, legs ...Leg) {
	p.pending = append(p.pending[:0], legs...)
	p.results = p.results[:0]
	p.pendingAtomic, p.annPending = atomic, true
}

// RecordPending reports whether a lazily announced record is still unstored
// (AnnounceLazy).
func (p *Proc) RecordPending() bool { return p.annPending }

// StoreAnnouncement stores the record AnnounceLazy left pending, raising the
// admission number, and hands its lines to the carry set (Carry). The caller
// issues the barrier that writes them back next, before the admission takes
// any durable effect — an Isb-Opt install barrier — and then StoreLegResults.
// Without a pending record it does nothing.
func (p *Proc) StoreAnnouncement() {
	if !p.annPending {
		return
	}
	p.annPending = false
	end := p.writeAnnouncement(p.pendingAtomic, p.pending)
	for line := p.h.annAddr(p.id); line < end; line += WordsPerLine {
		p.Carry(line)
	}
}

// StoreLegResults stores the responses the boundaries left pending
// (CarryLegResult) into their stamped result slots and writes them back in
// one barrier, once the barrier after StoreAnnouncement has made the record
// durable: no slot changes while the durable header still holds the previous
// admission, since an eviction that persisted a slot line could otherwise
// leave the previous record valid with this admission's response in its
// slot, or a stamp above the number a crash rolls back to, which the next
// begin would reuse. The barrier precedes everything the installing leg makes
// durable after its install. Without pending responses it does nothing.
func (p *Proc) StoreLegResults() {
	if len(p.results) == 0 {
		return
	}
	for i, resp := range p.results {
		p.Carry(p.StoreLegResult(i, resp))
	}
	p.results = p.results[:0]
	p.PBarrierAddrs(nil)
}

// writeAnnouncement is Announce's stores without its write-backs; it returns
// the address just past the last leg word.
func (p *Proc) writeAnnouncement(atomic bool, legs []Leg) Addr {
	if len(legs) < 1 || len(legs) > MaxBatch {
		panic(fmt.Sprintf("pmem: Announce with %d legs (want 1..%d)", len(legs), MaxBatch))
	}
	a := p.h.annAddr(p.id)
	n := p.Load(a+annAdmission) + 1
	p.Store(a+annAdmission, n)
	meta := uint64(len(legs))
	if atomic {
		meta |= 1 << annAtomicShift
	}
	sum := annCheck(0, meta, n)
	w := a + annLegs
	for _, l := range legs {
		if l.StructID == 0 || l.StructID >= 1<<(64-legStructShift) ||
			l.Flags >= 1<<(legStructShift-legFlagsShift) || l.Kind >= 1<<legFlagsShift {
			panic(fmt.Sprintf("pmem: Announce with unencodable leg %+v", l))
		}
		w0 := l.StructID<<legStructShift | l.Flags<<legFlagsShift | l.Kind
		p.Store(w, w0)
		p.Store(w+1, l.Arg)
		sum = annCheck(sum, w0, l.Arg)
		w += 2
	}
	p.Store(a+annMeta, meta)
	p.Store(a+annSum, sum)
	return w
}

// ClearAnnounce is the bare begin: an admission that announces nothing. It
// raises the admission number and empties the record, in one write-back of
// the header line and no psync (the caller's orders it). Engines built outside
// a Runtime begin with it, and so does a crash harness's system-side step. It
// is eager under every placement: it is the paper's system-side CP_q := 0,
// durable before the invocation it precedes.
func (p *Proc) ClearAnnounce() {
	p.annPending = false
	a := p.h.annAddr(p.id)
	p.Store(a+annAdmission, p.Admission()+1)
	p.Store(a+annSum, 0)
	p.PWB(a)
}

// Admission returns this process's admission number, raised by every begin
// (Announce, ClearAnnounce, and a lazy announcement once StoreAnnouncement
// stores it; while it is pending the number it will be stored under). A CP
// register (an engine's CP_q, the exchanger's CP_ex) stores the number it was
// written under: one raise resets them all.
func (p *Proc) Admission() uint64 {
	n := p.Load(p.h.annAddr(p.id) + annAdmission)
	if p.annPending {
		n++
	}
	return n
}

// OpenSyncScope opens a sync scope on this process (see the syncScope
// field). The admitting runtime opens it ahead of the begin: under Isb-Opt
// the begin's psync is then one more deferred sync point, its record stored
// at the admission's first durable action (AnnounceLazy); CloseSyncScope
// issues the one psync that ends the scope.
func (p *Proc) OpenSyncScope() { p.syncScope = true }

// CloseSyncScope closes the open sync scope with the single psync every
// deferred sync point and overlapped write-back was waiting for — if there is
// one: a scope in which nothing was written back since the last psync (a
// read, an effect-free update, a window of them) has nothing to order, and
// closes without it. A record still pending (AnnounceLazy) is dropped: the
// admission took no durable action.
func (p *Proc) CloseSyncScope() {
	p.syncScope, p.annPending = false, false
	if p.unsynced {
		p.PSync()
	}
}

// ResetSyncScope abandons a sync scope a crash interrupted, without the
// closing psync, and drops a pending record: recovery runs with every sync
// point eager and every pwb at full latency.
func (p *Proc) ResetSyncScope() { p.syncScope, p.annPending = false, false }

// InSyncScope reports whether a sync scope is open on this process.
func (p *Proc) InSyncScope() bool { return p.syncScope }

// CarryLegResult is StoreLegResult with the slot's line handed to the carry
// set (Carry): it rides this process's next barrier, which must come before
// anything a later leg makes durable (an Isb-Opt boundary, isb.Engine's
// Boundary). While the record is pending (AnnounceLazy) the response waits
// with it, for StoreLegResults; i must then be the next leg in order.
func (p *Proc) CarryLegResult(i int, resp uint64) {
	if p.annPending {
		if i != len(p.results) {
			panic(fmt.Sprintf("pmem: pending result for leg %d, want leg %d", i, len(p.results)))
		}
		p.results = append(p.results, resp)
		return
	}
	p.Carry(p.StoreLegResult(i, resp))
}

// CloseLeg durably closes leg i of the announced vector: its response goes
// into result slot i, stamped with the admission number, in one write-back.
// Once the line is back, legs [0, i] are the completed prefix if every lower
// slot is stamped too; for an atomic vector slot 0 stamped is the commit
// point.
func (p *Proc) CloseLeg(i int, resp uint64) { p.PWB(p.StoreLegResult(i, resp)) }

// StoreLegResult is CloseLeg's two stores without its write-back: resp, which
// must be nonzero (0 is the engine's ⊥), then the admission number beside it.
// It returns the slot's address, whose line the caller writes back — at once,
// or with a barrier that comes before anything a later leg makes durable.
//
// The record must be durable already: while it is pending (AnnounceLazy),
// CarryLegResult keeps the response instead.
func (p *Proc) StoreLegResult(i int, resp uint64) Addr {
	if resp == 0 {
		panic("pmem: StoreLegResult with zero response")
	}
	if p.annPending {
		panic("pmem: StoreLegResult while the record is pending")
	}
	s := p.h.annAddr(p.id) + annResults + Addr(2*i)
	p.Store(s, resp)
	p.Store(s+1, p.Admission())
	return s
}

// Announcement reads this process's announcement header, validating the
// checksum over its immutable part. ok is false if nothing is announced (or
// the record was only partially persisted when the crash hit — the admission
// then provably performed no tracked writes). cursor < n is the completed
// prefix, derived from the result slots: legs [0, cursor) have durable
// responses readable via LegResult, leg cursor — the first whose slot is not
// stamped with the admission number — is the (at most one) in-flight leg, and
// legs (cursor, n) provably took no effect.
func (p *Proc) Announcement() (n, cursor int, atomic, ok bool) {
	a := p.h.annAddr(p.id)
	sum := p.Load(a + annSum)
	if sum == 0 {
		return 0, 0, false, false
	}
	meta := p.Load(a + annMeta)
	atomic = meta>>annAtomicShift&1 == 1
	cnt := meta &^ (1 << annAtomicShift)
	if cnt == 0 || cnt > MaxBatch {
		return 0, 0, false, false
	}
	adm := p.Load(a + annAdmission)
	check := annCheck(0, meta, adm)
	for w := a + annLegs; w < a+annLegs+Addr(2*cnt); w += 2 {
		check = annCheck(check, p.Load(w), p.Load(w+1))
	}
	if check != sum {
		return 0, 0, false, false
	}
	for cursor < int(cnt)-1 && p.Load(a+annResults+Addr(2*cursor)+1) == adm {
		cursor++
	}
	return int(cnt), cursor, atomic, true
}

// AnnouncedLeg reads leg i of the announcement.
func (p *Proc) AnnouncedLeg(i int) Leg {
	w := p.h.annAddr(p.id) + annLegs + Addr(2*i)
	w0 := p.Load(w)
	return Leg{
		StructID: w0 >> legStructShift,
		Flags:    w0 >> legFlagsShift & (1<<(legStructShift-legFlagsShift) - 1),
		Kind:     w0 & (1<<legFlagsShift - 1),
		Arg:      p.Load(w + 1),
	}
}

// LegResult reads leg i's response; meaningful only below the cursor.
func (p *Proc) LegResult(i int) uint64 {
	return p.Load(p.h.annAddr(p.id) + annResults + Addr(2*i))
}

// nextRand steps the per-proc xorshift PRNG.
func (p *Proc) nextRand() uint64 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return x
}

// Stats returns a copy of the per-proc instruction counters.
func (p *Proc) Stats() Stats { return p.stats }

// ResetStats zeroes the per-proc instruction counters.
func (p *Proc) ResetStats() { p.stats = Stats{} }

// ScheduleSelfCrash arms an individual failure of this process after
// roughly n more of its own accesses: the process panics with Crash, losing
// its volatile state (locals), while shared memory and other processes
// continue unaffected. This models the paper's footnote-1 failure model,
// meaningful in the private cache model where shared variables are always
// persistent. Arm from the process's own goroutine.
func (p *Proc) ScheduleSelfCrash(n uint64) {
	p.accesses = 0
	if n == 0 {
		n = 1
	}
	p.selfCrashAt = n
}

// CancelSelfCrash disarms a pending individual failure.
func (p *Proc) CancelSelfCrash() { p.selfCrashAt = 0 }

// RunOp executes f, converting a simulated crash panic into a false return.
// Any other panic propagates. It is the harness-side bracket for one
// recoverable operation (or recovery function) execution.
func RunOp(f func()) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Crash); ok {
				completed = false
				return
			}
			panic(r)
		}
	}()
	f()
	return true
}
