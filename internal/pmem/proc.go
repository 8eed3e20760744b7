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

	spinSink uint64 // defeats dead-code elimination of latency spins
}

// ID returns the process id (0-based).
func (p *Proc) ID() int { return p.id }

// Heap returns the heap this Proc belongs to.
func (p *Proc) Heap() *Heap { return p.h }

// Crash is the panic value used to simulate the loss of a process's volatile
// state. Harness code recovers it with RunOp.
type Crash struct{ ProcID int }

func (c Crash) Error() string { return "pmem: simulated crash" }

// checkCrash counts this access (tracked mode counts unconditionally; see
// Heap.AccessCount), panics with Crash if a system-wide crash is in
// progress, and fires a scheduled (system-wide or individual) crash when
// this access crosses the armed threshold.
func (p *Proc) checkCrash() {
	if !p.h.tracked {
		return
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
	if p.h.psyncSpin > 0 {
		p.spin(p.h.psyncSpin)
	}
}

// flushLines write-backs each distinct cache line covering addrs exactly
// once, in ascending line order. Dedup is exact for any phase size — no
// fixed window beyond which duplicates would be re-flushed — and reuses the
// per-proc scratch buffer, so steady-state barriers perform zero Go
// allocations (pinned by TestBarrierZeroAllocs).
func (p *Proc) flushLines(addrs []Addr) {
	ls := p.lineScratch[:0]
	for _, a := range addrs {
		ls = append(ls, lineOf(a))
	}
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
// the cache lines of all given addresses, flushing each distinct line
// exactly once however many there are. This is the hand-tuned batching the
// paper describes: "all pwb instructions can be issued at the end of the
// phase, before the psync; a single pwb flushes all fields fitting in a
// cache line."
func (p *Proc) PBarrierAddrs(addrs []Addr) {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Barriers++
	p.flushLines(addrs)
	p.stats.Fences++
}

// PBarrierRange issues a barrier covering [a, a+words).
func (p *Proc) PBarrierRange(a Addr, words uint64) {
	p.checkCrash()
	if p.h.model == PrivateCache {
		return
	}
	p.stats.Barriers++
	end := a + Addr(words)
	for line := lineOf(a); line < end; line += WordsPerLine {
		p.stats.LineFlushes++
		p.pwb(line)
	}
	p.stats.Fences++
}

// Alloc carves words fresh zeroed words out of the arena, even-aligned so
// bit 0 of the address is free for tags/marks. Memory is never reused
// within a run (the paper's algorithms assume GC; see DESIGN.md).
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

// Announce durably records that this process is about to execute operation
// (kind, arg) on the structure with registry ID structID (nonzero): the
// paper's announcement discipline, generalized across structures. It writes
// the process's announcement line — reserved in the heap layout — and issues
// a single pwb; the caller's next psync (in practice the engine's begin
// barrier) orders it, so announcing costs no stand-alone sync. The record
// stays in place for the whole operation and is only cleared by
// ClearAnnounce at the next operation's system-side Begin step, which is
// what lets registry-routed recovery find in-flight work after a crash.
func (p *Proc) Announce(structID, kind, arg uint64) {
	if structID == 0 {
		panic("pmem: Announce with structID 0")
	}
	a := p.h.annAddr(p.id)
	p.Store(a+annStruct, structID)
	p.Store(a+annKind, kind)
	p.Store(a+annArg, arg)
	p.Store(a+annSum, annCheck(structID, kind, arg))
	p.Store(a+annTxn, 0) // shape exclusion: never a single op AND a txn
	p.PWB(a)
}

// ClearAnnounce durably empties this process's announcement record. It must
// become durable before any recovery register of the previous operation is
// reset (CP_q := 0): once CP says "nothing in flight", a stale announcement
// would make registry-routed recovery re-invoke — and therefore duplicate —
// the previous, completed operation. The simulator's pwb writes back
// synchronously, so issuing the clear's pwb before touching CP_q suffices.
func (p *Proc) ClearAnnounce() {
	a := p.h.annAddr(p.id)
	p.Store(a+annStruct, 0)
	p.Store(a+abCount, 0)
	p.Store(a+annTxn, 0)
	p.PWB(a)
}

// OpenSyncScope opens a sync scope on this process (see the syncScope
// field). The caller has just issued the psync that publishes the
// admission's announcement; CloseSyncScope issues the one that ends it.
func (p *Proc) OpenSyncScope() { p.syncScope = true }

// CloseSyncScope closes the open sync scope with the single psync every
// deferred sync point and overlapped write-back was waiting for.
func (p *Proc) CloseSyncScope() {
	p.syncScope = false
	p.PSync()
}

// ResetSyncScope abandons a sync scope a crash interrupted, without the
// closing psync: recovery runs with every sync point eager and every pwb at
// full latency.
func (p *Proc) ResetSyncScope() { p.syncScope = false }

// InSyncScope reports whether a sync scope is open on this process.
func (p *Proc) InSyncScope() bool { return p.syncScope }

// AnnounceBatch durably records that this process is about to execute a
// batch of n operations (1 ≤ n ≤ MaxBatch) on the structure with registry ID
// structID (nonzero), all under the caller's next single psync. op reports
// the i-th operation's kind and argument.
//
// The record comprises the header (structID, count, cursor := 0, checksum
// over the immutable part) and n (kind, arg) op slots; result slots are NOT
// cleared here — a result slot only means something for indexes below the
// cursor, and the cursor writes that move it are ordered after the covered
// result slot's write-back (see SetBatchResult/AdvanceBatchCursor). The
// single-op announcement words are cleared so the record cannot be read as
// both shapes at once; the caller must have issued ClearAnnounce earlier in
// the same begin sequence (before resetting any recovery register), exactly
// as with Announce.
func (p *Proc) AnnounceBatch(structID uint64, n int, op func(i int) (kind, arg uint64)) {
	if structID == 0 {
		panic("pmem: AnnounceBatch with structID 0")
	}
	if n < 1 || n > MaxBatch {
		panic(fmt.Sprintf("pmem: AnnounceBatch with %d ops (want 1..%d)", n, MaxBatch))
	}
	a := p.h.annAddr(p.id)
	for i := 0; i < n; i++ {
		k, v := op(i)
		p.Store(a+abSlots+Addr(2*i), k)
		p.Store(a+abSlots+Addr(2*i)+1, v)
	}
	p.Store(a+annStruct, structID)
	p.Store(a+annKind, 0)
	p.Store(a+annArg, 0)
	p.Store(a+annSum, 0)
	p.Store(a+annTxn, 0) // shape exclusion: never a batch AND a txn
	p.Store(a+abCursor, 0)
	p.Store(a+abCount, uint64(n))
	p.Store(a+abSum, batchCheck(structID, uint64(n), op))
	// One pwb per touched line: the header and the op-slot lines. A crash
	// with only some of these lines persisted leaves the checksum invalid,
	// so a torn batch announcement reads as "no batch" (provably no effect).
	end := a + abSlots + Addr(2*n)
	for line := a; line < end; line += WordsPerLine {
		p.PWB(line)
	}
}

// SetBatchResult durably records operation i's response in the batch
// announcement's result slot. resp must be nonzero (0 is the engine's ⊥,
// the "no durable result" sentinel). The write-back is synchronous, so once
// AdvanceBatchCursor(i+1) persists, the covering result is already durable —
// the invariant batch recovery's completed-prefix reads rely on.
func (p *Proc) SetBatchResult(i int, resp uint64) {
	if resp == 0 {
		panic("pmem: SetBatchResult with zero response")
	}
	a := p.h.annAddr(p.id) + abResults + Addr(i)
	p.Store(a, resp)
	p.PWB(a)
}

// AdvanceBatchCursor durably moves the completed-prefix cursor to i: the
// batch's operations [0, i) now have durable results. Call only after
// SetBatchResult(i-1, …) returned.
func (p *Proc) AdvanceBatchCursor(i int) {
	a := p.h.annAddr(p.id)
	p.Store(a+abCursor, uint64(i))
	p.PWB(a)
}

// BatchAnnouncement reads this process's batch announcement record,
// validating the checksum over its immutable part. ok is false if no batch
// is announced (or the record was only partially persisted when the crash
// hit — the whole batch then provably performed no tracked writes). cursor
// is the durable completed prefix: ops [0, cursor) have durable results
// readable via BatchResult, op cursor is the (at most one) in-flight
// operation, and ops (cursor, n) provably never started.
func (p *Proc) BatchAnnouncement() (structID uint64, n, cursor int, ok bool) {
	a := p.h.annAddr(p.id)
	structID = p.Load(a + annStruct)
	cnt := p.Load(a + abCount)
	if structID == 0 || cnt == 0 || cnt > MaxBatch {
		return 0, 0, 0, false
	}
	if p.Load(a+abSum) != batchCheck(structID, cnt, func(i int) (uint64, uint64) {
		return p.Load(a + abSlots + Addr(2*i)), p.Load(a + abSlots + Addr(2*i) + 1)
	}) {
		return 0, 0, 0, false
	}
	cur := p.Load(a + abCursor)
	if cur >= cnt {
		// The cursor never reaches the count (the final operation's result
		// lives in the engine's recovery record, not a result slot); clamp a
		// torn value so callers can trust cursor < n.
		cur = cnt - 1
	}
	return structID, int(cnt), int(cur), true
}

// BatchOp reads the i-th op slot of the batch announcement.
func (p *Proc) BatchOp(i int) (kind, arg uint64) {
	a := p.h.annAddr(p.id)
	return p.Load(a + abSlots + Addr(2*i)), p.Load(a + abSlots + Addr(2*i) + 1)
}

// BatchResult reads the i-th result slot (0 = no durable result).
func (p *Proc) BatchResult(i int) uint64 {
	return p.Load(p.h.annAddr(p.id) + abResults + Addr(i))
}

// TxnLeg is one leg of a two-structure transaction announcement: which
// structure (registry ID), which operation kind, and its argument.
type TxnLeg struct {
	StructID uint64
	Kind     uint64
	Arg      uint64
}

// AnnounceTxn durably records that this process is about to execute a
// two-leg transaction — leg 1 on one structure, then a durable commit
// point, then leg 2 — all admitted under the caller's next single psync.
// flags carries transaction options (see internal/txn; e.g. "leg 2's
// argument derives from leg 1's response").
//
// The write order is load-bearing (each pwb is synchronous): first the leg
// line (both legs, commit point := 0, flags) and the zeroed result slots
// persist, THEN the header's annTxn checksum — the word that makes the
// record valid. A crash anywhere inside AnnounceTxn leaves either the old
// announcement, nothing, or a checksum-invalid torn record: in every case
// the transaction provably performed no tracked writes and is simply
// re-submitted. The caller must have issued ClearAnnounce earlier in the
// same begin sequence (before resetting any recovery register), exactly as
// with Announce; zeroing the commit point and result slots before validity
// is what lets recovery trust "commit = 0 means leg 2 never started" and
// "result slot ≠ 0 means this transaction wrote it".
func (p *Proc) AnnounceTxn(leg1, leg2 TxnLeg, flags uint64) {
	if leg1.StructID == 0 || leg2.StructID == 0 {
		panic("pmem: AnnounceTxn with structID 0")
	}
	a := p.h.annAddr(p.id)
	p.Store(a+txLegs+0, leg1.StructID)
	p.Store(a+txLegs+1, leg1.Kind)
	p.Store(a+txLegs+2, leg1.Arg)
	p.Store(a+txLegs+3, leg2.StructID)
	p.Store(a+txLegs+4, leg2.Kind)
	p.Store(a+txLegs+5, leg2.Arg)
	p.Store(a+txCommit, 0)
	p.Store(a+txFlags, flags)
	p.PWB(a + txLegs)
	p.Store(a+txResults, 0)
	p.Store(a+txResults+1, 0)
	p.PWB(a + txResults)
	p.Store(a+annStruct, 0)
	p.Store(a+abCount, 0)
	p.Store(a+annTxn, txnCheck(leg1, leg2, flags))
	p.PWB(a)
}

// CommitTxn durably flips the transaction's commit point: leg 1 completed
// and its result slot persisted (call only after SetTxnResult(0, …)
// returned — its write-back is synchronous, so the result is durable
// strictly before the commit mark that covers it). After CommitTxn,
// recovery re-drives leg 2 instead of re-submitting the transaction.
func (p *Proc) CommitTxn() {
	a := p.h.annAddr(p.id)
	p.Store(a+txCommit, txnCommitMark(p.Load(a+annTxn)))
	p.PWB(a + txCommit)
}

// SetTxnResult durably records leg i's (0 or 1) response in the
// transaction announcement's result slot. resp must be nonzero (0 is the
// engine's ⊥, the "no durable result" sentinel).
func (p *Proc) SetTxnResult(i int, resp uint64) {
	if resp == 0 {
		panic("pmem: SetTxnResult with zero response")
	}
	a := p.h.annAddr(p.id) + txResults + Addr(i)
	p.Store(a, resp)
	p.PWB(a)
}

// TxnResult reads leg i's result slot (0 = no durable result). AnnounceTxn
// durably zeroed both slots before the record became valid, so a nonzero
// slot was written by THIS transaction — which is what lets recovery trust
// slot 0 as proof that leg 1 completed even when the commit point's
// write was lost.
func (p *Proc) TxnResult(i int) uint64 {
	return p.Load(p.h.annAddr(p.id) + txResults + Addr(i))
}

// TxnAnnouncement reads this process's transaction announcement record,
// validating the checksum that binds the header to the leg line. ok is
// false if no transaction is announced (or the record was only partially
// persisted when the crash hit — the transaction then provably performed
// no tracked writes). committed reports the durable commit point: false
// means leg 2 provably never started.
func (p *Proc) TxnAnnouncement() (leg1, leg2 TxnLeg, flags uint64, committed, ok bool) {
	a := p.h.annAddr(p.id)
	sum := p.Load(a + annTxn)
	if sum == 0 {
		return TxnLeg{}, TxnLeg{}, 0, false, false
	}
	leg1 = TxnLeg{StructID: p.Load(a + txLegs + 0), Kind: p.Load(a + txLegs + 1), Arg: p.Load(a + txLegs + 2)}
	leg2 = TxnLeg{StructID: p.Load(a + txLegs + 3), Kind: p.Load(a + txLegs + 4), Arg: p.Load(a + txLegs + 5)}
	flags = p.Load(a + txFlags)
	if sum != txnCheck(leg1, leg2, flags) {
		return TxnLeg{}, TxnLeg{}, 0, false, false
	}
	committed = p.Load(a+txCommit) == txnCommitMark(sum)
	return leg1, leg2, flags, committed, true
}

// Announcement reads this process's announcement record, validating the
// checksum. ok is false if the record is cleared or was only partially
// persisted when the crash hit — in both cases the announced operation
// provably performed no tracked writes, so there is nothing to recover.
func (p *Proc) Announcement() (structID, kind, arg uint64, ok bool) {
	a := p.h.annAddr(p.id)
	structID = p.Load(a + annStruct)
	kind = p.Load(a + annKind)
	arg = p.Load(a + annArg)
	sum := p.Load(a + annSum)
	if structID == 0 || sum != annCheck(structID, kind, arg) {
		return 0, 0, 0, false
	}
	return structID, kind, arg, true
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

// Rand exposes the PRNG for workload generators that want per-proc seeded
// randomness without extra state.
func (p *Proc) Rand() uint64 { return p.nextRand() }

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
