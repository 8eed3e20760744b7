// Package isb implements Info-Structure-Based tracking — the paper's
// primary contribution (Algorithms 1 and 2 of "Tracking in Order to
// Recover", SPAA 2020) — as a generic, reusable engine.
//
// A data structure built on the engine provides only a gather function that
// traverses the structure and fills a Spec: the nodes the operation affects
// (AffectSet, in the structure's fixed total order), the CAS updates to
// perform (WriteSet), the info fields to untag afterwards (CleanupSet: the
// AffectSet entries that survive the operation, plus new nodes), the memory
// ranges of newly allocated nodes to persist, and the operation's response.
// Everything else — helping, tagging, backtracking, the update and cleanup
// phases, persistence-instruction placement, per-process recovery data
// (RD_q, CP_q), the recovery function, and the operation surface around them
// (Ops) — is generic and shared by the list, queue, BST, stack and hash map
// packages. A phase's writes go back per store under Isb and in one barrier
// per phase under Isb-Opt (Engine.wrote), and an engine's volatile
// per-process state is one record per process, padded to whole cache lines.
//
// Tagging convention: a node's info field holds the word address of an Info
// record with bit 0 as the tag ("lock") bit. Every attempt that installs
// uses a fresh Info record (one that installs nothing tags nothing, and
// leaves its record to the next), so an info field never holds the same
// tagged value twice, which rules out ABA on info fields.
//
// Engine requirement (checked at install time): only the first AffectSet
// element may appear in the CleanupSet. Later elements must be retired by a
// successful operation (they stay tagged forever). This is what makes the
// full backtrack — untagging every other element after a tag failure — safe
// even for helpers: a tag failure on an operation that has not completed
// proves it never can, because expected info values never recur.
package isb

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pmem"
)

// Response encoding inside Info records. 0 is the paper's ⊥ ("no result
// yet"); other responses are strictly positive.
const (
	RespNone  uint64 = 0 // ⊥
	RespFalse uint64 = 1
	RespTrue  uint64 = 2
	RespEmpty uint64 = 3 // e.g. dequeue on an empty queue
	// RespSkipped: a transaction leg that was deterministically elided —
	// leg 2's argument derives from leg 1's response, and leg 1 carried no
	// value (e.g. dequeue on empty). Never produced by a structure op.
	RespSkipped uint64 = 4
	respVBase   uint64 = 16
)

// EncodeValue encodes an application payload (e.g. a dequeued value) as a
// response word.
func EncodeValue(v uint64) uint64 { return v + respVBase }

// DecodeValue inverts EncodeValue.
func DecodeValue(r uint64) uint64 { return r - respVBase }

// IsValue reports whether a response word carries an application payload.
func IsValue(r uint64) bool { return r >= respVBase }

// Bool decodes RespTrue/RespFalse.
func Bool(r uint64) bool { return r == RespTrue }

// BoolResp encodes a boolean response.
func BoolResp(b bool) uint64 {
	if b {
		return RespTrue
	}
	return RespFalse
}

// Tagging helpers (bit 0 of an info-field word).
func Tagged(info pmem.Addr) uint64   { return uint64(info) | 1 }
func Untagged(info pmem.Addr) uint64 { return uint64(info) &^ 1 }
func IsTagged(v uint64) bool         { return v&1 == 1 }
func InfoOf(v uint64) pmem.Addr      { return pmem.Addr(v &^ 1) }

// Info record layout (word offsets). Records are fixed-size so that arena
// allocation stays a bump; the limits cover every structure in the paper
// (the BST's Delete has the largest AffectSet: gp, p, l, sibling).
//
// A record validates itself, as the announcement record does: offSum is a
// checksum (infoSum) over every immutable word the record uses, the stamp —
// process, leg index and admission number — included. It shares its
// two-word pair with offResult, and records are two-word aligned, so the
// pair never straddles a cache line: a record whose sum validates holds its
// own install's result, never a stale one from a record the address held
// before. Only offResult and offDone change after the install.
const (
	offOpType  = 0
	offArgKey  = 1
	offResult  = 2
	offSum     = 3 // checksum over the stamp and the immutable words
	offSuccess = 4
	offLens    = 5  // AffectSet | WriteSet << 8 | CleanupSet << 16 lengths
	offStamp   = 6  // leg index | process << stampProcShift
	offDone    = 7  // set by the invoker as its cleanup phase starts; written back with the untags
	offAffect  = 8  // MaxAffect pairs ⟨infoFieldAddr, expectedValue⟩
	offWrites  = 16 // MaxWrites triples ⟨addr, old, new⟩
	offCleanup = 25 // MaxCleanup info-field addresses
	offAdm     = 31 // admission number the record was installed under

	stampProcShift = 32

	// MaxAffect etc. bound the per-operation sets.
	MaxAffect  = 4
	MaxWrites  = 3
	MaxCleanup = 6

	// InfoWords is the allocation size of one Info record.
	InfoWords = 32
)

// AffectEntry is one element of an operation's AffectSet: the address of a
// node's info field and the (untagged) value gathered from it.
type AffectEntry struct {
	Info     pmem.Addr
	Expected uint64
}

// Write is one element of a WriteSet: a CAS to perform in the update phase.
type Write struct {
	Addr     pmem.Addr
	Old, New uint64
}

// Range is a span of newly allocated persistent memory to flush together
// with the Info record (the paper's pbarrier(*opInfo, NewSet)).
type Range struct {
	Addr  pmem.Addr
	Words uint64
}

// Spec describes one attempt of one operation. Gather functions fill it;
// the engine installs it into an Info record and executes it.
type Spec struct {
	OpType uint64
	ArgKey uint64

	NAffect int
	Affect  [MaxAffect]AffectEntry

	NWrites int
	Writes  [MaxWrites]Write

	NCleanup int
	Cleanup  [MaxCleanup]pmem.Addr

	NPersist int
	Persist  [MaxAffect]Range

	// ReadOnly marks an operation eligible for the Algorithm 2 (ROpt)
	// fast path: single AffectSet element, empty WriteSet, response
	// computed from immutable fields.
	ReadOnly bool
	// Response is the encoded response for the ReadOnly fast path.
	Response uint64
	// SuccessResponse is the encoded response Help stores into the result
	// field once the update phase runs. For ReadOnly specs the engine
	// forces it equal to Response so a recovery-time Help is idempotent.
	SuccessResponse uint64
}

// Reset clears a Spec for reuse across attempts.
func (s *Spec) Reset() { *s = Spec{} }

// AddAffect appends an AffectSet entry (in the structure's total order).
func (s *Spec) AddAffect(infoField pmem.Addr, expected uint64) {
	s.Affect[s.NAffect] = AffectEntry{Info: infoField, Expected: expected}
	s.NAffect++
}

// AddWrite appends a WriteSet CAS.
func (s *Spec) AddWrite(a pmem.Addr, old, new uint64) {
	s.Writes[s.NWrites] = Write{Addr: a, Old: old, New: new}
	s.NWrites++
}

// AddCleanup appends an info field for the cleanup phase to untag.
func (s *Spec) AddCleanup(infoField pmem.Addr) {
	s.Cleanup[s.NCleanup] = infoField
	s.NCleanup++
}

// AddPersist appends a new-node memory range for the install barrier.
func (s *Spec) AddPersist(a pmem.Addr, words uint64) {
	s.Persist[s.NPersist] = Range{Addr: a, Words: words}
	s.NPersist++
}

// GatherResult tells the engine what to do with a gather attempt.
type GatherResult int

const (
	// Proceed: the Spec is complete; run the helping phase and Help.
	Proceed GatherResult = iota
	// Restart: the traversal observed an inconsistency; retry gather.
	Restart
)

// Gather is the single structure-specific callback: fill spec (already
// Reset) for one attempt. info is the Info record the attempt will use;
// gather code tags newly allocated nodes with Tagged(info).
type Gather func(p *pmem.Proc, info pmem.Addr, spec *Spec) GatherResult

// Engine holds the per-process recovery variables for one data structure
// instance. RD_q and CP_q live in persistent memory, one cache line per
// process to avoid false sharing, which holds two such registers: Isb uses
// the first only, and Isb-Opt alternates, each install writing the register
// its process's last complete install did not (see attemptLoop). The volatile
// per-process state is one engineProc per process. A phase reports what it
// writes to wrote and wroteRange, where the placements differ: a pwb per
// store under Isb, one deduplicating barrier per phase under Isb-Opt; helping,
// tagging, backtracking, the update and cleanup phases and recovery run the
// same code under both. A register's CP_q holds the admission number
// (Admission) its RD_q's record was installed under: "CP_q = 1" reads
// CP_q equals that number, and every begin's raise of the number is CP_q := 0.
type Engine struct {
	h    *pmem.Heap
	base pmem.Addr // proc q's line: base + q*WordsPerLine; register r is RD at word 2r, CP at 2r+1
	// batched is the placement: Isb-Opt, or Isb (the paper's as written).
	batched bool
	procs   []engineProc
	// annID, when nonzero, is the runtime-registry structure ID this engine
	// announces under: Begin's one write-back then publishes the process's new
	// announcement record along with its admission number. Engines built
	// outside a Runtime have none, and begin bare (Announce with no legs).
	// recs is the table of the processes' Isb-Opt deferral states (Records),
	// which the engine shares with the Runtime's other engines, or its own.
	annID uint64
	recs  *Records
	// alloc serves Info records and (through Alloc) structure nodes. The
	// default pmem.Arena reproduces the seed's leak-forever behaviour; a
	// pmem.Reclaimer recycles retired blocks after an epoch grace period.
	// Epoch pins and retirements are threaded through the operation entry
	// points; a pin touches no heap word, and an allocation's or a
	// retirement's dead bit rides the process's next barrier (pmem.Proc.Carry),
	// so reclamation adds no write-back.
	alloc pmem.Allocator
	// settled is the heap epoch (crash count) Settle last finished at.
	settled atomic.Uint64
}

// engineProc is one process's volatile engine state. A Proc runs on one
// goroutine and writes its entry at every operation, so an entry fills whole
// cache lines and two never share one (TestEngineProcFillsCacheLines).
type engineProc struct {
	p *pmem.Proc
	// dirty holds the Isb-Opt phase's written lines (note). Lines other code
	// carried — the announcement, a result slot — do not count.
	dirty []pmem.Addr
	// spec is the attempt scratch. A Spec passed to a Gather callback by
	// address escapes analysis, so a stack-local one would cost one heap
	// allocation per operation; attemptLoop never nests on one process.
	spec Spec
	// last is what the registers hold and what retires when they are
	// overwritten (lastOp, retireLast).
	last lastOp
	// cookies feeds cookie (see there).
	cookies uint64
	// seq is the leg index install stamps into Info records (offStamp): the
	// operation's position in its announced vector, 0 for a single operation.
	// Every path to install sets it first (Begin, runBatchOp, recoverSeq), so
	// a crash needs no reset.
	seq uint64
	// batchSyncs and readFast back Counters (see isb.Stats).
	batchSyncs, readFast uint64
	// kept is the Info record of the process's last attempt that installed
	// nothing, or of the attempt in progress until it installs, allocated at
	// heap epoch keptAt: the next attempt's record (attemptLoop).
	kept   pmem.Addr
	keptAt uint64
	_      [16]byte
}

// lastOp is a process's Go-side view of its registers: the one its last
// complete install wrote (reg), the Info record each was last written with,
// and the engine's retire schedule, the retired-class operands of updates
// whose cleanup is not yet durable, which step's schedule actions fill (see
// the transition table): at most two updates' — one released by a barrier on
// another engine, and the next, which a crash left held before this engine
// installed again. Go-side
// on purpose: after a crash a register durably holds either the record info
// names for it or that of an install the crash cut short, which then leaks
// inside the crash's in-flight budget, and retiring on schedule is right in
// both cases: where a crash cut the done flag short, Settle's durable untags,
// or for an update without a CleanupSet its done flag, stop a re-run of the
// update before the next install. A full scan keeps them alive until then
// (MarkReachable).
type lastOp struct {
	reg  int
	info [2]pmem.Addr
	held [2 * MaxAffect]pmem.Addr
	n    int
}

// NewEngine allocates RD/CP lines for every process of the heap, with the
// paper's Algorithm 1/2 persistence placement (the "Isb" curve).
func NewEngine(h *pmem.Heap) *Engine {
	return newEngine(h, false)
}

// NewEngineOpt is NewEngine with hand-tuned persistence (the "Isb-Opt"
// curve): per-phase write-backs are batched into a single barrier whose
// pwbs dedupe cache lines, and the Info record and NewSet persist in one
// barrier. The paper licenses this explicitly: "all pwb instructions can be
// issued at the end of the phase, before the psync".
func NewEngineOpt(h *pmem.Heap) *Engine {
	return newEngine(h, true)
}

// newEngine builds an engine with the batched (Isb-Opt) or the eager (Isb)
// placement.
func newEngine(h *pmem.Heap, batched bool) *Engine {
	p0 := h.Proc(0)
	n := uint64(h.NumProcs())
	raw := p0.Alloc(n*pmem.WordsPerLine + pmem.WordsPerLine)
	base := (raw + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
	e := &Engine{h: h, base: base, batched: batched, procs: make([]engineProc, n), recs: NewRecords(h), alloc: pmem.Arena{}}
	for i := range e.procs {
		e.procs[i].p = h.Proc(i)
	}
	return e
}

// SetAllocator replaces the engine's allocator (default: the leak-forever
// pmem.Arena). Call before any operation runs; the structures built on the
// engine draw their nodes from the same allocator via Alloc.
func (e *Engine) SetAllocator(a pmem.Allocator) { e.alloc = a }

// Allocator returns the engine's allocator.
func (e *Engine) Allocator() pmem.Allocator { return e.alloc }

// Alloc allocates a structure node block from the engine's allocator.
func (e *Engine) Alloc(p *pmem.Proc, words uint64) pmem.Addr {
	return e.alloc.Alloc(p, words)
}

// cookie returns a fresh even value unique across the whole run (counters
// are Go-side and survive simulated crashes). Cookies are what the engine
// writes when it untags an info field — instead of Untagged(info) — so
// that an info field never holds the same non-tagged value twice even when
// Info records are recycled: the tag-phase invariant "expected info values
// never recur" survives memory reuse. Untagged info-field values are never
// dereferenced (only compared), so the switch is invisible to gathers;
// cookies are even, so IsTagged and the invariant checkers are unaffected,
// and carry cookieBit, so that no cookie looks like a heap address to the
// reclaimer's conservative scan.
func (e *Engine) cookie(ep *engineProc) uint64 {
	ep.cookies++
	return e.cookieAt(ep, ep.cookies)
}

// cookieAt is the cookie of ep's counter value c: a held update reserves its
// untags' values ahead (finish), so that the next leg can expect them.
func (e *Engine) cookieAt(ep *engineProc, c uint64) uint64 {
	return cookieBit | (c*uint64(len(e.procs))+uint64(ep.p.ID()))<<1
}

// cookieBit is set in every cookie: far above any heap address.
const cookieBit = 1 << 62

// retireLast records that register r of the calling process durably names
// info now (Null: nothing), and retires what that frees: the record r named
// before, and the operands held for cleanups this barrier made durable.
// Callers must ensure both can no longer be consulted by recovery: r's write
// is durable, and so is every line the last barrier carried. Under Isb that is
// RD_q := Null, behind its barrier, or RD_q := info, behind its pwb, and
// every cleanup is durable before its operation returns. Under Isb-Opt it is
// an install's barrier, which writes r, the register the last complete
// install did not write: a record therefore retires one install later than
// the install that replaced it, since until the barrier that overwrites it is
// done, recovery may read it whatever CP_q says (Settle) and it may be the one
// a crash leaves the leg resolving from. An update's operands join lastOp.held
// once the untags after its update phase have run, and retire at this
// engine's next install barrier, which carried them, so no recovery re-runs
// the update phase on them (see Help); the install that releases a held
// update calls this first (attemptLoop). In-flight helpers may still hold any
// of them; the allocator's epoch grace covers them.
func (e *Engine) retireLast(p *pmem.Proc, r int, info pmem.Addr) {
	last := &e.proc(p).last
	old, held, n := last.info[r], last.held, last.n
	// Before any Retire: a crash inside one must not repeat the others.
	last.reg, last.info[r], last.n = r, info, 0
	for _, nd := range held[:n] {
		e.alloc.Retire(p, nd)
	}
	if old != pmem.Null {
		e.alloc.Retire(p, old)
	}
}

// Batched reports whether the engine defers write-backs to phase
// boundaries (the Isb-Opt placement).
func (e *Engine) Batched() bool { return e.batched }

// proc returns the calling process's entry.
func (e *Engine) proc(p *pmem.Proc) *engineProc { return &e.procs[p.ID()] }

// rd and cp are the words of register r of process q.
func (e *Engine) rd(q, r int) pmem.Addr {
	return e.base + pmem.Addr(q*pmem.WordsPerLine+2*r)
}
func (e *Engine) cp(q, r int) pmem.Addr { return e.rd(q, r) + 1 }

// The engine reports every persistent word it writes to wrote, and every
// freshly allocated range to wroteRange, and ends every phase with endPhase.
// The placements differ there only. Isb writes back per store, exactly as
// Algorithms 1 and 2 are written: a pwb right after every store or CAS, a
// pbarrier per freshly allocated range, so its flush has nothing to do.
// Isb-Opt notes the phase's dirty lines, and flush issues one barrier whose
// pwbs dedupe cache lines (licensed by the paper: "all pwb instructions can be
// issued at the end of the phase, before the psync").
//
// Crash contract: after endPhase returns, everything reported since the
// previous phase ended is durable, and so is a phase ended by deferPhase once
// the process's next barrier, on any engine, has run: a held update phase
// (Engine.finish), whose cleanup that barrier then releases. Under Isb-Opt nothing in
// the phase is guaranteed durable before that point, so a crash mid-phase may
// leave the phase fully absent from persistent memory, or any subset of its
// lines durable; Help and recoverSeq tolerate every outcome because every
// phase is idempotent and re-runnable from its Info record, and recovery
// believes an install only with evidence that its barrier completed
// (Engine.helpRecorded).

// wrote reports one persistent word written in the current phase.
func (e *Engine) wrote(ep *engineProc, a pmem.Addr) {
	if !e.batched {
		ep.p.PWB(a)
		return
	}
	ep.note(a &^ (pmem.WordsPerLine - 1))
}

// wroteRange reports a span of newly allocated persistent memory that must
// persist with the current phase (the paper's NewSet).
func (e *Engine) wroteRange(ep *engineProc, a pmem.Addr, words uint64) {
	if !e.batched {
		ep.p.PBarrierRange(a, words)
		return
	}
	// Stride from the containing line boundary, not from a: the arena only
	// guarantees 2-word alignment, so an unaligned range can span one more
	// line than words/WordsPerLine and the tail line must not be dropped.
	end := a + pmem.Addr(words)
	for l := a &^ (pmem.WordsPerLine - 1); l < end; l += pmem.WordsPerLine {
		ep.note(l)
	}
}

// note records line l as dirty unless it was the line recorded last, so a
// run of stores to one line — the common phase shape — costs one slot,
// keeping large phases' scratch small. dirty's capacity is retained across
// phases, so steady-state operation does not allocate; the barrier
// (PBarrierAddrs) dedupes exactly, for any phase size.
func (ep *engineProc) note(l pmem.Addr) {
	if n := len(ep.dirty); n > 0 && ep.dirty[n-1] == l {
		return
	}
	ep.dirty = append(ep.dirty, l)
}

// flush makes every line noted since the last flush durable, without an
// ordering point: the phase's barrier, which also writes back every carried
// line. A phase that noted nothing issues none, carried lines or not: they
// wait for a barrier that is paid anyway. It reports whether it issued one.
func (ep *engineProc) flush() bool {
	if len(ep.dirty) == 0 {
		return false
	}
	ep.p.PBarrierAddrs(ep.dirty)
	ep.dirty = ep.dirty[:0]
	return true
}

// deferPhase ends the current phase without writing it back: its lines go to
// the process's carry set (pmem.Proc.Carry), which the next barrier on any
// engine writes back with its own, and its sync point is deferred.
func (ep *engineProc) deferPhase() {
	for _, l := range ep.dirty {
		ep.p.Carry(l)
	}
	ep.dirty = ep.dirty[:0]
	ep.batchSyncs++
}

// endPhase closes a persistence phase: flush, then the engine's sync point.
// Inside a sync scope only the write-backs happen now. A barrier it issues
// writes back the update the process holds, if any, on any engine, whose
// cleanup then runs (step's barrier rule, performed by perform).
func (e *Engine) endPhase(ep *engineProc) {
	if ep.flush() {
		e.perform(ep.p, e.step(ep.p, &event{kind: evBarrier}))
	}
	ep.opSync()
}

// step reports ev, on e, to p's deferral state (see step) and returns the
// actions it asks for.
func (e *Engine) step(p *pmem.Proc, ev *event) (a actions) {
	ev.e, ev.scoped = e, e.batched && p.InSyncScope()
	e.recs.procs[p.ID()].d.apply(ev, &a)
	return a
}

// perform carries out the actions step returned, but for ok, which its
// caller reads, in this order: store the record or the slots, each line
// carried to the next barrier (pmem.Proc.Carry); add operands to an engine's
// retire schedule or retire them; issue a barrier of p's own; release the
// held update — run its cleanup on its engine, then report it released; and
// a barrier of its own after that.
//
// The install's barrier may persist any subset of the stored lines, and each
// subset is safe. A record without its prefix, or a prefix without its
// header, fails the sum, and so does a header torn from its legs: the
// admission, which takes effect only after the barrier, then reads as not
// begun, and the previous record, whose slots sit in the other area, stays
// valid unless its own header was torn. A later slot without the rest is a
// leg closed early, whose response is durable; the rest without the slot
// leave the previous leg at the cursor, its record still named (the install
// writes the register its process's last complete install did not).
func (e *Engine) perform(p *pmem.Proc, a actions) {
	r := &e.recs.procs[p.ID()]
	if a.storeRecord {
		end := writeRecord(p, a.atomic, r.legs, r.results[:a.hi])
		for line := p.Region(); line < end; line += pmem.WordsPerLine {
			p.Carry(line)
		}
		for i := range a.hi {
			p.Carry(slot(p, Admission(p), i))
		}
	}
	for i := a.lo; !a.storeRecord && i < a.hi; i++ {
		p.Carry(storeLegResult(p, i, r.results[i]))
	}
	for i := 0; a.ops != nil && i < MaxAffect; i++ {
		if nd := a.ops[i]; nd == pmem.Null {
			break
		} else if a.schedule {
			last := &a.on.proc(p).last
			last.held[last.n] = nd
			last.n++
		} else {
			e.alloc.Retire(p, nd)
		}
	}
	if a.barrier {
		p.PBarrierAddrs(nil)
	}
	if x := a.on; a.release {
		x.cleanup(p, x.proc(p), a.info, Tagged(a.info), true, a.n)
		x.perform(p, x.step(p, &event{kind: evReleased}))
	}
	if a.ownBarrier {
		p.PBarrierAddrs(nil)
	}
}

// opSync is the engine-side psync point: outside a sync scope it issues a
// psync; inside one (pmem.Proc.OpenSyncScope) it is deferred — counted, and
// paid by the scope's closing psync (or, in an Isb batch window, by the op
// boundary's). Deferral never changes crash-visible state: every pwb writes
// its line back synchronously, so a psync's only simulated effects are
// ordering cost and accounting.
func (ep *engineProc) opSync() {
	if ep.p.InSyncScope() {
		ep.batchSyncs++
		return
	}
	ep.p.PSync()
}

// NoteReadFast counts one operation served by the zero-persist read-only
// fast path (structures call it from their volatile-traversal reads).
func (e *Engine) NoteReadFast(p *pmem.Proc) { e.proc(p).readFast++ }

// Counters sums the engine's batching/fast-path counters across processes
// (see isb.Stats for the per-op view).
func (e *Engine) Counters() (batchSyncs, readFast uint64) {
	for i := range e.procs {
		batchSyncs += e.procs[i].batchSyncs
		readFast += e.procs[i].readFast
	}
	return
}

// SetAnnounceID registers the runtime structure ID this engine announces
// operations under, and the table of lazily announced records it shares with
// the heap's other engines (see the annID field). Call once, at structure
// registration, before any operation runs.
func (e *Engine) SetAnnounceID(id uint64, recs *Records) { e.annID, e.recs = id, recs }

// Begin is the begin sequence of every admission shape — the system-side
// action of the paper's model (persistently set CP_q := 0 just before a fresh
// operation starts), generalized to an announced vector of legs: a single
// operation (Ops.ApplyOp), a batch window, a two-structure transaction
// (others is then the second leg's engine, if distinct), or no legs at all —
// the bare step a crash harness runs before each invocation (Ops.Begin). e is
// leg 0's engine.
//
// It resets every involved engine, then announces the legs (or begins bare),
// which raises the process's admission number — CP_q := 0 on every engine at
// once, the exchanger's CP_ex included. Where that begin is eager it is one
// write-back and one psync, durable before any leg, or any pre-engine effect
// such as the stack's elimination attempt, can take effect; a crash inside it
// leaves the previous announcement under its own number, which recovery
// re-reports idempotently, or no valid record: this admission provably
// performed no tracked writes and is simply re-submitted.
//
// Under Isb-Opt, an announcement inside a sync scope — the admitting runtime
// opens it ahead of the begin, and ApplyOp does unless an elimination layer
// runs first — stores nothing, writes nothing back and issues no psync: the
// legs wait in the engine's table (step's begin rule), and the begin psync
// is one more sync point deferred to the scope's close. The admission's first
// install stores the record, its raised admission number and, as its prefix,
// the responses of the boundaries before it, just before its barrier, which
// writes them back with the install's own lines, RD_q and CP_q among them
// (step's install rule). No tag, and so no tracked effect of the admission,
// precedes that barrier, and whatever subset of its lines a crash persists,
// recovery finds what a crash inside an eager begin finds — the previous
// record, or none — or the new record with no leg begun. An admission that
// installs nothing — reads and effect-free updates only (attemptLoop) — never
// stores its record: the scope's close drops it, so no durable record names it
// as in flight once it has returned; and an effect-free leg after the first
// install installs nothing either, its window's durable cursor resting on the
// last leg that did (step's effect-free rule). Three begins stay eager, each for its
// own reason: the bare begin, which is the paper's system-side step itself;
// the elimination stack's, whose exchange takes effect outside any engine
// barrier, so its effect-free outcome keeps the ROpt install; and every Isb
// begin, the paper's placement as written.
func (e *Engine) Begin(p *pmem.Proc, atomic bool, legs []Leg, others ...*Engine) {
	e.reset(p)
	for _, o := range others {
		o.reset(p)
	}
	if e.annID == 0 {
		legs = nil // outside a Runtime: the bare begin
	}
	r := &e.recs.procs[p.ID()]
	r.legs, r.results = append(r.legs[:0], legs...), r.results[:0]
	if e.step(p, &event{kind: evBegin, atomic: atomic, n: len(legs)}).ok {
		Announce(p, atomic, legs...)
		return
	}
	e.proc(p).batchSyncs++
}

// reset readies the engine for an admission, writing nothing. The previous
// operation's Info record stays: a register still names it, and its update
// phase, or its cleanup, may still wait for this admission's first barrier
// (see retireLast) — or, after a crash, for Settle, which the first begin
// after it runs.
func (e *Engine) reset(p *pmem.Proc) {
	e.settle(p, true)
	e.proc(p).seq = 0
}

// install writes spec into the Info record, stamped and summed, under
// admission number adm (volatile stores; the caller's barrier persists the
// record).
func (e *Engine) install(p *pmem.Proc, info pmem.Addr, s *Spec, adm uint64) {
	if s.NAffect > MaxAffect || s.NWrites > MaxWrites || s.NCleanup > MaxCleanup {
		panic(fmt.Sprintf("isb: spec out of bounds: %+v", s))
	}
	if s.NAffect == 0 && !s.ReadOnly {
		// Only the paper's "AffectSet = ∅" optimization for read-only
		// operations (Section 6, BST Finds) may omit the AffectSet.
		panic("isb: empty AffectSet on a non-read-only spec")
	}
	for i := 1; i < s.NAffect; i++ {
		for j := 0; j < s.NCleanup; j++ {
			if s.Cleanup[j] == s.Affect[i].Info {
				panic("isb: only the first AffectSet element may be in the CleanupSet (see package doc)")
			}
		}
	}
	var rec [InfoWords]uint64
	rec[offOpType], rec[offArgKey] = s.OpType, s.ArgKey
	rec[offResult], rec[offSuccess] = RespNone, s.SuccessResponse
	if s.ReadOnly {
		rec[offResult], rec[offSuccess] = s.Response, s.Response // ROpt line 74
	}
	rec[offLens] = uint64(s.NAffect) | uint64(s.NWrites)<<8 | uint64(s.NCleanup)<<16
	// The record's stamp: recovery only attributes a record to the announced
	// vector's in-flight leg when it names this process, the admission and
	// the leg's position, so a crash between a boundary and the next leg's
	// first install — the previous leg's slot durable, a register still naming
	// its record — cannot misattribute that record to an identical (kind, arg)
	// successor, and a record whose lines never persisted, over a recycled one
	// that validates, cannot pass as this install's.
	rec[offStamp] = e.proc(p).seq | uint64(p.ID())<<stampProcShift
	rec[offAdm] = adm
	for i := 0; i < s.NAffect; i++ {
		rec[offAffect+2*i], rec[offAffect+2*i+1] = uint64(s.Affect[i].Info), s.Affect[i].Expected
	}
	for i := 0; i < s.NWrites; i++ {
		w := rec[offWrites+3*i:]
		w[0], w[1], w[2] = uint64(s.Writes[i].Addr), s.Writes[i].Old, s.Writes[i].New
	}
	for i := 0; i < s.NCleanup; i++ {
		rec[offCleanup+i] = uint64(s.Cleanup[i])
	}
	rec[offSum] = infoSum(&rec)
	for _, sp := range spans(rec[offLens]) {
		for off := sp[0]; off < sp[1]; off++ {
			p.Store(info+pmem.Addr(off), rec[off])
		}
	}
}

// lens decodes an Info record's offLens word.
func lens(w uint64) (affect, writes, cleanup int) {
	return int(w & 0xff), int(w >> 8 & 0xff), int(w >> 16 & 0xff)
}

// spans returns the ranges [lo, hi) of words a record whose offLens word is
// lw uses: its header, the used entries of each set, and offAdm. The lengths
// must be in bounds.
func spans(lw uint64) [5][2]int {
	na, nw, nc := lens(lw)
	return [5][2]int{{0, offAffect}, {offAffect, offAffect + 2*na}, {offWrites, offWrites + 3*nw},
		{offCleanup, offCleanup + nc}, {offAdm, offAdm + 1}}
}

// infoSum is an Info record's checksum: annCheck chained over every word of
// rec the record uses, in layout order, but the two that change after the
// install, offResult and offDone, and the sum itself.
func infoSum(rec *[InfoWords]uint64) uint64 {
	sum := annCheck(0, rec[offOpType], rec[offArgKey])
	sum = annCheck(sum, rec[offSuccess], rec[offLens])
	sum = annCheck(sum, rec[offStamp], 0)
	sps := spans(rec[offLens])
	for _, sp := range sps[1:] {
		for off := sp[0]; off < sp[1]; off++ {
			sum = annCheck(sum, rec[off], uint64(off))
		}
	}
	return sum
}

// readInfo loads the Info record at info, and reports whether it validates:
// its set lengths in bounds and its sum matching the words it uses. A record
// whose lines did not all persist before a crash fails, and so does whatever
// a recycled address holds; only offResult and offDone may have changed since.
func readInfo(p *pmem.Proc, info pmem.Addr) (rec [InfoWords]uint64, ok bool) {
	rec[offLens] = p.Load(info + offLens)
	if na, nw, nc := lens(rec[offLens]); na > MaxAffect || nw > MaxWrites || nc > MaxCleanup || rec[offLens]>>24 != 0 {
		return rec, false
	}
	for _, sp := range spans(rec[offLens]) {
		for off := sp[0]; off < sp[1]; off++ {
			if off != offLens {
				rec[off] = p.Load(info + pmem.Addr(off))
			}
		}
	}
	return rec, rec[offSum] == infoSum(&rec)
}
