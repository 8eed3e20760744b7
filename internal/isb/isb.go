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
// packages.
//
// Tagging convention: a node's info field holds the word address of an Info
// record with bit 0 as the tag ("lock") bit. Info records are allocated
// fresh for every attempt, so an info field never holds the same tagged
// value twice, which rules out ABA on info fields.
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
const (
	offOpType     = 0
	offArgKey     = 1
	offResult     = 2
	offSuccess    = 3
	offAffectLen  = 4
	offWriteLen   = 5
	offCleanupLen = 6
	offDone       = 7  // set by the invoker as its cleanup phase starts; written back with the untags
	offAffect     = 8  // MaxAffect pairs ⟨infoFieldAddr, expectedValue⟩
	offWrites     = 16 // MaxWrites triples ⟨addr, old, new⟩
	offCleanup    = 25 // MaxCleanup info-field addresses
	offSeq        = 31 // index, in its announced vector, of the leg this record belongs to

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
// process to avoid false sharing. Persistence-instruction placement is
// delegated to a persister per process (see persist.go); everything else —
// helping, tagging, backtracking, the update and cleanup phases, recovery —
// is identical across placements. CP_q holds the admission number
// (pmem.Proc.Admission) RD_q's record was installed under: "CP_q = 1" reads
// CP_q = p.Admission(), and every begin's raise of the number is CP_q := 0.
type Engine struct {
	h    *pmem.Heap
	base pmem.Addr // proc q's line: base + q*WordsPerLine; word0 = RD, word1 = CP (one pwb persists both)
	pers []persister
	// batched is the placement: batchPersister (Isb-Opt) or eagerPersister
	// (Isb). The admission paths branch on it once or twice per operation.
	batched bool
	// specs are per-process attempt-spec scratch records. A Spec passed to
	// a Gather callback by address escapes analysis, so a stack-local one
	// would cost one heap allocation per operation; each process instead
	// reuses its slot (a Proc is single-goroutine, and runAttempts never
	// nests on one process).
	specs []Spec
	// annID, when nonzero, is the runtime-registry structure ID this engine
	// announces under: Begin's one write-back then publishes the process's new
	// announcement record along with its admission number. Engines built
	// outside a Runtime leave annID 0 and begin bare (pmem.Proc.ClearAnnounce).
	annID uint64
	// alloc serves Info records and (through Alloc) structure nodes. The
	// default pmem.Arena reproduces the seed's leak-forever behaviour; a
	// pmem.Reclaimer recycles retired blocks after an epoch grace period.
	// Epoch pins and retirements are threaded through the operation entry
	// points; neither touches the heap, so reclamation adds no write-back.
	alloc pmem.Allocator
	// last tracks, per process, the Info record last installed in that
	// process's RD_q, and the retired-class operands its operation held for
	// its deferred cleanup (see finish): they retire once RD_q durably names
	// another record (the next install's write-back, which follows the
	// barrier that carried the cleanup, or Isb's RD_q := Null) and never
	// earlier, so the record RD_q names is never recycled under it — recovery
	// reads it whatever CP_q says (Settle). Go-side on purpose: after a crash
	// the record either matches the durable RD_q or names one no durable word
	// mentions any more, and retiring it on schedule is right in both cases,
	// as it is for the operands: the next install follows Settle. A full scan
	// keeps them alive until then (MarkReachable).
	last []lastOp
	// settled is the heap epoch (crash count) Settle last finished at.
	settled atomic.Uint64
	// cookieCtr feeds cookie (see there), one counter per process.
	cookieCtr []uint64
	// curSeq is the leg index install stamps into Info records (offSeq): the
	// operation's position in its announced vector, 0 for a single operation.
	// Every path to install sets it first (Begin, runBatchOp, recoverSeq), so
	// a crash needs no reset.
	curSeq []uint64
	// batchSyncs/readFast back Counters (see isb.Stats).
	batchSyncs []uint64
	readFast   []uint64
}

// lastOp is what a process's last install leaves to retire: its Info record
// and the operands held with it.
type lastOp struct {
	info pmem.Addr
	held [MaxAffect]pmem.Addr
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
	e := &Engine{
		h:          h,
		base:       base,
		pers:       make([]persister, h.NumProcs()),
		specs:      make([]Spec, h.NumProcs()),
		alloc:      pmem.Arena{},
		last:       make([]lastOp, h.NumProcs()),
		cookieCtr:  make([]uint64, h.NumProcs()),
		curSeq:     make([]uint64, h.NumProcs()),
		batchSyncs: make([]uint64, h.NumProcs()),
		readFast:   make([]uint64, h.NumProcs()),
		batched:    batched,
	}
	for i := range e.pers {
		if batched {
			e.pers[i] = &batchPersister{p: h.Proc(i)}
		} else {
			e.pers[i] = &eagerPersister{p: h.Proc(i)}
		}
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
// cookies are even, so IsTagged and the invariant checkers are unaffected.
func (e *Engine) cookie(p *pmem.Proc) uint64 {
	id := p.ID()
	e.cookieCtr[id]++
	return (e.cookieCtr[id]*uint64(len(e.cookieCtr)) + uint64(id)) << 1
}

// retireLast retires the calling process's previously installed Info
// record, and the operands held with it. Callers must ensure the record can
// no longer be consulted by recovery: RD_q durably points elsewhere — at a
// newer record, or Null. Until then recovery may read it even with CP_q stale
// (Settle), and since an Isb-Opt operation's cleanup may wait for the next
// install's barrier, no earlier point would do: the operands retire only
// once that barrier has made the cleanup durable, so no recovery re-runs the
// update phase on them (see Help). In-flight helpers may still hold any of
// them; the allocator's epoch grace covers them.
func (e *Engine) retireLast(p *pmem.Proc) {
	last := e.last[p.ID()]
	e.last[p.ID()] = lastOp{} // before any Retire: a crash inside one must not repeat the others
	for _, nd := range last.held[:last.n] {
		e.alloc.Retire(p, nd)
	}
	if last.info != pmem.Null {
		e.alloc.Retire(p, last.info)
	}
}

// Batched reports whether the engine defers write-backs to phase
// boundaries (the Isb-Opt placement).
func (e *Engine) Batched() bool { return e.batched }

// per returns the calling process's persister.
func (e *Engine) per(p *pmem.Proc) persister { return e.pers[p.ID()] }

func (e *Engine) rd(p *pmem.Proc) pmem.Addr {
	return e.base + pmem.Addr(p.ID()*pmem.WordsPerLine)
}
func (e *Engine) cp(p *pmem.Proc) pmem.Addr { return e.rd(p) + 1 }

// opSync is the engine-side psync point: outside a sync scope it issues a
// psync; inside one (pmem.Proc.OpenSyncScope) it is deferred — counted, and
// paid by the scope's closing psync (or, in an Isb batch window, by the op
// boundary's). Deferral never changes crash-visible state: every pwb writes
// its line back synchronously, so a psync's only simulated effects are
// ordering cost and accounting.
func (e *Engine) opSync(p *pmem.Proc) {
	if p.InSyncScope() {
		e.batchSyncs[p.ID()]++
		return
	}
	p.PSync()
}

// endPhase closes a persistence phase: flush the persister's accumulated
// write-backs (a no-op for the eager placement, which wrote back per store)
// and hit the engine's sync point. Inside a sync scope only the write-backs
// happen now.
func (e *Engine) endPhase(p *pmem.Proc, per persister) {
	if p.InSyncScope() {
		per.Flush()
		e.batchSyncs[p.ID()]++
		return
	}
	per.EndPhase()
}

// NoteReadFast counts one operation served by the zero-persist read-only
// fast path (structures call it from their volatile-traversal reads).
func (e *Engine) NoteReadFast(p *pmem.Proc) { e.readFast[p.ID()]++ }

// Counters sums the engine's batching/fast-path counters across processes
// (see isb.Stats for the per-op view).
func (e *Engine) Counters() (batchSyncs, readFast uint64) {
	for i := range e.batchSyncs {
		batchSyncs += e.batchSyncs[i]
		readFast += e.readFast[i]
	}
	return
}

// SetAnnounceID registers the runtime structure ID this engine announces
// operations under (see the annID field). Call once, at structure
// registration, before any operation runs.
func (e *Engine) SetAnnounceID(id uint64) { e.annID = id }

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
// runs first — writes nothing back and issues no psync: the record's lines
// join the process's carry set (pmem.Proc.AnnounceCarried), and the begin
// psync is one more sync point deferred to the scope's close. The
// admission's first barrier writes the record back: its first install's, a
// tag or update barrier of an operation it helps first, or, for a vector
// that leads with a read, the one its first boundary issues before storing
// slot 0 (pmem.Proc.StoreLegResult). That barrier's fence precedes RD_q's
// write-back, every CP_q raise, every tag and every result slot, so no
// tracked effect of the admission can be durable before its record is, and
// a crash ahead of it finds what a crash inside an eager begin finds. A
// single read never writes its record back. Three begins stay eager,
// each for its own reason: the bare begin, which is the paper's system-side
// step itself; the elimination stack's, whose exchange takes effect outside
// any engine barrier; and every Isb begin, the paper's placement as written.
func (e *Engine) Begin(p *pmem.Proc, atomic bool, legs []pmem.Leg, others ...*Engine) {
	e.reset(p)
	for _, o := range others {
		o.reset(p)
	}
	switch {
	case e.annID == 0 || len(legs) == 0:
		p.ClearAnnounce()
	case e.batched && p.InSyncScope():
		p.AnnounceCarried(atomic, legs...)
		e.batchSyncs[p.ID()]++
		return
	default:
		p.Announce(atomic, legs...)
	}
	p.PSync()
}

// reset readies the engine for an admission, writing nothing. The previous
// operation's Info record stays: RD_q still names it, and its cleanup may
// still wait for this admission's first barrier (see retireLast) — or, after
// a crash, for Settle, which the first begin after it runs.
func (e *Engine) reset(p *pmem.Proc) {
	e.Settle(p)
	e.curSeq[p.ID()] = 0
}

// allocInfo allocates a zeroed Info record for one attempt.
func (e *Engine) allocInfo(p *pmem.Proc) pmem.Addr {
	a := e.alloc.Alloc(p, InfoWords)
	// Both allocators hand out zeroed memory within a run, but after a
	// crash a fresh carve may straddle memory whose volatile image was
	// reset to stale persisted bytes. Clear the header words we depend on.
	p.Store(a+offResult, RespNone)
	p.Store(a+offDone, 0)
	return a
}

// install writes spec into the Info record (volatile stores; the caller's
// barrier persists the record).
func (e *Engine) install(p *pmem.Proc, info pmem.Addr, s *Spec) {
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
	p.Store(info+offOpType, s.OpType)
	p.Store(info+offArgKey, s.ArgKey)
	// The record's leg index: recovery only attributes a record to the
	// announced vector's in-flight leg when the stamped index matches the
	// leg's position, so a crash between a boundary and the next leg's first
	// install — the previous leg's slot stamped, RD_q still naming its record
	// — cannot misattribute that record to an identical (kind, arg) successor.
	p.Store(info+offSeq, e.curSeq[p.ID()])
	succ := s.SuccessResponse
	if s.ReadOnly {
		succ = s.Response
		p.Store(info+offResult, s.Response) // ROpt line 74
	} else {
		p.Store(info+offResult, RespNone)
	}
	p.Store(info+offSuccess, succ)
	p.Store(info+offAffectLen, uint64(s.NAffect))
	p.Store(info+offWriteLen, uint64(s.NWrites))
	p.Store(info+offCleanupLen, uint64(s.NCleanup))
	for i := 0; i < s.NAffect; i++ {
		p.Store(info+offAffect+pmem.Addr(2*i), uint64(s.Affect[i].Info))
		p.Store(info+offAffect+pmem.Addr(2*i)+1, s.Affect[i].Expected)
	}
	for i := 0; i < s.NWrites; i++ {
		p.Store(info+offWrites+pmem.Addr(3*i), uint64(s.Writes[i].Addr))
		p.Store(info+offWrites+pmem.Addr(3*i)+1, s.Writes[i].Old)
		p.Store(info+offWrites+pmem.Addr(3*i)+2, s.Writes[i].New)
	}
	for i := 0; i < s.NCleanup; i++ {
		p.Store(info+offCleanup+pmem.Addr(i), uint64(s.Cleanup[i]))
	}
}
