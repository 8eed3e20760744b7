// Package repro is the public API of this reproduction of "Tracking in
// Order to Recover: Detectable Recovery of Lock-Free Data Structures"
// (Attiya, Ben-Baruch, Fatourou, Hendler, Kosmas — SPAA 2020).
//
// It exposes detectably recoverable lock-free data structures built with
// ISB-tracking (a linked list, a FIFO queue, a binary search tree, an
// exchanger, an elimination stack, and a sharded hash map) on top of a
// simulated persistent heap with explicit epoch persistency and
// whole-system crash injection.
//
// # Quick start
//
// Every structure a Runtime builds is registered under a durable structure
// ID and speaks one operation protocol: Apply(p, Op) runs an operation and
// returns a typed Resp; after a crash, a single Runtime.RecoverAll call
// finds every process's in-flight operation (from its persistent
// announcement record), routes it to the right structure through the
// registry, and resolves it — no caller bookkeeping:
//
//	rt := repro.New(repro.Config{Procs: 4, CrashSim: true})
//	l := rt.NewList()
//	p := rt.Proc(0)
//	l.Apply(p, repro.Op{Kind: repro.OpInsert, Arg: 42})
//	found := l.Apply(p, repro.Op{Kind: repro.OpFind, Arg: 42}).Bool() // true
//
//	// Simulate a crash in the middle of an operation. Begin is the
//	// system-side invocation step: it retires the previous operation's
//	// announcement, keeping the report unambiguous (see RecoverAll).
//	l.Begin(p)
//	rt.ScheduleCrash(10) // after ~10 more memory accesses
//	if !rt.Run(func() { l.Apply(p, repro.Op{Kind: repro.OpInsert, Arg: 7}) }) {
//	    rt.Restart() // discard volatile state
//	    for _, rep := range rt.RecoverAll() {
//	        // rep.Legs[0] says which structure proc rep.Proc was
//	        // operating on, which operation it was, and what it returned.
//	        _ = rep.Legs[0].Resp.Bool()
//	    }
//	}
//
// A process whose operation crashed before its announcement persisted is
// absent from the report; that operation provably performed no tracked
// writes and can simply be re-submitted. An application that keeps its own
// per-operation bookkeeping can instead hand the interrupted Op back to the
// structure's RecoverOp. Runtime.ApplyWindow admits several operations on
// one structure under one announcement, and Runtime.ApplyTxn two legs on two
// structures atomically; RecoverAll resolves both shapes the same way.
//
// Every operation persists enough tracking state (the paper's Info
// structures, per-process RD_q/CP_q registers, and the per-process
// announcement record) that recovery can always tell whether the
// interrupted operation took effect and what it returned.
//
// # Node reclamation
//
// By default nodes come from a leak-forever arena: correct, and the
// conformance oracle, but the heap must be sized for the run's cumulative
// allocation. Config{Reclaim: true} swaps in a crash-consistent epoch
// reclaimer, so churn-heavy workloads run in a heap sized for their working
// set. Its persistent state is a slab directory and a dead bitmap per slab,
// whose bits ride the barriers the operations pay anyway; its retired
// rings, epoch, pins and free stacks are volatile and cost no write-back.
// RecoverAll then prefixes recovery with a reset of the reclaimer that
// costs what was in flight, not what is alive: the free pool comes back
// from the bitmaps, what a crash may lose (bits not yet written back) is
// counted, and a conservative reachability scan gives it back only once it
// has caught up with the rest of the heap — a lost retirement degrades to a
// (bounded) leak, never to a dangling pointer. See the package README for
// the full discipline.
package repro

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/bst"
	"repro/internal/exchanger"
	"repro/internal/hashmap"
	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
	"repro/internal/queue"
	"repro/internal/stack"
)

// Proc is a process descriptor: the unit of crash and recovery. Each Proc
// must be used by at most one goroutine at a time.
type Proc = pmem.Proc

// Model selects the persistency model.
type Model = pmem.Model

// Persistency models (paper Section 2).
const (
	SharedCache  = pmem.SharedCache
	PrivateCache = pmem.PrivateCache
)

// EngineKind selects the persistence-instruction placement used by every
// structure a Runtime builds (the paper's Isb vs Isb-Opt curves).
type EngineKind int

const (
	// EngineIsb is the paper's Algorithm 1/2 placement: a pwb after every
	// persistent store or CAS, a psync at the end of every phase. Each
	// tracked write is durable as soon as its pwb retires.
	EngineIsb EngineKind = iota
	// EngineIsbOpt is the hand-tuned batched placement: each operation
	// phase (tag → update → cleanup) accumulates its dirty words and
	// issues one barrier, deduplicating cache lines, before the phase's
	// psync; an update's cleanup phase rides the process's next barrier
	// instead. After a crash a phase is either fully persisted or absent;
	// recovery tolerates both.
	EngineIsbOpt
)

// Op is one operation invocation: a structure-specific kind plus its
// argument. It is the single invocation currency of Apply/RecoverOp and
// the payload of the per-process announcement record.
type Op struct {
	Kind uint64
	Arg  uint64
}

// Operation kinds accepted by Apply and RecoverOp.
const (
	OpInsert = list.OpInsert
	OpDelete = list.OpDelete
	OpFind   = list.OpFind
	OpEnq    = queue.OpEnq
	OpDeq    = queue.OpDeq
	OpPush   = stack.OpPush
	OpPop    = stack.OpPop
	// OpExchange offers Arg on an Exchanger.
	OpExchange uint64 = 30
)

// Resp is the typed response of Apply and RecoverOp, wrapping the engine's
// encoded response word. Exactly one accessor is meaningful per operation
// kind: Bool for set operations, pushes and enqueues; Value/Empty for
// dequeues, pops and exchanges. The encoding keeps payloads disjoint from
// the control responses, so a carried value of 0 can never be confused
// with "empty" (the queue-zero and stack-zero rows of internal/crash's
// conformance matrix pin it at every crash point).
type Resp struct{ raw uint64 }

// Raw exposes the encoded response word (harness/test plumbing).
func (r Resp) Raw() uint64 { return r.raw }

// Bool decodes a true/false response (set membership updates, finds).
func (r Resp) Bool() bool { return r.raw == isb.RespTrue }

// Empty reports the distinguished empty-structure response (dequeue or pop
// on an empty container).
func (r Resp) Empty() bool { return r.raw == isb.RespEmpty }

// Skipped reports the elided-transaction-leg response: leg 2's argument
// derived from leg 1, and leg 1 carried no value (see TxnLeg.ArgFromLeg1).
func (r Resp) Skipped() bool { return r.raw == isb.RespSkipped }

// Value decodes a carried payload (dequeued/popped/exchanged value);
// ok is false when the response carries no payload (e.g. Empty).
func (r Resp) Value() (uint64, bool) {
	if !isb.IsValue(r.raw) {
		return 0, false
	}
	return isb.DecodeValue(r.raw), true
}

// String renders the response for logs and reports.
func (r Resp) String() string {
	switch {
	case r.raw == isb.RespTrue:
		return "true"
	case r.raw == isb.RespFalse:
		return "false"
	case r.raw == isb.RespEmpty:
		return "empty"
	case r.raw == isb.RespSkipped:
		return "skipped"
	case isb.IsValue(r.raw):
		return fmt.Sprintf("value(%d)", isb.DecodeValue(r.raw))
	default:
		return fmt.Sprintf("resp(%d)", r.raw)
	}
}

// respOf wraps an encoded response word.
func respOf(raw uint64) Resp { return Resp{raw: raw} }

// StructKind identifies a structure's type in the persisted registry.
type StructKind uint64

const (
	KindList StructKind = iota + 1
	KindQueue
	KindBST
	KindStack
	KindHashMap
	KindExchanger
)

func (k StructKind) String() string {
	switch k {
	case KindList:
		return "list"
	case KindQueue:
		return "queue"
	case KindBST:
		return "bst"
	case KindStack:
		return "stack"
	case KindHashMap:
		return "hashmap"
	case KindExchanger:
		return "exchanger"
	default:
		return fmt.Sprintf("StructKind(%d)", uint64(k))
	}
}

// Structure is the uniform operation/recovery surface every Runtime
// structure implements. Begin is the system-side invocation step of the
// paper's model (CP_q := 0): one write-back clears the announcement record
// and raises the process's admission number, which every CP register is read
// against, and one psync orders it, under either engine. A crash inside Begin
// leaves no recovery obligation — the system simply retries it. Apply runs one operation to completion, durably announcing
// (ID, Op) before the operation can take effect; RecoverOp is the
// operation's recovery function, idempotent and re-invocable across
// further crashes. A single operation is leg 0 of a vector of one: for the
// engine-backed structures RecoverOp is the same leg recovery
// (isb.Ops.RecoverLeg) that Runtime.RecoverAll drives through the registry
// for every leg, so applications never call it directly unless they keep
// their own per-operation bookkeeping.
type Structure interface {
	// ID is the structure's durable registry ID (1-based, per Runtime).
	ID() uint64
	// Kind reports the structure's registered type.
	Kind() StructKind
	// Begin is the system-side invocation step used by crash harnesses.
	Begin(p *Proc)
	// Apply runs op to completion and returns its response.
	Apply(p *Proc, op Op) Resp
	// RecoverOp resolves an interrupted op after a crash.
	RecoverOp(p *Proc, op Op) Resp
}

// Config parameterises a Runtime.
type Config struct {
	// Procs is the number of process descriptors (default 1).
	Procs int
	// Model selects SharedCache (default) or PrivateCache persistency.
	Model Model
	// HeapWords sizes the simulated NVRAM arena in 64-bit words
	// (default 1<<22 ≈ 32 MiB volatile image).
	HeapWords int
	// CrashSim enables the persisted image and crash injection.
	CrashSim bool
	// PWBLatency/PSyncLatency simulate persistence-instruction costs.
	PWBLatency, PSyncLatency time.Duration
	// Seed drives simulated cache-eviction randomness.
	Seed uint64
	// EvictEvery, with CrashSim, randomly persists ~1/EvictEvery stores.
	EvictEvery uint64
	// Engine selects the persistence placement (default EngineIsb) for
	// every structure this runtime builds.
	Engine EngineKind
	// Reclaim enables crash-consistent node reclamation: every structure
	// this runtime builds draws nodes from a shared epoch-based reclaimer
	// (whose persistent state is its slab directory and dead bitmaps)
	// instead of the leak-forever arena, and RecoverAll prefixes recovery
	// with the reclaimer's own (see RecoverAll). See ReclaimStats/LastScan
	// for observability.
	Reclaim bool
}

// regCapacity bounds the number of structures one Runtime can register.
const regCapacity = 256

// Runtime owns a simulated persistent heap, its process descriptors, and
// the persistent structure registry that RecoverAll routes through.
type Runtime struct {
	h         *pmem.Heap
	engine    EngineKind
	structs   []Structure // index id-1
	regBase   pmem.Addr   // persisted registry: word0 = count, word id = kind
	reclaimer *pmem.Reclaimer
	engines   []*isb.Engine // every engine newEngine built (scan/recovery plumbing)
	recs      *isb.Records  // the processes' Isb-Opt deferral states, which every engine shares
	// lastScan is the latest RecoverAll's reclaimer report, nil before the
	// first; atomic so that LastScan may run while a recovery does.
	lastScan atomic.Pointer[pmem.ScanReport]
}

// New builds a runtime.
func New(cfg Config) *Runtime {
	words := cfg.HeapWords
	if words == 0 {
		words = 1 << 22
	}
	r := &Runtime{h: pmem.NewHeap(pmem.Config{
		Words: words, Procs: cfg.Procs, Model: cfg.Model,
		Tracked: cfg.CrashSim, Seed: cfg.Seed, EvictEvery: cfg.EvictEvery,
		PWBLatency: cfg.PWBLatency, PSyncLatency: cfg.PSyncLatency,
	}), engine: cfg.Engine}
	r.regBase = r.h.Proc(0).Alloc(1 + regCapacity)
	r.recs = isb.NewRecords(r.h)
	if cfg.Reclaim {
		r.reclaimer = pmem.NewReclaimer(r.h)
	}
	return r
}

// register assigns the next durable structure ID, persists the registry
// entry, and remembers the structure for RecoverAll routing.
func (r *Runtime) register(s Structure, kind StructKind) uint64 {
	if len(r.structs) >= regCapacity {
		panic("repro: structure registry full")
	}
	r.structs = append(r.structs, s)
	id := uint64(len(r.structs))
	p := r.h.Proc(0)
	p.Store(r.regBase+pmem.Addr(id), uint64(kind))
	p.Store(r.regBase, uint64(len(r.structs)))
	p.PBarrier(r.regBase, r.regBase+pmem.Addr(id))
	p.PSync()
	return id
}

// Structure returns the registered structure with the given durable ID, or
// nil if no such ID was assigned.
func (r *Runtime) Structure(id uint64) Structure {
	if id == 0 || id > uint64(len(r.structs)) {
		return nil
	}
	return r.structs[id-1]
}

// Structures lists the registered structures in creation (ID) order.
func (r *Runtime) Structures() []Structure {
	out := make([]Structure, len(r.structs))
	copy(out, r.structs)
	return out
}

// Heap exposes the underlying simulated heap (internal test plumbing).
func (r *Runtime) Heap() *pmem.Heap { return r.h }

// newEngine builds one ISB engine of the configured kind. With Config.
// Reclaim the engine's allocator is swapped for the shared reclaimer
// before any structure constructor runs (constructors allocate their
// sentinels through the engine, and those blocks must be reclaimer-owned
// so BlockOf can classify them during the post-crash scan).
func (r *Runtime) newEngine() *isb.Engine {
	var e *isb.Engine
	if r.engine == EngineIsbOpt {
		e = isb.NewEngineOpt(r.h)
	} else {
		e = isb.NewEngine(r.h)
	}
	if r.reclaimer != nil {
		e.SetAllocator(r.reclaimer)
	}
	r.engines = append(r.engines, e)
	return e
}

// Reclaimer exposes the shared epoch reclaimer, or nil when Config.Reclaim
// is off (test and bench plumbing).
func (r *Runtime) Reclaimer() *pmem.Reclaimer { return r.reclaimer }

// ReclaimStats reports the reclaimer's cumulative counters; ok is false
// when reclamation is disabled.
func (r *Runtime) ReclaimStats() (pmem.ReclaimStats, bool) {
	if r.reclaimer == nil {
		return pmem.ReclaimStats{}, false
	}
	return r.reclaimer.Stats(), true
}

// LastScan reports what the most recent RecoverAll did to the reclaimer —
// the fast reset (Full false, Marked and Swept 0) or the conservative scan;
// ok is false if none has run (reclamation disabled, or no recovery yet).
// It is safe to call while RecoverAll runs.
func (r *Runtime) LastScan() (pmem.ScanReport, bool) {
	if scan := r.lastScan.Load(); scan != nil {
		return *scan, true
	}
	return pmem.ScanReport{}, false
}

// Proc returns process descriptor id (0-based).
func (r *Runtime) Proc(id int) *Proc { return r.h.Proc(id) }

// NumProcs reports the configured process count.
func (r *Runtime) NumProcs() int { return r.h.NumProcs() }

// ScheduleCrash arms a system-wide crash that fires after roughly n more
// shared-memory accesses (CrashSim only). The process whose access crosses
// the threshold panics with a crash value that Run converts to false.
func (r *Runtime) ScheduleCrash(n uint64) {
	r.h.ScheduleCrashAt(r.h.AccessCount() + n)
}

// CancelCrash disarms a scheduled crash that has not fired.
func (r *Runtime) CancelCrash() { r.h.DisarmCrash() }

// Crashing reports whether a crash is in progress.
func (r *Runtime) Crashing() bool { return r.h.Crashing() }

// Run executes f, returning false if a simulated crash interrupted it.
// After a crash, call Restart (once all Procs have unwound) and then
// RecoverAll (or the interrupted structure's RecoverOp).
func (r *Runtime) Run(f func()) bool { return pmem.RunOp(f) }

// Restart discards all volatile state, as a machine restart after a power
// failure would: unflushed writes are lost, persisted state remains. All
// Procs must have unwound (their Run calls returned) before Restart.
func (r *Runtime) Restart() { r.h.ResetAfterCrash() }

// ProcReport is one entry of RecoverAll's report: the vector of legs
// process Proc had announced — one leg for a single operation, the window's
// for ApplyWindow, two atomic ones for ApplyTxn — and what recovery resolved
// each to. The statuses always read, in leg order: a completed prefix
// (responses read back from durable result slots), the one leg that was at
// the cursor (resolved through per-operation recovery), and a no-effect
// suffix the caller re-submits. An Atomic vector is all-or-nothing: either
// every leg is no-effect — neither structure changed — or none is.
type ProcReport struct {
	Proc   int
	Atomic bool
	Legs   []LegReport
}

// RecoverAll is the registry-routed recovery sweep. Call it after Restart:
// for every process it reads the persistent announcement record; if one is
// set, the announced legs are routed to their structures and resolved, and
// the outcome is reported. Zero caller bookkeeping is needed — the
// announcement carries each leg's structure ID, operation kind and argument.
//
// One rule resolves every admission shape, by the record's cursor — the first
// result slot neither in the prefix the record binds nor stamped for it: legs
// below it answer from their slots (a stamped slot holds its durable
// response); the leg AT it
// is resolved through per-operation recovery — read-only kinds by
// re-execution, mutating kinds through the engine's index-guarded recovery,
// which tells this position's tracking record apart from an earlier same-kind
// leg's; and everything above it provably performed no tracked writes
// (OpNoEffect). An atomic vector adds one step while its cursor is still 0,
// i.e. uncommitted: the second leg provably took no effect (slot 0 is durable
// strictly before the second leg's install barrier), and the first must not
// be re-invoked, only probed. If it did not apply, every leg is no-effect; if
// it did, recovery rolls FORWARD — stamps slot 0, which commits, and resolves
// the second leg like any in-flight leg, re-deriving its argument from the
// first's durable response — because the transaction may never half-exist
// once recovery completes.
//
// Semantics worth knowing:
//   - A process absent from the report either was idle or crashed before
//     its announcement persisted; in the latter case the operation provably
//     performed no tracked writes and can simply be re-submitted.
//   - An announcement may describe an operation that had already completed
//     (the crash landed between its completion and the write-back of the
//     next admission's record: inside an eager begin, or under EngineIsbOpt
//     anywhere before the next admission's first barrier, or after an
//     admission that only read). Recovery of a completed operation is
//     idempotent: it changes nothing and re-reports the operation's
//     original response.
//   - For exactly-once consumption of the report, tell a repeated identical
//     operation apart from its predecessor: carry an identity in the
//     announced Op.Arg (HashMap.SetArgMask through ApplyWindow or ApplyTxn,
//     see MatchReport), or call the structure's Begin(p) before each Apply,
//     as the crash harnesses and examples do: the bare begin is eager under
//     either engine and durably retires the previous operation's
//     announcement, so any report entry for p is the current operation's.
//     Without either, a report entry can be the previous operation's
//     idempotent re-confirmation, which is indistinguishable from the
//     in-flight one when two consecutive operations are identical — an
//     application that acts on the reported response twice would
//     double-apply it.
//   - RecoverAll may itself be interrupted by a further crash and re-run;
//     announcements are only cleared by each process's next Begin (or the
//     next operation's entry step).
//
// With Config.Reclaim, RecoverAll first recovers the reclaimer
// (pmem.Reclaimer.Recover), at a cost that follows what was in flight, not
// what is alive: structures repair their volatile hint words (the queue's
// Tail, O(1)), then the reclaimer's volatile state is reset — the retired
// rings and free stacks emptied, stuck pins released, the epoch
// restarted — with no heap access, no write-back and no psync. The
// free pool is not lost with them: it is the reclaimer's per-slab dead
// bitmaps, which a block's retirement sets and its allocation clears, each
// written back by the next barrier, and which allocations read lazily, a
// slab at a time. Before anything allocates, the blocks every engine
// register names are kept out of that pool (keepRegistered, with the dead
// blocks they name): an install's barrier writes back its register and its
// record's cleared bit together, and a crash inside it may persist one and
// not the other. Then the tracking record each engine keeps for a process's
// next attempt, which no register names, goes back to the pool
// (isb.Engine.Release, pmem.Reclaimer.Return). What a crash can lose — dead
// bits not yet written back, and the blocks kept — is counted, in words, as
// garbage; on top of it a crash leaks, unaccounted, at most one attempt's
// fresh or unlinked nodes plus its tracking record per process (a record
// leaks only when the crash cuts its install short). Only when the accounted
// garbage has caught up with the rest of the carved heap (garbage × 2 ≥
// words carved) does the same call run the conservative scan instead: every
// block reachable from a structure root or referenced by an announced
// operation's tracking record survives (transitively), and every other block
// the reclaimer handed out is marked free in its bitmap. The scan is
// conservative in one direction only: a node may survive that would
// eventually have been freed, but a reachable node is never freed. Neither
// path reads the reclaimer's pre-crash bookkeeping; what they rely on
// besides the heap is the reclaimer's slab index, a Go-side cache of its
// persisted slab directory that survives a simulated crash exactly as the
// heap's bump pointer does. The reclaimer is frozen during the per-process
// recovery sweep so that an early process's re-invoked operation cannot free
// a block a later process's tracking record still names. LastScan reports
// which path ran.
func (r *Runtime) RecoverAll() []ProcReport {
	if r.reclaimer != nil {
		p0 := r.h.Proc(0)
		// Hint repair is its own step, run at every crash before the
		// reclaimer's recovery, because most recoveries never mark. Only the
		// Queue keeps a volatile-only word (Tail) a crash can leave
		// pointing into recycled memory; List, HashMap, BST and Stack
		// have none.
		for _, s := range r.structs {
			if q, ok := s.(*Queue); ok {
				q.q.RepairTail(p0)
			}
		}
		scan := r.reclaimer.Recover(p0, func(func(pmem.Addr)) { r.markAll(p0) })
		r.keepRegistered(p0)
		for _, e := range r.engines {
			e.Release(func(a pmem.Addr) { r.reclaimer.Return(p0, a) })
		}
		r.lastScan.Store(&scan)
		r.reclaimer.Freeze()
		defer r.reclaimer.Thaw()
	}
	var out []ProcReport
	for id := 0; id < r.h.NumProcs(); id++ {
		p := r.h.Proc(id)
		// A crash can land inside any admission's sync scope, and an
		// individual failure does not pass through Heap.finishReset: the
		// recovery sweep and the operations after it run eager.
		p.ResetSyncScope()
		rec, ok := isb.ReadRecord(p)
		if !ok {
			continue
		}
		rep := ProcReport{Proc: id, Atomic: rec.Atomic, Legs: make([]LegReport, len(rec.Legs))}
		for i, l := range rec.Legs {
			rep.Legs[i] = LegReport{StructID: l.StructID, Op: Op{Kind: l.Kind, Arg: l.Arg}, Status: OpNoEffect}
		}
		if rec.Atomic && rec.Cursor == 0 {
			leg0 := r.route(id, rep.Legs[0].StructID).(admitter).adapt()
			raw, applied := leg0.resolveLeg(p, 0, rep.Legs[0].Op)
			if !applied {
				out = append(out, rep)
				continue
			}
			isb.CloseLeg(p, 0, raw)
			rec.Cursor, rec.Results = 1, []uint64{raw}
		}
		var prev uint64
		for i := 0; i <= rec.Cursor; i++ {
			ent := &rep.Legs[i]
			if i < rec.Cursor {
				ent.Status, prev = OpCompleted, rec.Results[i]
			} else if arg, skip := deriveLeg2Arg(ent.Op.Arg, rec.Legs[i].Flags, prev); skip {
				ent.Status, prev = OpInFlight, isb.RespSkipped
			} else {
				ent.Status, prev = OpInFlight, r.route(id, ent.StructID).recoverLeg(p, i, Op{Kind: ent.Op.Kind, Arg: arg})
			}
			ent.Resp = respOf(prev)
		}
		out = append(out, rep)
	}
	// Under Isb-Opt a completed operation's cleanup may have waited for a
	// barrier the crash beat, on any engine, named by an announcement or
	// not: every engine finishes it now, once per crash.
	for _, e := range r.engines {
		e.Settle(r.h.Proc(0))
	}
	return out
}

// legRecoverer is what RecoverAll requires of an announced leg's structure;
// every registered structure provides it.
type legRecoverer interface {
	recoverLeg(p *Proc, seq int, op Op) uint64
}

// route resolves the structure ID an announcement of process id names.
func (r *Runtime) route(id int, sid uint64) legRecoverer {
	s := r.Structure(sid)
	if s == nil {
		panic(fmt.Sprintf("repro: announcement for unregistered structure %d (proc %d)", sid, id))
	}
	return s.(legRecoverer)
}

// reachMarker is the per-structure hook the conservative scan seeds from.
type reachMarker interface {
	MarkReachable(p *Proc, mark func(pmem.Addr))
}

// markAll marks, for the reclaimer's scan, the transitive closure of every
// block that must survive the crash. Seeds: each structure's root walk
// (sentinels and linked nodes) and each engine's announced tracking
// records. Closure: every word of a newly marked block is treated as a
// possible pointer (with the ISB tag bit stripped) — if it lands in a
// reclaimer block, that block survives too. This keeps record-referenced
// fresh copies (an enqueue's new node, a push's top copy) live even though
// no root reaches them yet, at the cost of over-retaining blocks whose
// payload words merely look like addresses — safe, merely conservative.
// The scan's own mark bit is the visited set (pmem.Reclaimer.MarkBlock).
func (r *Runtime) markAll(p *Proc) {
	type block struct {
		start pmem.Addr
		words uint64
	}
	var work []block
	seed := func(a pmem.Addr) {
		if start, words, fresh := r.reclaimer.MarkBlock(a); fresh {
			work = append(work, block{start, words})
		}
	}
	for _, s := range r.structs {
		if m, ok := s.(reachMarker); ok {
			m.MarkReachable(p, seed)
		}
	}
	for _, e := range r.engines {
		e.MarkReachable(p, seed)
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for i := uint64(0); i < b.words; i++ {
			seed(pmem.Addr(p.Load(b.start+pmem.Addr(i)) &^ 1))
		}
	}
}

// keepRegistered keeps out of the reclaimer's pool every block a register
// of any engine names whose dead bit is set, and, transitively, every dead
// block a kept block's words name (pmem.Reclaimer.Keep). A register names a
// record with its bit durably set only when a crash cut its install barrier
// short, so this reads two registers per process and engine and one bitmap
// word per record, and follows a record's words only when it kept it.
func (r *Runtime) keepRegistered(p *Proc) {
	var work []pmem.Addr
	keep := func(a pmem.Addr) {
		if start, words, kept := r.reclaimer.Keep(p, a); kept {
			for i := uint64(0); i < words; i++ {
				work = append(work, start+pmem.Addr(i))
			}
		}
	}
	for _, e := range r.engines {
		e.Registered(p, keep)
	}
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		keep(pmem.Addr(p.Load(a) &^ 1))
	}
}

// AuditReclaim checks the reclaimer's books against reachability without
// changing anything (test plumbing; call at quiescence with Config.Reclaim
// on). MarkedHeld comes from what recovery and the structures can still
// reach for certain — the structures' own root walks and the records the
// engines' registers name — where the closure's conservative guesses would
// raise false alarms; the census from the full closure markAll computes.
func (r *Runtime) AuditReclaim() pmem.AuditReport {
	p0 := r.h.Proc(0)
	roots := r.reclaimer.Audit(func(mark func(pmem.Addr)) {
		for _, s := range r.structs {
			if m, ok := s.(reachMarker); ok {
				m.MarkReachable(p0, mark)
			}
		}
		for _, e := range r.engines {
			e.Registered(p0, mark)
		}
	})
	rep := r.reclaimer.Audit(func(func(pmem.Addr)) { r.markAll(p0) })
	rep.MarkedHeld, rep.Twice = roots.MarkedHeld, roots.Twice
	return rep
}

// List is a detectably recoverable sorted set of uint64 keys (paper
// Section 4; ISB-tracking over a Harris-style list). ID, Kind, Apply,
// RecoverOp, Begin, MarkReachable, CheckInvariants and OpKinds come from the
// embedded adapter, as for every engine-backed structure below.
type List struct {
	adapter
	l *list.List
}

// NewList builds a recoverable list with the runtime's configured engine
// (Config.Engine; EngineIsb by default) and registers it for RecoverAll.
func (r *Runtime) NewList() *List {
	e := r.newEngine()
	l := &List{l: list.NewWithEngine(r.h, e)}
	r.adopt(l, &l.adapter, l.l, e, KindList)
	return l
}

// Keys snapshots the current key set (requires quiescence).
func (l *List) Keys() []uint64 { return l.l.Keys() }

// Queue is a detectably recoverable FIFO queue (ISB over MS-queue).
type Queue struct {
	adapter
	q *queue.Queue
}

// NewQueue builds a recoverable queue with the runtime's configured engine.
func (r *Runtime) NewQueue() *Queue {
	e := r.newEngine()
	q := &Queue{q: queue.NewWithEngine(r.h, e)}
	r.adopt(q, &q.adapter, q.q, e, KindQueue)
	return q
}

// Values snapshots the queue front-to-back (requires quiescence).
func (q *Queue) Values() []uint64 { return q.q.Values() }

// BST is a detectably recoverable leaf-oriented binary search tree
// (Section 6; ISB over the Ellen et al. non-blocking BST).
type BST struct {
	adapter
	b *bst.BST
}

// NewBST builds a recoverable BST with the runtime's configured engine.
func (r *Runtime) NewBST() *BST {
	e := r.newEngine()
	b := &BST{b: bst.NewWithEngine(r.h, e)}
	r.adopt(b, &b.adapter, b.b, e, KindBST)
	return b
}

// Keys returns the keys in order (requires quiescence).
func (b *BST) Keys() []uint64 { return b.b.Keys() }

// DefaultExchangeSpins is the partner-wait window Apply uses for
// OpExchange. The typed Exchange method takes an explicit window.
const DefaultExchangeSpins = 64

// Exchanger is a detectably recoverable two-party exchange channel.
type Exchanger struct {
	e  *exchanger.Exchanger
	id uint64
}

// NewExchanger builds a recoverable exchanger and registers it for
// RecoverAll.
func (r *Runtime) NewExchanger() *Exchanger {
	e := &Exchanger{e: exchanger.New(r.h)}
	e.id = r.register(e, KindExchanger)
	return e
}

// ID is the exchanger's durable registry ID.
func (e *Exchanger) ID() uint64 { return e.id }

// Kind reports KindExchanger.
func (e *Exchanger) Kind() StructKind { return KindExchanger }

// OpKinds reports the operation kinds the exchanger accepts.
func (e *Exchanger) OpKinds() []OpKind { return slices.Clone(opKinds[KindExchanger]) }

// exchResp encodes an exchange outcome: the partner's value on success,
// false if the exchange aborted (timeout / provably no effect).
func exchResp(v uint64, ok bool) Resp {
	if !ok {
		return respOf(isb.RespFalse)
	}
	return respOf(isb.EncodeValue(v))
}

// Apply offers op.Arg for exchange (kind OpExchange, the only kind it
// accepts), waiting up to DefaultExchangeSpins iterations for a partner.
func (e *Exchanger) Apply(p *Proc, op Op) Resp {
	acceptKind(1<<OpExchange, e.id, KindExchanger, op.Kind)
	return exchResp(e.exchange(p, op, DefaultExchangeSpins))
}

// exchange runs one announced exchange. The exchanger keeps its own recovery
// registers rather than an ISB engine, so it begins the admission itself with
// the eager begin (isb.Announce): the announcement's write-back raises the
// admission number, which CP_ex is read against (so a previous exchange's
// recovery data cannot be read as this operation's), then the begin psync.
// The exchange runs under that admission (Offer): a begin of its own would
// invalidate the announcement.
func (e *Exchanger) exchange(p *Proc, op Op, spins int) (uint64, bool) {
	isb.Announce(p, false, isb.Leg{StructID: e.id, Kind: op.Kind, Arg: op.Arg})
	return e.e.Offer(p, op.Arg, exchanger.Symmetric, spins)
}

// RecoverOp resolves an interrupted exchange of op.Arg: the partner's value
// if the collision took effect, false if the operation provably had no
// effect (it is not re-offered; re-submit to retry).
func (e *Exchanger) RecoverOp(p *Proc, op Op) Resp {
	return exchResp(e.e.Recover(p, op.Arg, exchanger.Symmetric, 1, false))
}

func (e *Exchanger) recoverLeg(p *Proc, _ int, op Op) uint64 { return e.RecoverOp(p, op).raw }

// Begin is the system-side invocation step: a bare begin, which durably
// clears the announcement record and raises the admission number.
func (e *Exchanger) Begin(p *Proc) { e.e.Begin(p) }

// Exchange offers v and waits up to spins iterations for a partner; on
// success it returns the partner's value.
func (e *Exchanger) Exchange(p *Proc, v uint64, spins int) (uint64, bool) {
	return e.exchange(p, Op{Kind: OpExchange, Arg: v}, spins)
}

// Stack is a detectably recoverable elimination stack (ISB central stack
// plus exchanger-based elimination). With elimination on, a single
// operation's announcement is durable before its elimination attempt, so
// even an eliminated operation's effect is routable by RecoverAll.
type Stack struct {
	adapter
	s *stack.Stack
}

// NewStack builds a recoverable stack with the runtime's configured engine
// (covering the central stack; the exchanger keeps its own recovery data).
// elimSpins sets the elimination window (0 disables elimination).
func (r *Runtime) NewStack(elimSpins int) *Stack {
	e := r.newEngine()
	s := &Stack{s: stack.NewWithEngine(r.h, e, elimSpins)}
	r.adopt(s, &s.adapter, s.s, e, KindStack)
	return s
}

// Values snapshots the stack top-to-bottom (requires quiescence).
func (s *Stack) Values() []uint64 { return s.s.Values() }

// HashMap is a detectably recoverable sharded lock-free hash set of uint64
// keys: ISB-tracked Harris lists, one per bucket, sharing a single set of
// per-process recovery registers. The shard count is fixed, so the key's hash
// is the route and recovery persists nothing beyond the engine's records.
// Unlike the single-point structures above, its throughput scales with cores.
type HashMap struct {
	adapter
	m *hashmap.Map
}

// NewHashMap builds a recoverable hash map with the given shard count
// (rounded up to a power of two, minimum 1) on the runtime's configured
// engine. With EngineIsbOpt each operation phase on a shard's bucket list
// issues one batched barrier.
func (r *Runtime) NewHashMap(shards int) *HashMap {
	e := r.newEngine()
	m := &HashMap{m: hashmap.NewWithEngine(r.h, e, shards)}
	r.adopt(m, &m.adapter, m.m, e, KindHashMap)
	return m
}

// SetArgMask makes the map treat only arg & mask as the key on the
// Op-based surfaces (Apply, RecoverOp and the window/transaction paths);
// mask = 0 restores the default (the full Arg is the key). The masking is
// applied identically on the apply and recover paths, so a recovered
// operation resolves against the same key its original invocation used
// while a window's or transaction's announcement — and hence the RecoverAll
// report — still carries the full Arg. Serving layers use the surplus high
// bits as a client request ID that rides the durable announcement across
// crashes (see internal/serve). Set it before operations run; Insert, the
// prefill path, always takes a bare key and is unaffected.
func (m *HashMap) SetArgMask(mask uint64) { m.argMask = mask }

// Insert adds key (1 ≤ key ≤ MaxUint64-1); false if present.
func (m *HashMap) Insert(p *Proc, key uint64) bool { return m.m.Insert(p, key) }

// NumShards reports the map's (power-of-two) shard count.
func (m *HashMap) NumShards() int { return m.m.NumShards() }

// Keys snapshots the current key set in ascending order (requires
// quiescence).
func (m *HashMap) Keys() []uint64 { return m.m.Keys() }
