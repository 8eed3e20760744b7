package isb

import (
	"fmt"

	"repro/internal/pmem"
)

// Help tries to complete the operation described by the Info record at
// info. It is the paper's Algorithm 1 Help procedure, including the red
// persistency instructions of the shared cache model, with their placement
// delegated to the engine's persister: every CAS on an info field or
// WriteSet field is reported as a dirty word, and every phase ends with
// EndPhase (the eager placement writes back per CAS; the batched placement
// issues one barrier per phase). A record already flagged done is the one
// exception: only its cleanup re-runs, and only untags that win are written
// back (see below).
//
// Help is idempotent and may be executed concurrently by any number of
// processes. The invoker tags starting from the first AffectSet element;
// helpers start from the second (they discovered the operation through a
// tag the invoker installed, so the first element needs no help). Recovery
// helps its own record as the invoker, and only the invoker flags a record
// done.
func (e *Engine) Help(p *pmem.Proc, info pmem.Addr, invoker bool) {
	per := e.per(p)
	per.Reset()
	tagged := Tagged(info)
	n := int(p.Load(info + offAffectLen))
	start := 0
	if !invoker {
		start = 1
	}

	// A set result proves the tagging and update phases already completed
	// (every result store is persisted before the cleanup phase starts), so
	// skip straight to re-running the idempotent update and cleanup phases.
	// Without this, recovering a crash that landed mid-cleanup would abort
	// in the tagging phase — the completed operation's tags have been
	// recycled to non-tagged info values that can never match the expected
	// ones — and surviving nodes would stay tagged until some later
	// operation happened to help them.
	if p.Load(info+offResult) != RespNone {
		// A done record's update phase is durable (done is stored after its
		// barrier), and its retired-class operands may since have been
		// recycled as unrelated live nodes, so the update CASes' expected
		// values could recur: the update phase never re-runs on it. Its
		// cleanup may still be partly volatile — done rides the cleanup
		// barrier, and eviction can persist it ahead of the untags — so the
		// untag CASes re-run. They expect Tagged(info), which cannot recur
		// while the record can still be consulted, and only a CAS that wins
		// is written back: a lost one changed nothing.
		if p.Load(info+offDone) != 0 {
			if e.untag(p, per, info, tagged, true) {
				e.endPhase(p, per)
			}
			return
		}
		e.finish(p, info, tagged, invoker)
		return
	}

	// Tagging phase.
	for i := start; i < n; i++ {
		nd := pmem.Addr(p.Load(info + offAffect + pmem.Addr(2*i)))
		exp := p.Load(info + offAffect + pmem.Addr(2*i) + 1)
		res := p.CAS(nd, exp, tagged)
		per.WroteWord(nd)
		if res != exp && res != tagged {
			// Backtrack phase: untag earlier elements in reverse order,
			// each to a fresh cookie (see Engine.cookie). Safe even past
			// the invoker's first element: a tag failure at a retired-class
			// element (index ≥ 1) proves the operation can never complete,
			// because expected info values never recur.
			for j := i - 1; j >= 0; j-- {
				ndj := pmem.Addr(p.Load(info + offAffect + pmem.Addr(2*j)))
				p.CAS(ndj, tagged, e.cookie(p))
				per.WroteWord(ndj)
			}
			e.endPhase(p, per)
			return
		}
	}
	e.endPhase(p, per)

	e.finish(p, info, tagged, invoker)
}

// finish runs the update and cleanup phases of Help. Both are idempotent
// and may be re-executed by recovery or by any number of helpers.
func (e *Engine) finish(p *pmem.Proc, info pmem.Addr, tagged uint64, invoker bool) {
	per := e.per(p)

	// Update phase: apply the WriteSet CASes. Each change happens exactly
	// once across all helpers because old values never recur (the ABA
	// assumption the structures discharge by copying replaced nodes).
	wn := int(p.Load(info + offWriteLen))
	for i := 0; i < wn; i++ {
		a := pmem.Addr(p.Load(info + offWrites + pmem.Addr(3*i)))
		old := p.Load(info + offWrites + pmem.Addr(3*i) + 1)
		new := p.Load(info + offWrites + pmem.Addr(3*i) + 2)
		p.CAS(a, old, new)
		per.WroteWord(a)
	}
	p.Store(info+offResult, p.Load(info+offSuccess))
	per.WroteWord(info + offResult)
	e.endPhase(p, per)

	// Cleanup phase. The invoker first flags the record done: the update
	// phase is durable now, and the flag rides this phase's barrier, which
	// returns before the invoker retires any operand or unpins — the
	// precondition for their addresses to ever recur.
	if invoker {
		p.Store(info+offDone, 1)
		per.WroteWord(info + offDone)
	}
	e.untag(p, per, info, tagged, false)
	e.endPhase(p, per)
}

// untag runs the cleanup CASes: each surviving node's tag goes to a fresh
// cookie (never the same non-tagged value twice — see Engine.cookie).
// Retired nodes are absent from the CleanupSet and stay tagged until the
// allocator recycles them. Every CAS is reported to the persister, or with
// wonOnly only those that won; untag reports whether any did.
func (e *Engine) untag(p *pmem.Proc, per persister, info pmem.Addr, tagged uint64, wonOnly bool) (won bool) {
	cn := int(p.Load(info + offCleanupLen))
	for i := 0; i < cn; i++ {
		nd := pmem.Addr(p.Load(info + offCleanup + pmem.Addr(i)))
		ok := p.CAS(nd, tagged, e.cookie(p)) == tagged
		if ok || !wonOnly {
			per.WroteWord(nd)
		}
		won = won || ok
	}
	return won
}

// RunOp executes one recoverable operation via the Algorithm 2 (ROpt)
// driver and returns its encoded response. gather is called once per
// attempt with a fresh Info record.
//
// The sequence is exactly the paper's: announce the operation — a vector of
// one leg — and persist CP_q := 0 (Begin), RD_q := Null + pbarrier, CP_q := 1
// + pwb + psync, then attempts of gather → helping phase → install Info →
// pbarrier over the record and the NewSet → RD_q := info + pwb + psync →
// read-only fast return or Help → return result if set.
//
// Under the Isb placement every one of those psyncs issues where it is
// written. Under Isb-Opt the operation is a sync scope of one: the begin
// psync opens it, every sync point after it defers, and one psync closes it
// before the response is returned — what a batch window of one pays. Isb-Opt
// also drops the RD_q := Null / CP_q := 1 prologue: CP_q := 1 rides the first
// install's RD_q write-back (see runAttempts).
func (e *Engine) RunOp(p *pmem.Proc, opType, argKey uint64, gather Gather) uint64 {
	e.Begin(p, false, []pmem.Leg{{StructID: e.annID, Kind: opType, Arg: argKey}})
	if !e.Batched() {
		return e.runAttempts(p, opType, argKey, gather, 0)
	}
	p.OpenSyncScope()
	r := e.runAttempts(p, opType, argKey, gather, 0)
	p.CloseSyncScope()
	return r
}

// runAttempts runs an engine's first leg after the system-side CP_q := 0 step
// (RunOp, and RunBatchOp while CP_q is 0); recovery's re-invoke path enters
// here too, with its attempt bound.
//
// Under Isb it runs Algorithm 2's prologue as written: RD_q := Null +
// pbarrier, then CP_q := 1 + pwb + sync point. Under Isb-Opt there is no
// prologue: the first install stores RD_q := info and then CP_q := 1, and the
// pwb of RD_q it issues anyway persists both. RD_q and CP_q share one line
// (Engine.base), which persists as a unit — and on x86 same-line stores
// persist in program order — so the only durable pairs are (old, 0),
// (info, 0) and (info, 1): CP_q = 1 names this leg's record, and since no tag
// precedes that pwb, CP_q = 0 still proves the leg made no changes.
func (e *Engine) runAttempts(p *pmem.Proc, opType, argKey uint64, gather Gather, bound int) uint64 {
	if e.Batched() {
		return e.attemptLoop(p, opType, argKey, gather, bound, true)
	}
	rd, cp := e.rd(p), e.cp(p)
	p.Store(rd, uint64(pmem.Null))
	p.PBarrier(rd)
	p.Store(cp, 1)
	p.PWB(cp)
	e.opSync(p)
	return e.attemptLoop(p, opType, argKey, gather, bound, false)
}

// maxRecoveryAttempts bounds the attempts of one RecoverSeq call. Every
// retry of a lock-free attempt is paid for by some other operation's
// progress, and recovery only ever competes with the handful of operations
// in flight at the crash (the storms run ≤ 4 processes × 40 operations), so
// reaching the bound means the structure cannot be resolved — and each
// further attempt would only allocate another Info record on an allocator
// that frees nothing during recovery, until the arena is gone.
const maxRecoveryAttempts = 1 << 10

// attemptLoop is the gather → install → Help attempt cycle. Legs after an
// engine's first enter here directly: CP_q is already 1 and RD_q still names
// the previous leg's record, which recovery tells apart from this leg's by the
// stamped index. raiseCP makes the first install also store CP_q := 1 (the
// Isb-Opt first leg, see runAttempts). bound, when nonzero, is the recovery
// path's attempt limit (see maxRecoveryAttempts).
func (e *Engine) attemptLoop(p *pmem.Proc, opType, argKey uint64, gather Gather, bound int, raiseCP bool) uint64 {
	rd := e.rd(p)
	per := e.per(p)
	spec := &e.specs[p.ID()] // reused per-process scratch, see Engine.specs
	for attempt := 1; ; attempt++ {
		if bound != 0 && attempt > bound {
			// RD_q may name a record this operation installed itself: show it.
			last := ""
			if info := pmem.Addr(p.Load(rd)); info != pmem.Null {
				last = fmt.Sprintf(" (kind %d, key %d, seq %d, result %d, done %d)", p.Load(info+offOpType),
					p.Load(info+offArgKey), p.Load(info+offSeq), p.Load(info+offResult), p.Load(info+offDone))
			}
			panic(fmt.Sprintf("isb: recovery of proc %d's operation (kind %d, key %d, seq %d) did not resolve in %d attempts: RD_q = %d%s, CP_q = %d, last attempt's affect set %v",
				p.ID(), opType, argKey, e.curSeq[p.ID()], bound, p.Load(rd), last, p.Load(e.cp(p)), spec.Affect[:spec.NAffect]))
		}
		// (Re-)pin the process in the current reclamation epoch: every
		// address this attempt gathers stays allocated until the pin moves.
		// No reference survives an attempt, so refreshing per attempt is
		// safe and keeps the epoch advancing. The pin is released on every
		// return below; a crash leaves it stuck, and the reclaimer's
		// post-crash recovery clears stuck pins. (No deferred release: a crashed process's
		// stores are silently dropped, which would corrupt nothing here,
		// but an explicit protocol keeps the crash surface inspectable.)
		e.alloc.Enter(p)

		info := e.allocInfo(p)
		spec.Reset()
		spec.OpType, spec.ArgKey = opType, argKey

		// Gather phase.
		if gather(p, info, spec) == Restart {
			e.discardAttempt(p, info, spec)
			continue
		}

		// Helping phase: if some gathered info field is tagged, complete
		// that operation first, then start a new attempt.
		helped := false
		for i := 0; i < spec.NAffect; i++ {
			if IsTagged(spec.Affect[i].Expected) {
				e.Help(p, InfoOf(spec.Affect[i].Expected), false)
				helped = true
				break
			}
		}
		if helped {
			e.discardAttempt(p, info, spec)
			continue
		}

		// Install the Info record and persist it with the new nodes. The
		// batched persister covers the record and the whole NewSet in one
		// barrier; the eager one issues a pbarrier per range.
		per.Reset()
		e.install(p, info, spec)
		per.WroteRange(info, InfoWords)
		for i := 0; i < spec.NPersist; i++ {
			per.WroteRange(spec.Persist[i].Addr, spec.Persist[i].Words)
		}
		per.Flush()
		p.Store(rd, uint64(info))
		if raiseCP {
			p.Store(e.cp(p), 1) // after RD_q, on its line: see runAttempts
			raiseCP = false
		}
		p.PWB(rd)
		e.opSync(p)
		// RD_q durably points at this attempt's record, so the previous
		// attempt's (if any) can no longer be consulted: retire it.
		e.retireLast(p)
		e.lastInfo[p.ID()] = info

		// ROpt fast path (Algorithm 2 lines 78–79): the response was
		// stored into the record by install and persisted above.
		if spec.ReadOnly {
			e.alloc.Exit(p)
			return spec.Response
		}

		e.Help(p, info, true)
		if r := p.Load(info + offResult); r != RespNone {
			e.retireAffected(p, spec)
			e.alloc.Exit(p)
			return r
		}

		// The attempt failed its tagging phase after install: its fresh
		// nodes were published in the record but can never be linked (the
		// invoker's own tag failure proves the operation cannot complete,
		// and only the never-run update/cleanup phases dereference them).
		// Retire — not Free — them: lagging helpers may still read the
		// record, and the epoch grace outlives every such reader.
		for i := 0; i < spec.NPersist; i++ {
			e.alloc.Retire(p, spec.Persist[i].Addr)
		}
	}
}

// discardAttempt returns an attempt's never-published allocations — the
// Info record and the fresh nodes the gather recorded in its Persist
// ranges — straight to the free list. Before install, no shared location
// mentions any of them, so immediate reuse is safe. (Gathers allocate
// nodes and call AddPersist together, and their Restart paths run before
// any allocation, so the Persist ranges are exactly the fresh nodes.)
func (e *Engine) discardAttempt(p *pmem.Proc, info pmem.Addr, spec *Spec) {
	for i := 0; i < spec.NPersist; i++ {
		e.alloc.Free(p, spec.Persist[i].Addr)
	}
	e.alloc.Free(p, info)
}

// retireAffected retires the retired-class nodes of a completed operation:
// the AffectSet entries absent from the CleanupSet, which the update phase
// just unlinked (they stay tagged; traversals can no longer reach them).
// Only the invoker calls this, exactly once per operation — result ≠ ⊥ on
// the invoker's own current record proves this very attempt took effect.
func (e *Engine) retireAffected(p *pmem.Proc, spec *Spec) {
	if spec.ReadOnly {
		return // nothing was unlinked
	}
	for i := 0; i < spec.NAffect; i++ {
		nd := spec.Affect[i].Info
		inCleanup := false
		for j := 0; j < spec.NCleanup; j++ {
			if spec.Cleanup[j] == nd {
				inCleanup = true
				break
			}
		}
		if !inCleanup {
			e.alloc.Retire(p, nd)
		}
	}
}

// RecoverSeq is the generic Op-Recover, for the leg at index seq of its
// announced vector (0 for single operations): called after a crash with the
// same opType/argKey the interrupted operation was invoked with, plus the same
// gather function, it returns the operation's response. Per the paper, if
// CP_q = 0 or RD_q = Null the operation made no changes and is simply
// re-invoked; otherwise Help(RD_q) completes it (or cleans up a failed
// attempt) and the result field decides. Under Isb-Opt RD_q is never reset to
// Null, so CP_q = 0 alone decides: RD_q may then name the previous
// operation's record, or this one's if the crash hit between its first
// install and the write-back that raises CP_q — before any tag either way.
//
// The installed record is only attributed to this leg if its stamped index
// matches, so a crashed vector whose cursor says "leg seq is in flight" can
// never resolve leg seq from a neighbouring leg's record, even when
// consecutive legs share (kind, arg). Recovery always runs eager: the sync
// scope the crash interrupted, if any, is torn down first, and a re-invoked
// attempt stamps seq so that a further crash re-attributes it correctly. A
// re-invocation is a first leg (runAttempts): under Isb-Opt RD_q keeps naming
// the failed or mismatching record until the first re-invoked install
// replaces it. RecoverSeq may itself crash and be re-invoked any number of
// times, and it terminates or fails loudly: re-invoked attempts are bounded by
// maxRecoveryAttempts, and the panic names the record RD_q still holds.
func (e *Engine) RecoverSeq(p *pmem.Proc, opType, argKey, seq uint64, gather Gather) uint64 {
	p.ResetSyncScope()
	e.curSeq[p.ID()] = seq
	rd, cp := e.rd(p), e.cp(p)
	info := pmem.Addr(p.Load(rd))
	if p.Load(cp) == 0 || info == pmem.Null {
		return e.runAttempts(p, opType, argKey, gather, maxRecoveryAttempts)
	}
	// Defense for the pre-CP_q=0 crash window: the begin sequence persists
	// CP_q := 0 before anything else of the new operation (README, "Recovery
	// workflow"), so a crash ahead of that leaves CP_q and RD_q the previous
	// operation's. If RD_q still describes a different operation, this one
	// made no changes.
	if p.Load(info+offOpType) != opType || p.Load(info+offArgKey) != argKey ||
		p.Load(info+offSeq) != seq {
		return e.runAttempts(p, opType, argKey, gather, maxRecoveryAttempts)
	}
	// Pin before dereferencing the record: post-crash recovery kept it and
	// everything it names alive (the fast reset frees nothing; a scan keeps
	// what announced records name), and the pin keeps that true while Help
	// re-runs. The completed operation's retired-class nodes are NOT
	// retired here — pre-crash they may already have been retired, freed
	// and reused as live nodes; a recovery-path retire could therefore hit
	// a live block. They leak instead, inside the per-crash in-flight
	// budget, until the next scan.
	e.alloc.Enter(p)
	e.Help(p, info, true)
	if r := p.Load(info + offResult); r != RespNone {
		e.alloc.Exit(p)
		return r
	}
	// The last attempt did not take effect: re-invoke.
	return e.runAttempts(p, opType, argKey, gather, maxRecoveryAttempts)
}

// ResolveSeq probes whether the leg (opType, argKey) at index seq took
// effect, WITHOUT re-invoking it: the roll-forward-or-resubmit decision
// point of an atomic vector's recovery. Like
// RecoverSeq it helps an installed matching record to completion (the
// effect may land now, during recovery — that still counts as applied);
// unlike RecoverSeq a missing or mismatching record returns (0, false)
// — the operation provably made no changes and never can (a failed
// tagging attempt's expected info values cannot recur) — instead of
// running attempts. Idempotent and re-invocable across further crashes.
func (e *Engine) ResolveSeq(p *pmem.Proc, opType, argKey, seq uint64) (uint64, bool) {
	p.ResetSyncScope()
	e.curSeq[p.ID()] = seq
	rd, cp := e.rd(p), e.cp(p)
	info := pmem.Addr(p.Load(rd))
	if p.Load(cp) == 0 || info == pmem.Null {
		return 0, false
	}
	if p.Load(info+offOpType) != opType || p.Load(info+offArgKey) != argKey ||
		p.Load(info+offSeq) != seq {
		return 0, false
	}
	// Pin before dereferencing the record (see RecoverSeq: post-crash
	// recovery kept it alive, and completed operands are NOT retired here).
	e.alloc.Enter(p)
	e.Help(p, info, true)
	r := p.Load(info + offResult)
	e.alloc.Exit(p)
	if r == RespNone {
		return 0, false
	}
	return r, true
}

// MarkReachable reports, via mark, every address the engine's recovery
// data can still lead to: for each process with CP_q = 1 and a non-Null
// RD_q, the installed Info record and (conservatively) every word of it
// with the tag bit cleared — AffectSet field addresses, WriteSet
// addresses and values, CleanupSet addresses. The post-crash scan's
// transitive closure follows on from whatever those words name. Part of
// the conservative-scan contract: an announced operation's operands
// survive reclamation even if their retirement was recorded.
func (e *Engine) MarkReachable(p *pmem.Proc, mark func(pmem.Addr)) {
	for q := 0; q < e.h.NumProcs(); q++ {
		line := e.base + pmem.Addr(q*pmem.WordsPerLine)
		if p.Load(line+1) == 0 { // CP_q
			continue
		}
		info := pmem.Addr(p.Load(line)) // RD_q
		if info == pmem.Null {
			continue
		}
		mark(info)
		for w := pmem.Addr(0); w < InfoWords; w++ {
			mark(pmem.Addr(p.Load(info+w) &^ 1))
		}
	}
}

// Boundary closes leg seq-1 of the announced vector, which ran on this
// engine, and opens leg seq: the previous leg's response becomes durable in
// its result slot, then the completed-prefix cursor advances to cover it
// (pmem.Proc.AdvanceCursor) — for an atomic vector, the commit point. Only
// after the cursor advance can the previous leg's tracking record no longer
// be consulted; its retirement happens here, not before. Inside a sync scope
// under the Isb placement the boundary issues the per-leg psync the deferred
// intra-leg sync points merged into; under Isb-Opt it defers too.
func (e *Engine) Boundary(p *pmem.Proc, seq int, prevResp uint64) {
	p.AdvanceCursor(seq, prevResp)
	if p.InSyncScope() {
		if e.Batched() {
			e.batchSyncs[p.ID()]++
		} else {
			p.PSync()
		}
	}
	e.retireLast(p)
}

// RunBatchOp runs the leg at index seq of an announced vector (Begin). An
// engine's first leg raises CP_q exactly like a single operation; later legs
// on the same engine skip that — CP_q is already 1, and the stale RD_q record
// is fenced off by the index stamp, not by an RD_q := Null round-trip — which
// is where the per-op begin cost goes. CP_q itself is the dispatch: Begin
// persisted CP_q := 0, and only an engine's first leg raises it (under Isb in
// runAttempts' prologue, under Isb-Opt at that leg's first install), so CP_q
// = 0 means no mutating leg of this vector has raised it on this engine yet
// (read-only legs never enter the engine). Recovery relies on the same
// invariant: a crash with CP_q = 0 proves the in-flight leg tagged nothing,
// so re-invoking it is safe.
//
// Inside a sync scope (pmem.Proc.OpenSyncScope, which the admitting runtime
// opens around a window under either placement and around a transaction
// under Isb-Opt) the engine's sync points defer — to each Boundary under Isb,
// to the scope's closing psync under Isb-Opt — and write-backs overlap
// clwb-style; both are pure cost/accounting changes — every pwb still
// applies its line write-back synchronously, so the reachable crash states
// are exactly those of the unscoped execution.
func (e *Engine) RunBatchOp(p *pmem.Proc, seq int, opType, argKey uint64, gather Gather) uint64 {
	e.curSeq[p.ID()] = uint64(seq)
	if p.Load(e.cp(p)) == 0 {
		return e.runAttempts(p, opType, argKey, gather, 0)
	}
	return e.attemptLoop(p, opType, argKey, gather, 0, false)
}
