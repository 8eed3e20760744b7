package isb

import "repro/internal/pmem"

// Help tries to complete the operation described by the Info record at
// info. It is the paper's Algorithm 1 Help procedure, including the red
// persistency instructions of the shared cache model, with their placement
// delegated to the engine's Persister: every CAS on an info field or
// WriteSet field is reported as a dirty word, and every phase ends with
// EndPhase (the eager placement writes back per CAS; the batched placement
// issues one barrier per phase).
//
// Help is idempotent and may be executed concurrently by any number of
// processes. The invoker tags starting from the first AffectSet element;
// helpers start from the second (they discovered the operation through a
// tag the invoker installed, so the first element needs no help).
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
		// A durably done record is fully finished AND its retired-class
		// operands may since have been recycled as unrelated live nodes,
		// so its update CASes' expected values could recur — re-running
		// finish here (post-crash recovery is the only path that can still
		// reach such a record) would risk firing a stale CAS into live
		// data. The done flag is written back before any operand is
		// retired, so done = 0 guarantees the operands never left the
		// structure's history and the re-run is the usual idempotent redo.
		if p.Load(info+offDone) != 0 {
			return
		}
		e.finish(p, info, tagged)
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

	e.finish(p, info, tagged)
}

// finish runs the update and cleanup phases of Help. Both are idempotent
// and may be re-executed by recovery or by any number of helpers.
func (e *Engine) finish(p *pmem.Proc, info pmem.Addr, tagged uint64) {
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

	// Cleanup phase: untag the surviving nodes, each to a fresh cookie
	// (never the same non-tagged value twice — see Engine.cookie). Retired
	// nodes are absent from the CleanupSet and stay tagged until the
	// allocator recycles them.
	cn := int(p.Load(info + offCleanupLen))
	for i := 0; i < cn; i++ {
		nd := pmem.Addr(p.Load(info + offCleanup + pmem.Addr(i)))
		p.CAS(nd, tagged, e.cookie(p))
		per.WroteWord(nd)
	}
	e.endPhase(p, per)
}

// RunOp executes one recoverable operation via the Algorithm 2 (ROpt)
// driver and returns its encoded response. gather is called once per
// attempt with a fresh Info record.
//
// The sequence is exactly the paper's: announce the operation and persist
// CP_q := 0 (BeginOpFor), RD_q := Null + pbarrier, CP_q := 1 + pwb +
// psync, then attempts of gather → helping phase → install Info → pbarrier
// over the record and the NewSet → RD_q := info + pwb + psync → read-only
// fast return or Help → return result if set.
//
// Under the Isb placement every one of those psyncs issues where it is
// written. Under Isb-Opt the operation is a sync scope of one: the begin
// psync opens it, every sync point after it defers, and one psync closes it
// before the response is returned — what a batch window of one pays.
func (e *Engine) RunOp(p *pmem.Proc, opType, argKey uint64, gather Gather) uint64 {
	e.BeginOpFor(p, opType, argKey)
	if !e.Batched() {
		return e.runAttempts(p, opType, argKey, gather)
	}
	p.OpenSyncScope()
	r := e.runAttempts(p, opType, argKey, gather)
	p.CloseSyncScope()
	return r
}

// runAttempts is RunOp after the system-side CP_q := 0 step; Recover's
// re-invoke path enters here directly (CP_q is already meaningful).
func (e *Engine) runAttempts(p *pmem.Proc, opType, argKey uint64, gather Gather) uint64 {
	rd, cp := e.rd(p), e.cp(p)
	p.Store(rd, uint64(pmem.Null))
	p.PBarrier(rd)
	p.Store(cp, 1)
	p.PWB(cp)
	e.opSync(p)
	return e.attemptLoop(p, opType, argKey, gather)
}

// attemptLoop is the gather → install → Help attempt cycle, entered with
// RD_q/CP_q already initialized. Batch operations after the first enter here
// directly: CP_q is already 1 and RD_q still names the previous op's record,
// which recovery tells apart from this op's by the stamped sequence number.
func (e *Engine) attemptLoop(p *pmem.Proc, opType, argKey uint64, gather Gather) uint64 {
	rd := e.rd(p)
	per := e.per(p)
	spec := &e.specs[p.ID()] // reused per-process scratch, see Engine.specs
	for {
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
			e.markDone(p, info)
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

// markDone durably flags a completed record (one pwb, no psync): Help's
// result-set path refuses to re-run finish on a done record, because done
// is written back strictly before any of the record's operands is retired
// — the precondition for their addresses to ever recur. A torn (lost)
// flag is safe: it implies the operands were never retired either.
func (e *Engine) markDone(p *pmem.Proc, info pmem.Addr) {
	p.Store(info+offDone, 1)
	p.PWB(info + offDone)
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

// Recover is the generic Op-Recover: called after a crash with the same
// opType/argKey the interrupted operation was invoked with, plus the same
// gather function, and it returns the operation's response. Per the paper,
// if CP_q = 0 or RD_q = Null the operation made no changes and is simply
// re-invoked; otherwise Help(RD_q) completes it (or cleans up a failed
// attempt) and the result field decides. Recover may itself crash and be
// re-invoked any number of times.
func (e *Engine) Recover(p *pmem.Proc, opType, argKey uint64, gather Gather) uint64 {
	return e.RecoverSeq(p, opType, argKey, 0, gather)
}

// RecoverSeq is Recover for an operation at batch sequence number seq (0 for
// single operations): the installed record is only attributed to this
// operation if its stamped sequence matches, so a crashed batch whose cursor
// says "op seq is in flight" can never resolve op seq from a neighbouring
// op's record, even when consecutive batch ops share (kind, arg). Recovery
// always runs eager: the sync scope the crash interrupted, if any, is torn
// down first, and a re-invoked attempt stamps seq so that a further crash
// re-attributes it correctly.
func (e *Engine) RecoverSeq(p *pmem.Proc, opType, argKey, seq uint64, gather Gather) uint64 {
	p.ResetSyncScope()
	e.curSeq[p.ID()] = seq
	rd, cp := e.rd(p), e.cp(p)
	info := pmem.Addr(p.Load(rd))
	if p.Load(cp) == 0 || info == pmem.Null {
		return e.runAttempts(p, opType, argKey, gather)
	}
	// Defense for the pre-CP_q=0 crash window (see DESIGN.md): if RD_q
	// still describes a different operation, this one made no changes.
	if p.Load(info+offOpType) != opType || p.Load(info+offArgKey) != argKey ||
		p.Load(info+offSeq) != seq {
		return e.runAttempts(p, opType, argKey, gather)
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
	return e.runAttempts(p, opType, argKey, gather)
}

// BeginTxnLeg is the engine-side begin step of one leg of a two-structure
// transaction: persist CP_q := 0 (so a previous operation's recovery data
// cannot be attributed to this leg) and retire the previous record, WITHOUT
// the psync — a transaction resets every involved engine and then publishes
// one announcement, all under the caller's single begin psync (the pwbs are
// synchronous, so the ordering constraints hold without it). The caller
// must have durably cleared the old announcement first, exactly as in
// BeginOpFor, and calls it once per distinct engine (legs on the same
// structure share the reset; their records are told apart by sequence
// stamps). Announcing is the caller's job too: the transaction announcement
// (pmem.Proc.AnnounceTxn) replaces the per-op announcement.
func (e *Engine) BeginTxnLeg(p *pmem.Proc) {
	e.curSeq[p.ID()] = 0
	cp := e.cp(p)
	p.Store(cp, 0)
	p.PWB(cp)
	e.retireLast(p)
}

// ResolveSeq probes whether the operation (opType, argKey) at batch
// sequence number seq took effect, WITHOUT re-invoking it: the
// roll-forward-or-resubmit decision point of transaction recovery. Like
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

// BeginBatch opens a batched-admission window for n operations (reported by
// opAt) on the calling process: the cross-operation generalization of
// BeginOpFor. One durable batch announcement — header, op slots, checksum —
// replaces n per-op announcements, and the whole begin sequence rides ONE
// psync. The window is a sync scope (pmem.Proc.OpenSyncScope): inside it
// the engine's sync points defer — to each op boundary under the eager Isb
// placement, to the batch-end psync under Isb-Opt — and write-backs overlap
// clwb-style; both are pure cost/accounting changes — every pwb still
// applies its line write-back synchronously, so the reachable crash states
// are exactly those of the unbatched execution.
//
// The write order generalizes BeginOpFor's and is equally load-bearing:
// clear the old announcement, persist CP_q := 0, then publish the batch
// record — durable before any op of the batch can take effect. A crash
// anywhere inside BeginBatch leaves either the old announcement, nothing,
// or a checksum-invalid torn record: in every case the batch provably
// performed no tracked writes and is simply re-submitted.
func (e *Engine) BeginBatch(p *pmem.Proc, n int, opAt func(i int) (kind, arg uint64)) {
	if e.annID == 0 {
		panic("isb: BeginBatch on a non-announcing engine")
	}
	// Opened ahead of the begin sequence so that its write-backs overlap
	// too; the begin psync below is explicit, not an engine sync point.
	p.OpenSyncScope()
	cp := e.cp(p)
	p.ClearAnnounce()
	p.Store(cp, 0)
	p.PWB(cp)
	p.AnnounceBatch(e.annID, n, opAt)
	e.retireLast(p) // see BeginOp: before the psync, after CP_q's pwb
	p.PSync()
	e.curSeq[p.ID()] = 0
}

// BatchBoundary closes batch operation seq-1 and opens operation seq: the
// previous op's response becomes durable in its result slot, then the
// completed-prefix cursor advances to cover it. Both write-backs are
// synchronous and ordered — once the cursor names seq, result seq-1 is
// already durable — so recovery's completed-prefix reads never see ⊥ below
// the cursor. Only after the cursor advance can the previous op's tracking
// record no longer be consulted; its retirement happens here, not before.
// Under the Isb placement the boundary issues the per-op psync the deferred
// intra-op sync points merged into; under Isb-Opt it defers too.
func (e *Engine) BatchBoundary(p *pmem.Proc, seq int, prevResp uint64) {
	id := p.ID()
	p.SetBatchResult(seq-1, prevResp)
	p.AdvanceBatchCursor(seq)
	if e.Batched() {
		e.batchSyncs[id]++
	} else {
		p.PSync()
	}
	e.retireLast(p)
	e.curSeq[id] = uint64(seq)
}

// RunBatchOp runs one operation inside an open batch window. The batch's
// first engine-visible op initializes RD_q/CP_q exactly like a single
// operation (minus the deferred psync); later ops skip the
// re-initialization — CP_q is already 1, and the stale RD_q record is
// fenced off by the sequence stamp, not by an RD_q := Null round-trip —
// which is where the per-op begin cost goes. CP_q itself is the dispatch:
// BeginBatch persisted CP_q := 0, and only runAttempts raises it, so
// CP_q = 0 means no mutating op of this batch has initialized the
// registers yet (read-only ops never enter the engine). Recovery relies on
// the same invariant: a crash with CP_q = 0 proves the in-flight op
// installed nothing, so re-invoking it is safe.
func (e *Engine) RunBatchOp(p *pmem.Proc, seq int, opType, argKey uint64, gather Gather) uint64 {
	e.curSeq[p.ID()] = uint64(seq)
	if p.Load(e.cp(p)) == 0 {
		return e.runAttempts(p, opType, argKey, gather)
	}
	return e.attemptLoop(p, opType, argKey, gather)
}

// EndBatch closes the batch window: one psync drains every deferred sync
// point and overlapped write-back, and the engine reverts to single-op
// admission. The batch announcement stays in place — like a single op's, it
// is only cleared by the process's next Begin — so a crash after EndBatch
// still resolves every op of the batch from the record.
func (e *Engine) EndBatch(p *pmem.Proc) {
	e.curSeq[p.ID()] = 0
	p.CloseSyncScope()
}
