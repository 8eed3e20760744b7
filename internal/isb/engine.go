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
// issues one barrier per phase) — except the invoker's cleanup phase inside
// an Isb-Opt sync scope, which rides the next barrier (see finish). On a
// record whose result is set only what is left re-runs: a done record's
// untags, of which only those that win are written back, and nothing at all
// once no CleanupSet node carries the tag (see below).
//
// Help is idempotent and may be executed concurrently by any number of
// processes. Helpers tag from the first AffectSet element, like the invoker:
// the paper's helpers start from the second, since they found the operation
// through a tag the invoker installed after the first, but a crash breaks
// that order — a later element's line can persist while the first's does
// not, and a helper that skipped the first would then complete an operation
// whose first element another process has since changed. Recovery helps its
// own record as the invoker, and only the invoker flags a record done.
func (e *Engine) Help(p *pmem.Proc, info pmem.Addr, invoker bool) {
	per := e.per(p)
	per.Reset()
	tagged := Tagged(info)
	n := int(p.Load(info + offAffectLen))

	// A set result proves the tagging phase already completed, so skip
	// straight to what is left of the update and cleanup phases. Without
	// this, recovering a crash that landed mid-cleanup would abort in the
	// tagging phase — the completed operation's tags have been recycled to
	// non-tagged info values that can never match the expected ones — and
	// surviving nodes would stay tagged until some later operation happened
	// to help them.
	if p.Load(info+offResult) != RespNone {
		// The update phase re-runs only while it may not be durable: the
		// result can persist ahead of the WriteSet (eviction), but done is
		// stored after the update barrier, and so is every untag. Once done,
		// or one untag, is visible the update is durable, and re-running it
		// could meet recycled values: the retired-class operands retire once
		// the cleanup is durable, and a CleanupSet node, once untagged, may
		// be tagged, unlinked and recycled by any other process — a WriteSet
		// CAS on it would then write into an unrelated live node. While every
		// CleanupSet node still holds Tagged(info), none of that happened:
		// another process changes a node only after tagging it, and its tag
		// barrier would have overwritten the persisted tag (a record without
		// a CleanupSet names only retired-class operands, which stay tagged
		// and allocated until done is durable). A read-only record writes
		// nothing and never re-runs.
		if p.Load(info+offDone) == 0 && p.Load(info+offWriteLen) != 0 {
			if _, all := e.cleanupTags(p, info); all {
				e.finish(p, info, tagged, invoker)
				return
			}
		}
		// Otherwise only the untags re-run: the cleanup may still be partly
		// volatile — done is written back with the untags, and eviction can
		// persist a line ahead of the others. They expect Tagged(info), which
		// cannot recur while the record can still be consulted, and only a
		// CAS that wins is written back: a lost one changed nothing.
		if e.untag(p, per, info, tagged, true) {
			e.endPhase(p, per)
		}
		return
	}

	// Tagging phase.
	for i := 0; i < n; i++ {
		nd := pmem.Addr(p.Load(info + offAffect + pmem.Addr(2*i)))
		exp := p.Load(info + offAffect + pmem.Addr(2*i) + 1)
		res := p.CAS(nd, exp, tagged)
		per.WroteWord(nd)
		if res != exp && res != tagged {
			// Backtrack phase: untag every other element, each to a fresh
			// cookie (see Engine.cookie) — the earlier ones in reverse order,
			// then the later ones. A failure at i means nd_i holds neither
			// exp nor the tag, and expected info values never recur, so
			// unless the operation already completed — a lagging helper
			// meets its cleaned-up first element, and its retired elements
			// must keep their tags — it never can, and no helper still needs
			// any of its tags. A later element can only hold the tag after a
			// crash: its line persisted (eviction, or another process's
			// write-back of a shared line) while an earlier one's did not,
			// and another process then changed the earlier one. Left tagged,
			// it would send every operation that meets it to help this
			// record, fail at i and retry, for good. A CAS that loses changed
			// nothing.
			if p.Load(info+offResult) == RespNone {
				for j := i - 1; j >= 0; j-- {
					ndj := pmem.Addr(p.Load(info + offAffect + pmem.Addr(2*j)))
					p.CAS(ndj, tagged, e.cookie(p))
					per.WroteWord(ndj)
				}
				for j := i + 1; j < n; j++ {
					ndj := pmem.Addr(p.Load(info + offAffect + pmem.Addr(2*j)))
					if p.CAS(ndj, tagged, e.cookie(p)) == tagged {
						per.WroteWord(ndj)
					}
				}
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
	// phase is durable now, and the flag is written back with the untags,
	// before the invoker retires any operand — the precondition for their
	// addresses to ever recur.
	if invoker {
		p.Store(info+offDone, 1)
		per.WroteWord(info + offDone)
	}
	e.untag(p, per, info, tagged, false)
	if invoker && e.batched && p.InSyncScope() {
		// Under Isb-Opt inside a sync scope the invoker does not end the
		// phase: its lines ride this process's next barrier, on any engine,
		// normally the next install's, and the record and its retired-class
		// operands retire after this engine's next install (retireAffected
		// holds them, see retireLast). The response does not wait: the result
		// is durable since the update phase. Until that barrier the one record
		// whose cleanup may be volatile is the one RD_q names, and neither it
		// nor its retired-class operands have been retired. Its surviving
		// nodes are untagged in volatile memory, so others may change and
		// recycle them: Help re-runs the update phase only while every one of
		// them still holds the tag (Settle finishes the cleanup after a crash).
		per.Defer()
		e.batchSyncs[p.ID()]++
		return
	}
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

// runOp executes a single operation, announced by Begin as leg 0 of a vector
// of one (Ops.ApplyOp), via the Algorithm 2 (ROpt) driver and returns its
// encoded response. gather is called once per attempt with a fresh Info
// record.
//
// With Begin the sequence is exactly the paper's: announce the operation,
// which raises the admission number (CP_q := 0) + pwb + psync, RD_q := Null +
// pbarrier, CP_q := the number (CP_q := 1) + pwb + psync, then attempts of
// gather → helping phase → install Info → pbarrier over the record and the
// NewSet → RD_q := info + pwb + psync → read-only fast return or Help →
// return result if set.
//
// Under the Isb placement every one of those psyncs issues where it is
// written. Under Isb-Opt the operation is a sync scope of one, opened ahead of
// the begin (Ops.ApplyOp): the begin writes nothing back — its record rides
// the install barrier — every sync point defers, and one psync closes the
// scope before the response is returned, what a batch window of one pays.
// Isb-Opt also drops the RD_q := Null / CP_q := 1 prologue: CP_q rides the
// first install's RD_q write-back (see runAttempts). An elimination stack's
// begin stays eager, and its scope opens here, after the exchange.
func (e *Engine) runOp(p *pmem.Proc, opType, argKey uint64, gather Gather) uint64 {
	if !e.Batched() {
		return e.runAttempts(p, opType, argKey, gather, 0)
	}
	p.OpenSyncScope()
	r := e.runAttempts(p, opType, argKey, gather, 0)
	p.CloseSyncScope()
	return r
}

// runAttempts runs an engine's first leg of an admission, after the begin
// made CP_q stale (runOp, and runBatchOp while CP_q is stale); recovery's
// re-invoke path enters here too, with its attempt bound.
//
// Under Isb it runs Algorithm 2's prologue as written: RD_q := Null +
// pbarrier, then CP_q := the admission number + pwb + sync point. Under
// Isb-Opt there is no prologue: the first install stores RD_q := info and
// then CP_q := the number, and the pwb of RD_q it issues anyway persists both.
// RD_q and CP_q share one line (Engine.base), which persists as a unit — and
// on x86 same-line stores persist in program order — so the only durable
// pairs are (old record, old number), (info, old number) and (info, this
// number): a current CP_q names this leg's record, and since no tag precedes
// that pwb, a stale one still proves the leg made no changes.
func (e *Engine) runAttempts(p *pmem.Proc, opType, argKey uint64, gather Gather, bound int) uint64 {
	if e.Batched() {
		return e.attemptLoop(p, opType, argKey, gather, bound, true)
	}
	rd, cp := e.rd(p), e.cp(p)
	p.Store(rd, uint64(pmem.Null))
	p.PBarrier(rd)
	e.retireLast(p) // RD_q no longer names it
	p.Store(cp, p.Admission())
	p.PWB(cp)
	e.opSync(p)
	return e.attemptLoop(p, opType, argKey, gather, bound, false)
}

// maxRecoveryAttempts bounds the attempts of one recoverSeq call. Every
// retry of a lock-free attempt is paid for by some other operation's
// progress, and recovery only ever competes with the handful of operations
// in flight at the crash (the storms run ≤ 4 processes × 40 operations), so
// reaching the bound means the structure cannot be resolved — and each
// further attempt would only allocate another Info record on an allocator
// that frees nothing during recovery, until the arena is gone.
const maxRecoveryAttempts = 1 << 10

// attemptLoop is the gather → install → Help attempt cycle. Legs after an
// engine's first enter here directly: CP_q is already current and RD_q still
// names the previous leg's record, which recovery tells apart from this leg's
// by the stamped index. raiseCP makes the first install also store the
// admission number into CP_q (the Isb-Opt first leg, see runAttempts). bound,
// when nonzero, is the recovery path's attempt limit (see
// maxRecoveryAttempts).
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
			panic(fmt.Sprintf("isb: recovery of proc %d's operation (kind %d, key %d, seq %d) did not resolve in %d attempts: RD_q = %d%s, CP_q = %d, admission %d, last attempt's affect set %v",
				p.ID(), opType, argKey, e.curSeq[p.ID()], bound, p.Load(rd), last, p.Load(e.cp(p)), p.Admission(), spec.Affect[:spec.NAffect]))
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
		// barrier — with the previous operation's deferred cleanup, if any —
		// and the eager one issues a pbarrier per range.
		per.Reset()
		e.install(p, info, spec)
		per.WroteRange(info, InfoWords)
		for i := 0; i < spec.NPersist; i++ {
			per.WroteRange(spec.Persist[i].Addr, spec.Persist[i].Words)
		}
		per.Flush()
		p.Store(rd, uint64(info))
		if raiseCP {
			p.Store(e.cp(p), p.Admission()) // after RD_q, on its line: see runAttempts
			raiseCP = false
		}
		p.PWB(rd)
		e.opSync(p)
		// RD_q durably points at this attempt's record, so the previous
		// attempt's (if any) can no longer be consulted, and the barrier
		// above carried its deferred cleanup: retire it, with what it held.
		e.retireLast(p)
		e.last[p.ID()].info = info

		// ROpt fast path (Algorithm 2 lines 78–79): the response was
		// stored into the record by install and persisted above.
		if spec.ReadOnly {
			e.alloc.Exit(p)
			return spec.Response
		}

		e.Help(p, info, true)
		if r := p.Load(info + offResult); r != RespNone {
			e.retireAffected(p, per, spec)
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
// While the operation's cleanup waits for a barrier (see finish) the nodes
// are held with its record instead, and retire with it (retireLast).
func (e *Engine) retireAffected(p *pmem.Proc, per persister, spec *Spec) {
	if spec.ReadOnly {
		return // nothing was unlinked
	}
	last := &e.last[p.ID()]
	for i := 0; i < spec.NAffect; i++ {
		nd := spec.Affect[i].Info
		inCleanup := false
		for j := 0; j < spec.NCleanup; j++ {
			if spec.Cleanup[j] == nd {
				inCleanup = true
				break
			}
		}
		switch {
		case inCleanup:
		case per.Deferred():
			last.held[last.n] = nd
			last.n++
		default:
			e.alloc.Retire(p, nd)
		}
	}
}

// recoverSeq is the generic Op-Recover, for the leg at index seq of its
// announced vector (0 for single operations): called after a crash with the
// same opType/argKey the interrupted operation was invoked with, plus the same
// gather function, it returns the operation's response. Per the paper, if
// CP_q = 0 (here: CP_q is not the admission number) or RD_q = Null the
// operation made no changes and is simply re-invoked; otherwise Help(RD_q)
// completes it (or cleans up a failed attempt) and the result field decides.
// Under Isb-Opt RD_q is never reset to Null, so a stale CP_q alone decides:
// RD_q may then name the previous operation's record, or this one's if the
// crash hit between its first install and the write-back that raises CP_q —
// before any tag either way.
//
// The installed record is only attributed to this leg if its stamped index
// matches, so a crashed vector whose result slots put leg seq in flight can
// never resolve leg seq from a neighbouring leg's record, even when
// consecutive legs share (kind, arg): RD_q names leg seq-1's record from leg
// seq's boundary until leg seq's first install. Recovery always runs eager:
// the sync scope the crash interrupted, if any, is torn down first, and a
// re-invoked attempt stamps seq so that a further crash re-attributes it
// correctly. A re-invocation is a first leg (runAttempts): under Isb-Opt RD_q
// keeps naming the failed or mismatching record until the first re-invoked
// install replaces it. recoverSeq may itself crash and be re-invoked any
// number of times, and it terminates or fails loudly: re-invoked attempts are
// bounded by maxRecoveryAttempts, and the panic names the record RD_q still
// holds.
func (e *Engine) recoverSeq(p *pmem.Proc, opType, argKey, seq uint64, gather Gather) uint64 {
	if r, _ := e.helpRecorded(p, opType, argKey, seq); r != RespNone {
		e.alloc.Exit(p)
		return r
	}
	// No matching record, or its last attempt did not take effect: re-invoke.
	return e.runAttempts(p, opType, argKey, gather, maxRecoveryAttempts)
}

// resolveSeq probes whether the leg (opType, argKey) at index seq took
// effect, WITHOUT re-invoking it: the roll-forward-or-resubmit decision
// point of an atomic vector's recovery. Like recoverSeq it helps an
// installed matching record to completion (the effect may land now, during
// recovery — that still counts as applied); unlike recoverSeq a missing or
// mismatching record returns (0, false) — the operation provably made no
// changes and never can (a failed tagging attempt's expected info values
// cannot recur) — instead of running attempts. Idempotent and re-invocable
// across further crashes.
func (e *Engine) resolveSeq(p *pmem.Proc, opType, argKey, seq uint64) (uint64, bool) {
	r, pinned := e.helpRecorded(p, opType, argKey, seq)
	if pinned {
		e.alloc.Exit(p)
	}
	return r, r != RespNone
}

// helpRecorded is the entry both recovery functions open with. It tears down
// the sync scope a crash interrupted, stamps seq for any re-invoked attempt,
// and, if RD_q holds this leg's record, helps it to completion as its invoker
// and returns its result (RespNone if the record's attempt never took
// effect) with the process left pinned. Without such a record it returns
// RespNone, unpinned: the leg made no changes.
func (e *Engine) helpRecorded(p *pmem.Proc, opType, argKey, seq uint64) (r uint64, pinned bool) {
	p.ResetSyncScope()
	e.Settle(p)
	e.curSeq[p.ID()] = seq
	rd, cp := e.rd(p), e.cp(p)
	info := pmem.Addr(p.Load(rd))
	if p.Load(cp) != p.Admission() || info == pmem.Null {
		return RespNone, false
	}
	// Defense for a crash before the begin's record is durable — inside an
	// eager begin's write-back, or under Isb-Opt anywhere ahead of the
	// admission's first barrier, which carries the record: the raised
	// admission number persists with the record, before anything else of the
	// new operation (README, "Recovery workflow"), so such a crash leaves the
	// number, CP_q and RD_q the previous operation's. If RD_q still describes
	// a different operation, this one made no changes; if it describes an
	// identical one, recovery re-reports that operation, which is stale, and
	// only an identity in the argument tells the caller so (repro.MatchReport).
	if p.Load(info+offOpType) != opType || p.Load(info+offArgKey) != argKey ||
		p.Load(info+offSeq) != seq {
		return RespNone, false
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
	return p.Load(info + offResult), true
}

// Settle finishes, once per crash, the cleanups the crash cut short: under
// Isb-Opt an invoker leaves its cleanup, done flag included, to its next
// barrier (see finish), and a crash before that barrier leaves a completed
// operation's surviving nodes durably tagged. Nobody else would finish it —
// the process may be idle or busy on another engine — so the first begin or
// recovery on the engine after a crash, and RecoverAll for every engine,
// helps each record an RD_q names, whatever CP_q says, if its result is set
// and its CleanupSet still carries its tag. Until that cleanup is durable
// neither the record nor its retired-class operands have been retired, but
// its surviving nodes may have been: once untagged in volatile memory any
// process may tag, unlink and recycle them. Help therefore re-runs the update
// phase only while every CleanupSet node still holds the tag, and otherwise
// just the untags. Settle helps as any helper does, in a sync scope it closes
// without a psync of its own: its write-backs are complete when it returns —
// PWB is clflush-class, as every deferred sync point assumes — and the
// process's next psync (the close of the admission's scope, an eager begin's,
// or recovery's) accounts for them. Under Isb every cleanup ends with its
// barrier, and there is nothing to finish.
func (e *Engine) Settle(p *pmem.Proc) {
	epoch := e.h.Epoch()
	if !e.batched || e.settled.Load() == epoch {
		return
	}
	own := !p.InSyncScope()
	if own {
		p.OpenSyncScope()
	}
	e.alloc.Enter(p) // RD_q's record cannot retire under us
	for q := 0; q < e.h.NumProcs(); q++ {
		info := pmem.Addr(p.Load(e.base + pmem.Addr(q*pmem.WordsPerLine))) // RD_q
		if info == pmem.Null || p.Load(info+offResult) == RespNone {
			continue
		}
		if some, _ := e.cleanupTags(p, info); some {
			e.Help(p, info, false)
		}
	}
	e.alloc.Exit(p)
	if own {
		p.ResetSyncScope()
	}
	e.settled.Store(epoch)
}

// cleanupTags reports whether some node of info's CleanupSet still carries
// its tag — its cleanup has yet to finish — and whether every one does — its
// cleanup has yet to start (see Help).
func (e *Engine) cleanupTags(p *pmem.Proc, info pmem.Addr) (some, all bool) {
	all = true
	for i := pmem.Addr(0); i < pmem.Addr(p.Load(info+offCleanupLen)); i++ {
		if p.Load(pmem.Addr(p.Load(info+offCleanup+i))) == Tagged(info) {
			some = true
		} else {
			all = false
		}
	}
	return some, all
}

// MarkReachable reports, via mark, every address the engine's recovery
// data can still lead to: for each process, the Info record a non-Null RD_q
// names, whatever CP_q says, and (conservatively) every word of it with the
// tag bit cleared — AffectSet field addresses, WriteSet addresses and
// values, CleanupSet addresses — plus the last record the process installed
// and the operands held with it, until they retire. The post-crash scan's
// transitive closure follows on from whatever those words name. Part of the
// conservative-scan contract: an announced operation's operands survive
// reclamation even if their retirement was recorded, and so do the record
// and operands of a completed operation whose cleanup recovery may still
// have to finish (Settle), and whatever retireLast will still retire.
func (e *Engine) MarkReachable(p *pmem.Proc, mark func(pmem.Addr)) {
	for q := 0; q < e.h.NumProcs(); q++ {
		last := &e.last[q]
		if last.info != pmem.Null {
			mark(last.info)
		}
		for _, nd := range last.held[:last.n] {
			mark(nd)
		}
		info := pmem.Addr(p.Load(e.base + pmem.Addr(q*pmem.WordsPerLine))) // RD_q
		if info == pmem.Null {
			continue
		}
		mark(info)
		for w := pmem.Addr(0); w < InfoWords; w++ {
			mark(pmem.Addr(p.Load(info+w) &^ 1))
		}
	}
}

// Boundary closes leg seq-1 of the announced vector and opens leg seq: the
// previous leg's response goes into its result slot, stamped with the
// admission number (pmem.Proc.StoreLegResult) — for an atomic vector, slot 0
// stamped is the commit point. The previous leg's tracking record retires
// once the next install on its engine moves RD_q off it (retireLast).
//
// Under Isb the slot is written back at once, and inside a sync scope the
// boundary issues the per-leg psync the deferred intra-leg sync points merged
// into. Under Isb-Opt the boundary defers its psync to the scope's close and
// writes nothing back of its own — only the first boundary of a vector that
// leads with a read writes back the still-carried announcement, before the
// slot's stores (pmem.Proc.StoreLegResult) — and the slot's line joins the process's carry set
// (pmem.Proc.Carry), which its next barrier writes back, on whichever engine
// — a mutating leg's install barrier, before RD_q moves and before any tag,
// or sooner, the barrier of an operation the leg helps. No leg takes a
// durable effect ahead of its install barrier, and a read leg takes none at
// all; the reclaimer's slab directory, which can be written back sooner,
// records no operation's effect. So a crash before that barrier finds the
// slot unstamped and leg seq-1 at the derived cursor, with RD_q still naming
// its record if it mutated (recoverSeq, resolveSeq). The slot of a leg
// followed only by reads may never be written back: RD_q keeps that leg's
// record until the next admission.
func (e *Engine) Boundary(p *pmem.Proc, seq int, prevResp uint64) {
	slot := p.StoreLegResult(seq-1, prevResp)
	switch {
	case e.batched:
		p.Carry(slot)
		e.batchSyncs[p.ID()]++
	case p.InSyncScope():
		p.PWB(slot)
		p.PSync()
	default:
		p.PWB(slot)
	}
}

// runBatchOp runs the leg at index seq of an announced vector (Begin). An
// engine's first leg raises CP_q exactly like a single operation; later legs
// on the same engine skip that — CP_q is already current, and the stale RD_q
// record is fenced off by the index stamp, not by an RD_q := Null round-trip
// — which is where the per-op begin cost goes. CP_q itself is the dispatch:
// Begin raised the admission number, and only an engine's first leg stores it
// into CP_q (under Isb in runAttempts' prologue, under Isb-Opt at that leg's
// first install), so a stale CP_q means no mutating leg of this vector has
// raised it on this engine yet (read-only legs never enter the engine).
// Recovery relies on the same invariant: a crash with CP_q stale proves the
// in-flight leg tagged nothing, so re-invoking it is safe.
//
// Inside a sync scope (pmem.Proc.OpenSyncScope, which the admitting runtime
// opens around a window under either placement and around a transaction
// under Isb-Opt) the engine's sync points defer — to each Boundary under Isb,
// to the scope's closing psync under Isb-Opt — and write-backs overlap
// clwb-style; both are pure cost/accounting changes — every pwb still
// applies its line write-back synchronously, so the reachable crash states
// are exactly those of the unscoped execution.
func (e *Engine) runBatchOp(p *pmem.Proc, seq int, opType, argKey uint64, gather Gather) uint64 {
	e.curSeq[p.ID()] = uint64(seq)
	if p.Load(e.cp(p)) != p.Admission() {
		return e.runAttempts(p, opType, argKey, gather, 0)
	}
	return e.attemptLoop(p, opType, argKey, gather, 0, false)
}
