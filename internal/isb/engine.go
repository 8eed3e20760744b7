package isb

import (
	"fmt"
	"strings"

	"repro/internal/pmem"
)

// Help tries to complete the operation described by the Info record at
// info. It is the paper's Algorithm 1 Help procedure, including the red
// persistency instructions of the shared cache model, placed by the engine:
// every CAS on an info field or WriteSet field is reported as a written word
// (wrote), and every phase ends with endPhase (Isb writes back per CAS;
// Isb-Opt issues one barrier per phase) — except the invoker's update and
// cleanup phases inside an Isb-Opt sync scope, each of which rides the
// process's next barrier (see finish). On a
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
// own record as the invoker, and only the invoker flags a record done — and
// Settle, for an update without a CleanupSet it finished after a crash.
func (e *Engine) Help(p *pmem.Proc, info pmem.Addr, invoker bool) {
	ep := e.proc(p)
	ep.dirty = ep.dirty[:0] // lines noted by a phase a crash cut short
	tagged := Tagged(info)
	n, _, _ := lens(p.Load(info + offLens))

	// A set result proves the tagging phase already completed, so skip
	// straight to what is left of the update and cleanup phases. Without
	// this, recovering a crash that landed mid-cleanup would abort in the
	// tagging phase — the completed operation's tags have been recycled to
	// non-tagged info values that can never match the expected ones — and
	// surviving nodes would stay tagged until some later operation happened
	// to help them.
	if p.Load(info+offResult) != RespNone {
		// The update phase re-runs only while it may not be durable: the
		// result can persist ahead of the WriteSet (eviction, or a barrier
		// that persisted some of a held update's lines), but done is stored
		// after the barrier that wrote the update back, and so is every
		// untag. Once done,
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
		if _, wn, _ := lens(p.Load(info + offLens)); p.Load(info+offDone) == 0 && wn != 0 {
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
		if e.untag(p, ep, info, tagged, true, 0) {
			e.endPhase(ep)
		}
		return
	}

	// Tagging phase.
	for i := 0; i < n; i++ {
		nd := pmem.Addr(p.Load(info + offAffect + pmem.Addr(2*i)))
		exp := p.Load(info + offAffect + pmem.Addr(2*i) + 1)
		res := p.CAS(nd, exp, tagged)
		e.wrote(ep, nd)
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
					p.CAS(ndj, tagged, e.cookie(ep))
					e.wrote(ep, ndj)
				}
				for j := i + 1; j < n; j++ {
					ndj := pmem.Addr(p.Load(info + offAffect + pmem.Addr(2*j)))
					if p.CAS(ndj, tagged, e.cookie(ep)) == tagged {
						e.wrote(ep, ndj)
					}
				}
			}
			e.endPhase(ep)
			return
		}
	}
	e.endPhase(ep)

	e.finish(p, info, tagged, invoker)
}

// finish runs the update and cleanup phases of Help. Both are idempotent
// and may be re-executed by recovery or by any number of helpers.
//
// Whether the update phase ends with its barrier or is held is step's rule
// (updated, in the transition table): a held update's lines are carried and
// its tags stay set, so it is durable once its tags are — Help finishes it
// from the record — and it reserves the cookies of its untags, which a later
// gather that meets its tags expects (meet). Until the barrier that releases
// it, the record is the one its engine's last complete install names, so a
// crash leaves it named and evident (its tags are durable), and Settle
// finishes it, even where a later leg's slot persisted ahead of its update.
func (e *Engine) finish(p *pmem.Proc, info pmem.Addr, tagged uint64, invoker bool) {
	ep := e.proc(p)

	// Update phase: apply the WriteSet CASes. Each change happens exactly
	// once across all helpers because old values never recur (the ABA
	// assumption the structures discharge by copying replaced nodes).
	_, wn, cn := lens(p.Load(info + offLens))
	for i := 0; i < wn; i++ {
		a := pmem.Addr(p.Load(info + offWrites + pmem.Addr(3*i)))
		old := p.Load(info + offWrites + pmem.Addr(3*i) + 1)
		new := p.Load(info + offWrites + pmem.Addr(3*i) + 2)
		p.CAS(a, old, new)
		e.wrote(ep, a)
	}
	p.Store(info+offResult, p.Load(info+offSuccess))
	e.wrote(ep, info+offResult)
	if e.step(p, &event{kind: evUpdated, invoker: invoker, info: info, first: ep.cookies + 1, epoch: e.h.Epoch()}).ok {
		ep.deferPhase()
		ep.cookies += uint64(cn)
		return
	}
	e.endPhase(ep)
	e.cleanup(p, ep, info, tagged, invoker, 0)
}

// cleanup is Help's cleanup phase. The invoker first flags the record done:
// the update phase is durable now, and the flag is written back with the
// untags, before the invoker retires any operand — the precondition for their
// addresses to ever recur.
//
// Whether the phase ends with its barrier or rides the process's next one is
// step's rule (cleanup, in the transition table); a deferred cleanup's
// operands retire after this engine's next install, the record one install
// later (done, and retireLast). The response does not wait for it. Until
// that barrier the record's surviving nodes are untagged in volatile memory
// only, so others may change and recycle them: Help re-runs the update phase
// only while every one of them still holds the tag (Settle finishes the
// cleanup after a crash).
func (e *Engine) cleanup(p *pmem.Proc, ep *engineProc, info pmem.Addr, tagged uint64, invoker bool, first uint64) {
	if invoker {
		p.Store(info+offDone, 1)
		e.wrote(ep, info+offDone)
	}
	e.untag(p, ep, info, tagged, false, first)
	if e.step(p, &event{kind: evCleanup, invoker: invoker}).ok {
		ep.deferPhase()
		return
	}
	e.endPhase(ep)
}

// untag runs the cleanup CASes: each surviving node's tag goes to a fresh
// cookie (never the same non-tagged value twice — see Engine.cookie), or,
// with first nonzero, to the cookie of counter value first+i reserved for
// CleanupSet entry i by a held update (finish). Retired nodes are absent from the
// CleanupSet and stay tagged until the allocator recycles them. Every CAS is
// reported written, or with wonOnly only those that won; untag reports
// whether any did.
func (e *Engine) untag(p *pmem.Proc, ep *engineProc, info pmem.Addr, tagged uint64, wonOnly bool, first uint64) (won bool) {
	_, _, cn := lens(p.Load(info + offLens))
	for i := 0; i < cn; i++ {
		nd := pmem.Addr(p.Load(info + offCleanup + pmem.Addr(i)))
		var c uint64
		if first == 0 {
			c = e.cookie(ep)
		} else {
			c = e.cookieAt(ep, first+uint64(i))
		}
		ok := p.CAS(nd, tagged, c) == tagged
		if ok || !wonOnly {
			e.wrote(ep, nd)
		}
		won = won || ok
	}
	return won
}

// runAttempts runs an engine's first leg of an admission, after the begin
// made CP_q stale (Ops.ApplyOp, and runBatchOp while CP_q is stale); recovery's
// re-invoke path enters here too, with its attempt bound.
//
// Under Isb it runs Algorithm 2's prologue as written, on the engine's first
// register: RD_q := Null + pbarrier, then CP_q := the admission number + pwb
// + sync point. Under Isb-Opt there is no prologue: every install stores
// RD_q := info and CP_q := the number into the register its barrier writes
// back (attemptLoop). The register's line persists as a unit, so its only
// durable pairs are (old record, old number) and (info, this number) — the
// pair (info, old number) too under eviction, between the two stores — and a
// pair naming this leg's record is believed only with evidence that the
// barrier completed (helpRecorded).
func (e *Engine) runAttempts(p *pmem.Proc, opType, argKey uint64, gather Gather, bound int) uint64 {
	if e.batched {
		return e.attemptLoop(p, opType, argKey, gather, bound)
	}
	rd, cp := e.rd(p.ID(), 0), e.cp(p.ID(), 0)
	p.Store(rd, uint64(pmem.Null))
	p.PBarrier(rd)
	e.retireLast(p, 0, pmem.Null) // RD_q no longer names it
	p.Store(cp, Admission(p))
	p.PWB(cp)
	e.proc(p).opSync()
	return e.attemptLoop(p, opType, argKey, gather, bound)
}

// maxRecoveryAttempts bounds the attempts of one recoverSeq call. Every
// retry of a lock-free attempt is paid for by some other operation's
// progress, and recovery only ever competes with the handful of operations
// in flight at the crash (the storms run ≤ 4 processes × 40 operations), so
// reaching the bound means the structure cannot be resolved — and each
// further attempt that installs would only allocate another Info record on
// an allocator that frees nothing during recovery, until the arena is gone.
const maxRecoveryAttempts = 1 << 10

// attemptLoop is the gather → install → Help attempt cycle. Legs after an
// engine's first enter here directly under Isb: CP_q is already current and
// RD_q still names the previous leg's record, which recovery tells apart from
// this leg's by the stamp. bound, when nonzero, is the recovery path's
// attempt limit (see maxRecoveryAttempts).
//
// An attempt takes the Info record the process keeps (keptRecord), and
// allocates one only when it keeps none; the process stops keeping it at the
// install. So an attempt that installs nothing — it restarts, helps, or
// proves its leg effect-free — leaves its record to the next
// (discardAttempt), and consecutive effect-free updates allocate nothing.
//
// Under Isb-Opt an attempt whose gather proves the leg effect-free returns
// without an install where step's effect-free rule says so: wherever no
// durable record will name the leg in flight once its admission returns —
// but only while this call has installed nothing, since an earlier attempt
// that lost its tags left a register naming this leg with no effect taken.
//
// Otherwise an Isb-Opt install stores everything that must be durable before
// its first tag and writes it all back with one barrier: the Info record and
// the NewSet; what step's install rule stores — the pending record with the
// responses kept so far, or the responses kept since the process's last
// install; the register, RD_q := info and CP_q := the admission number; and,
// carried, the update phase the process holds (finish) and any cleanup still
// deferred. The barrier may persist any subset of those lines, in any order
// (Px86), and recovery is
// correct for each: the register written is the one the last complete
// install did not write, so the record the durable state may still need —
// the previous leg's, whose update this barrier may carry, or the one whose
// cleanup it carries — stays named until the barrier is done (retireLast); the
// record validates itself (readInfo), so a register naming it before its
// lines persisted names nothing; and recovery believes a register only with
// evidence that its barrier completed, a set result or a durable tag, since a
// valid record whose NewSet did not persist must never be helped
// (helpRecorded).
func (e *Engine) attemptLoop(p *pmem.Proc, opType, argKey uint64, gather Gather, bound int) uint64 {
	ep := e.proc(p)
	spec := &ep.spec
	installed := false
	for attempt := 1; ; attempt++ {
		if bound != 0 && attempt > bound {
			panic(fmt.Sprintf("isb: recovery of proc %d's operation (kind %d, key %d, seq %d) did not resolve in %d attempts: registers %s, admission %d, last attempt's affect set %v",
				p.ID(), opType, argKey, ep.seq, bound, e.registers(p), Admission(p), spec.Affect[:spec.NAffect]))
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

		info := e.keptRecord(p, ep)
		spec.Reset()
		spec.OpType, spec.ArgKey = opType, argKey

		// Gather phase.
		if gather(p, info, spec) == Restart {
			e.discardAttempt(p, spec)
			continue
		}

		// Helping phase: if some gathered info field is tagged, complete
		// that operation first, then start a new attempt. A CleanupSet tag
		// of the update this process holds needs no helper: that update took
		// effect in memory already, and this attempt's install barrier writes
		// it back and releases it before this attempt tags anything, its
		// untag storing the cookie reserved for the field — the value this
		// attempt expects there (step's meet).
		helped := false
		for i := 0; i < spec.NAffect; i++ {
			a := &spec.Affect[i]
			if !IsTagged(a.Expected) {
				continue
			}
			if m := e.step(p, &event{kind: evMeet, info: InfoOf(a.Expected), field: a.Info}); m.ok {
				a.Expected = m.on.cookieAt(m.on.proc(p), m.n)
				continue
			}
			e.Help(p, InfoOf(a.Expected), false)
			helped = true
			break
		}
		if helped {
			e.discardAttempt(p, spec)
			continue
		}

		// Effect-free fast path, Isb-Opt only: the gather proved the leg
		// read-only — a find, an insert of a present key, a delete of an absent
		// one — and no durable record will name it as in flight once its
		// admission returns (step's effect-free rule), so recovery never
		// re-invokes it after its response is out: a later install stores its response in
		// its slot, or the scope's close drops it. Once an attempt of this leg
		// installed, a register names the leg with that attempt's failed tags,
		// and a recovery would re-invoke it: the retry must install so that a
		// register names its response. The rest take the ROpt install below,
		// as does every leg under Isb.
		if spec.ReadOnly && e.step(p, &event{kind: evEffectFree, installed: installed}).ok {
			e.discardAttempt(p, spec)
			ep.readFast++
			e.alloc.Exit(p)
			return spec.Response
		}

		// Install the Info record and persist it with the new nodes: under
		// Isb-Opt in the one barrier described above, under Isb with a
		// pbarrier per range, then RD_q := info and its pwb. From here on a
		// register may name the record: it is no longer the process's to keep.
		ep.dirty = ep.dirty[:0]
		ep.kept = pmem.Null
		a := e.step(p, &event{kind: evInstall})
		adm := Admission(p)
		if a.storeRecord { // the record is pending: it is stored under the next number
			adm++
		}
		e.install(p, info, spec, adm)
		e.wroteRange(ep, info, InfoWords)
		for i := 0; i < spec.NPersist; i++ {
			e.wroteRange(ep, spec.Persist[i].Addr, spec.Persist[i].Words)
		}
		if e.batched {
			r := 1 - ep.last.reg
			e.perform(p, a)
			p.Store(e.rd(p.ID(), r), uint64(info))
			p.Store(e.cp(p.ID(), r), Admission(p))
			e.wrote(ep, e.rd(p.ID(), r))
			ep.flush()
			// Register r durably names this attempt's record, and the record
			// the other names, with everything the barrier carried, is
			// durable: retire what r named before, and the operands whose
			// cleanup the barrier carried (retireLast). Only then the update
			// the barrier wrote back, if the process held one, runs its
			// cleanup, whose operands wait for the next install.
			e.retireLast(p, r, info)
			e.perform(p, e.step(p, &event{kind: evBarrier, readOnly: spec.ReadOnly}))
		} else {
			rd := e.rd(p.ID(), 0)
			p.Store(rd, uint64(info))
			p.PWB(rd)
			e.retireLast(p, 0, info) // the previous attempt's, if any
		}
		ep.opSync()
		installed = true

		// ROpt fast path (Algorithm 2 lines 78–79): the response was
		// stored into the record by install and persisted above. Under
		// Isb-Opt only a read-only leg that could not take the effect-free
		// path above gets here — an atomic vector's, an eager begin's, or a
		// retry after an attempt that lost its tags — which a register must
		// name so that recovery finds its response rather than re-invoking it.
		// The cleanup of an update on this engine that the install barrier
		// released rides no tag barrier then: step's barrier rule gives it a
		// barrier of its own, or the next install here would overwrite the
		// register naming its record, this one's being the other, while it
		// may still be volatile.
		if spec.ReadOnly {
			e.alloc.Exit(p)
			return spec.Response
		}

		e.Help(p, info, true)
		if r := p.Load(info + offResult); r != RespNone {
			e.perform(p, e.step(p, &event{kind: evDone, info: info, spec: spec}))
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

// discardAttempt returns the fresh nodes an attempt that installs nothing
// allocated — those the gather recorded in its Persist ranges — straight to
// the pool; its Info record stays kept for the process's next attempt
// on this engine (keptRecord). Before install no shared location mentions
// any of them — no register names the record, gathers never write into it,
// and only the fresh nodes carry its tag — so immediate reuse is safe, on
// the reclaimer and on the arena alike. (Gathers allocate nodes and call
// AddPersist together, and their Restart paths run before any allocation,
// so the Persist ranges are exactly the fresh nodes.)
func (e *Engine) discardAttempt(p *pmem.Proc, spec *Spec) {
	for i := 0; i < spec.NPersist; i++ {
		e.alloc.Free(p, spec.Persist[i].Addr)
	}
}

// keptRecord returns the Info record for the process's next attempt: the one
// the process keeps (discardAttempt) if it was allocated since the last
// system crash, else a fresh one, which it keeps until an attempt installs
// it. A record kept across a crash is never used: it was allocated from a
// pool the crash has since rebuilt, which may hand it out again.
// Runtime.RecoverAll returns it to that pool first (Release); an engine
// recovered without RecoverAll, on the arena, just drops it.
func (e *Engine) keptRecord(p *pmem.Proc, ep *engineProc) pmem.Addr {
	if epoch := e.h.Epoch(); ep.kept == pmem.Null || ep.keptAt != epoch {
		ep.kept, ep.keptAt = e.alloc.Alloc(p, InfoWords), epoch
	}
	return ep.kept
}

// Release hands f the Info record each process keeps (keptRecord), and
// forgets each once f returns: what Runtime.RecoverAll returns to the
// reclaimer's pool after a crash, before anything allocates. A crash inside
// f leaves the record kept for a re-run.
func (e *Engine) Release(f func(pmem.Addr)) {
	for q := range e.procs {
		if ep := &e.procs[q]; ep.kept != pmem.Null {
			f(ep.kept)
			ep.kept = pmem.Null
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
// Here a process has two registers, and a leg is resolved from the one whose
// record is this leg's and whose install barrier provably completed
// (helpRecorded); without one the leg made no changes.
//
// The installed record is only attributed to this leg if its stamp matches, so
// a crashed vector whose result slots put leg seq in flight can never resolve
// leg seq from a neighbouring leg's record, even when consecutive legs share
// (kind, arg): a register names leg seq-1's record from leg seq's boundary
// until after leg seq's first install. Recovery always runs eager: the sync
// scope the crash interrupted, if any, is torn down first, and a re-invoked
// attempt stamps seq so that a further crash re-attributes it correctly. A
// re-invocation is a first leg (runAttempts). recoverSeq may itself crash and
// be re-invoked any number of times, and it terminates or fails loudly:
// re-invoked attempts are bounded by maxRecoveryAttempts, and the panic names
// what the registers still hold.
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
// and looks for this leg's record in p's two registers, the last complete
// install's first. A register names it if its CP_q is the admission number
// and its record validates (readInfo), is stamped with this process, the
// admission and seq, and describes (opType, argKey). It is believed only with
// evidence that the install barrier completed: the result is set, or some
// AffectSet field durably holds Tagged(info) — tags are CASed only after the
// barrier. Without that evidence the barrier may have persisted the record
// and the register but not the NewSet, which Help would link; and the leg made
// no changes, since nothing it does takes effect before its tags. A record
// found is helped to completion as its invoker, its register becomes the last
// complete install's, so the next install writes the other, and its result
// (RespNone if the record's attempt never took effect) is returned with the
// process left pinned. Without one it returns RespNone, unpinned: the leg made
// no changes.
func (e *Engine) helpRecorded(p *pmem.Proc, opType, argKey, seq uint64) (r uint64, pinned bool) {
	p.ResetSyncScope()
	e.Settle(p)
	ep := e.proc(p)
	ep.seq = seq
	adm := Admission(p)
	last := &ep.last
	// Pin before dereferencing a record: post-crash recovery kept each
	// register's record out of the free pool (Runtime.RecoverAll), what an
	// evident record names stays allocated for as long as Help may act on
	// it (rule i of pmem.Reclaimer), and the pin keeps that true while Help
	// re-runs. The completed operation's retired-class nodes are NOT retired
	// here — pre-crash they may already have been retired, freed and reused
	// as live nodes; a recovery-path retire could therefore hit a live
	// block. They leak instead, inside the per-crash in-flight budget, until
	// the next scan.
	e.alloc.Enter(p)
	for _, reg := range [2]int{last.reg, 1 - last.reg} {
		info := pmem.Addr(p.Load(e.rd(p.ID(), reg)))
		if p.Load(e.cp(p.ID(), reg)) != adm || info == pmem.Null {
			continue
		}
		// Defense for a crash before the begin's record is durable — inside an
		// eager begin's write-back, or under Isb-Opt anywhere ahead of the
		// admission's first install barrier, which carries the record: the
		// raised admission number persists with the record, before anything
		// else of the new operation (README, "Recovery workflow"), so such a
		// crash leaves the number and the registers the previous operation's.
		// If a register still describes a different operation, this one made
		// no changes; if it describes an identical one, recovery re-reports
		// that operation, which is stale, and only an identity in the argument
		// tells the caller so (repro.MatchReport).
		rec, ok := readInfo(p, info)
		if !ok || rec[offStamp] != seq|uint64(p.ID())<<stampProcShift || rec[offAdm] != adm ||
			rec[offOpType] != opType || rec[offArgKey] != argKey || !e.evident(p, info, &rec) {
			continue
		}
		last.reg = reg
		e.Help(p, info, true)
		return p.Load(info + offResult), true
	}
	e.alloc.Exit(p)
	return RespNone, false
}

// evident reports whether the install barrier of the record rec, read from
// info, provably completed: its result is set — by the update phase, or at
// the install of a read-only record, on the line of the sum that validated
// it — or some AffectSet field holds Tagged(info).
func (e *Engine) evident(p *pmem.Proc, info pmem.Addr, rec *[InfoWords]uint64) bool {
	if rec[offResult] != RespNone {
		return true
	}
	na, _, _ := lens(rec[offLens])
	for i := 0; i < na; i++ {
		if p.Load(pmem.Addr(rec[offAffect+2*i])) == Tagged(info) {
			return true
		}
	}
	return false
}

// registers spells p's registers for a panic message: each RD_q, CP_q and,
// for a record, its kind, key, stamp, result and done flag.
func (e *Engine) registers(p *pmem.Proc) string {
	var out []string
	for r := range 2 {
		info := pmem.Addr(p.Load(e.rd(p.ID(), r)))
		reg := fmt.Sprintf("RD_q = %d", info)
		if info != pmem.Null {
			reg += fmt.Sprintf(" (kind %d, key %d, stamp %#x, result %d, done %d)", p.Load(info+offOpType),
				p.Load(info+offArgKey), p.Load(info+offStamp), p.Load(info+offResult), p.Load(info+offDone))
		}
		out = append(out, fmt.Sprintf("[%s, CP_q = %d]", reg, p.Load(e.cp(p.ID(), r))))
	}
	return strings.Join(out, " ")
}

// Settle finishes, once per crash, the updates and cleanups the crash cut
// short: under Isb-Opt an invoker leaves its update phase, then its cleanup,
// done flag included, each to its process's next barrier (see finish), and a
// crash before that barrier leaves a completed operation's nodes durably
// tagged — with its update possibly not durable, though a later leg's result
// slot is. Nobody else would finish it — the process may be idle or busy on
// another engine — so the first begin or recovery on the engine after a
// crash, and RecoverAll for every engine, helps each record either register
// of any process names, whatever its CP_q says, if the record validates, is
// stamped with that process and that CP_q, and is evident (its result set or
// a durable AffectSet tag: its install barrier completed), unless it is
// finished: result set, done set or no WriteSet, and no CleanupSet node
// carrying its tag. Until that cleanup is durable neither the record nor its
// retired-class operands have been retired, but its surviving nodes may have
// been: once untagged in volatile memory any process may tag, unlink and
// recycle them. Help therefore re-runs the update phase only while every
// CleanupSet node still holds the tag, and otherwise just the untags. Settle
// helps as any helper does, in a sync scope it closes without a psync of its
// own: its write-backs are complete when it returns — PWB is clflush-class, as
// every deferred sync point assumes — and the process's next psync (the close
// of the admission's scope, an eager begin's, or recovery's) accounts for
// them. An update it finished without a CleanupSet (a dequeue) it flags
// done, with a barrier of its own: the invoker's flag may have died with the
// crash while the invoker's Go-side retire schedule (lastOp.held) still
// retires the record's operands at its next install, and nothing else would
// stop every later Settle from re-running the update into an operand
// recycled since — a CleanupSet stops it once its untags are durable, which
// Settle's cleanup makes them. Under Isb every update and cleanup ends with
// its barrier, and there is nothing to finish. First of all, at every call,
// it ends the update the calling process may still hold from before a crash
// or an individual failure (step's settle rule).
func (e *Engine) Settle(p *pmem.Proc) {
	e.perform(p, e.step(p, &event{kind: evSettle, epoch: e.h.Epoch()}))
	epoch := e.h.Epoch()
	if !e.batched || e.settled.Load() == epoch {
		return
	}
	own := !p.InSyncScope()
	if own {
		p.OpenSyncScope()
	}
	e.alloc.Enter(p) // a register's record cannot retire under us
	for q := 0; q < e.h.NumProcs(); q++ {
		for r := range 2 {
			info := pmem.Addr(p.Load(e.rd(q, r)))
			if info == pmem.Null {
				continue
			}
			rec, ok := readInfo(p, info)
			if !ok || rec[offStamp]>>stampProcShift != uint64(q) || rec[offAdm] != p.Load(e.cp(q, r)) || !e.evident(p, info, &rec) {
				continue
			}
			_, wn, cn := lens(rec[offLens])
			if rec[offResult] == RespNone || rec[offDone] == 0 && wn != 0 {
				e.Help(p, info, false)
				if wn != 0 && cn == 0 && p.Load(info+offResult) != RespNone {
					p.Store(info+offDone, 1)
					p.PBarrier(info + offDone)
				}
			} else if some, _ := e.cleanupTags(p, info); some {
				e.Help(p, info, false)
			}
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
	_, _, cn := lens(p.Load(info + offLens))
	for i := pmem.Addr(0); i < pmem.Addr(cn); i++ {
		if p.Load(pmem.Addr(p.Load(info+offCleanup+i))) == Tagged(info) {
			some = true
		} else {
			all = false
		}
	}
	return some, all
}

// Registered reports, via f, the Info record each non-Null register of each
// process names, whatever its CP_q says: every record a recovery may still
// read. Two loads per process.
func (e *Engine) Registered(p *pmem.Proc, f func(pmem.Addr)) {
	for q := 0; q < e.h.NumProcs(); q++ {
		for r := range 2 {
			if info := pmem.Addr(p.Load(e.rd(q, r))); info != pmem.Null {
				f(info)
			}
		}
	}
}

// MarkReachable reports, via mark, every address the engine's recovery
// data can still lead to: for each process, the Info record each non-Null
// register names, whatever its CP_q says, and (conservatively) every word of
// it with the tag bit cleared — AffectSet field addresses, WriteSet addresses
// and values, CleanupSet addresses — plus the records the process's registers
// were last written with and the operands held for cleanups not yet durable,
// its held update's among them, until they retire. The post-crash scan's
// transitive closure follows on from whatever
// those words name. Part of the conservative-scan contract: an announced
// operation's operands survive reclamation even if their retirement was
// recorded, and so do the record and operands of a completed operation whose
// cleanup recovery may still have to finish (Settle), and whatever
// retireLast will still retire.
func (e *Engine) MarkReachable(p *pmem.Proc, mark func(pmem.Addr)) {
	for q := 0; q < e.h.NumProcs(); q++ {
		last := &e.procs[q].last
		for _, a := range [...]pmem.Addr{e.procs[q].kept, last.info[0], last.info[1]} {
			mark(a) // mark ignores Null, as it does every word that names no block
		}
		for _, nd := range last.held[:last.n] {
			mark(nd)
		}
		// The held update's operands: what its release would schedule (step,
		// on a copy of the state).
		if _, a := step(e.recs.procs[q].d, event{kind: evReleased}); a.on == e {
			for _, nd := range a.ops {
				mark(nd)
			}
		}
	}
	e.Registered(p, func(info pmem.Addr) {
		mark(info)
		for w := pmem.Addr(0); w < InfoWords; w++ {
			mark(pmem.Addr(p.Load(info+w) &^ 1))
		}
	})
}

// Boundary closes leg seq-1 of the announced vector and opens leg seq: the
// previous leg's response goes into its result slot (CloseLeg) — for an
// atomic vector, slot 0 stamped is the commit point. The previous leg's
// tracking record retires once the installs on its engine have durably
// overwritten the register naming it (retireLast).
//
// Under Isb the slot is written back at once, and inside a sync scope the
// boundary issues the per-leg psync the deferred intra-leg sync points merged
// into. Under Isb-Opt the boundary defers its psync to the scope's close and
// stores nothing: the response waits Go-side (step's boundary rule) for the
// process's next install, on whichever engine, whose barrier writes it back
// before any tag (step's install rule). No leg takes a durable effect ahead of
// its install barrier, and a read or effect-free leg takes none at all; the
// reclaimer's slab directory and dead bits, which can be written back
// sooner, record no operation's effect. So a crash before that barrier
// completes finds leg seq-1 at the derived cursor, or the slot alone durable
// and leg seq in flight with no effect, and leg seq-1's record still named by
// a register if it installed one (recoverSeq, resolveSeq) — evident by its
// durable tags, so that Settle finishes the update phase the barrier also
// carries (finish) where the slot persisted without it. A slot no later leg installs
// after is never stored: once the admission returns, its durable record's
// cursor sits on its last installing leg, which a register names, so an
// effect-free leg after it needs no install of its own.
func (e *Engine) Boundary(p *pmem.Proc, seq int, prevResp uint64) {
	if e.batched {
		e.step(p, &event{kind: evBoundary, n: seq - 1})
		r := &e.recs.procs[p.ID()]
		r.results = append(r.results, prevResp)
		e.proc(p).batchSyncs++
		return
	}
	CloseLeg(p, seq-1, prevResp)
	if p.InSyncScope() {
		p.PSync()
	}
}

// runBatchOp runs the leg at index seq of an announced vector (Begin). Under
// Isb an engine's first leg raises CP_q exactly like a single operation;
// later legs on the same engine skip that — CP_q is already current, and the
// stale RD_q record is fenced off by the stamp, not by an RD_q := Null
// round-trip — which is where the per-op begin cost goes. CP_q itself is the
// dispatch: Begin raised the admission number, and only an engine's first leg
// stores it into CP_q, in runAttempts' prologue, so a stale CP_q means no
// mutating leg of this vector has raised it on this engine yet (read-only
// legs never enter the engine). Recovery relies on the same invariant: a
// crash with CP_q stale proves the in-flight leg tagged nothing, so
// re-invoking it is safe. Under Isb-Opt every install stores CP_q with RD_q
// (attemptLoop), and there is nothing to dispatch on.
//
// Inside a sync scope (pmem.Proc.OpenSyncScope, which the admitting runtime
// opens around a window under either placement and around a transaction
// under Isb-Opt) the engine's sync points defer — to each Boundary under Isb,
// to the scope's closing psync under Isb-Opt — and write-backs overlap
// clwb-style; both are pure cost/accounting changes — every pwb still
// applies its line write-back synchronously, so the reachable crash states
// are exactly those of the unscoped execution.
func (e *Engine) runBatchOp(p *pmem.Proc, seq int, opType, argKey uint64, gather Gather) uint64 {
	e.proc(p).seq = uint64(seq)
	if !e.batched && p.Load(e.cp(p.ID(), 0)) != Admission(p) {
		return e.runAttempts(p, opType, argKey, gather, 0)
	}
	return e.attemptLoop(p, opType, argKey, gather, 0)
}
