package repro

import (
	"fmt"

	"repro/internal/isb"
	"repro/internal/pmem"
	"repro/internal/txn"
)

// TxnClass re-exports the transaction recovery classification (see
// internal/txn.Class): exactly one of TxnNoEffect, TxnLeg2Recovered or
// TxnCompleted per recovered transaction.
type TxnClass = txn.Class

const (
	// TxnNoEffect: the commit point was unset and leg 1 provably did not
	// apply — neither structure changed; re-submit the whole transaction.
	TxnNoEffect = txn.ClassNoEffect
	// TxnLeg2Recovered: leg 1's effect is durable and leg 2 was re-driven
	// idempotently; both responses are reported.
	TxnLeg2Recovered = txn.ClassLeg2Recovered
	// TxnCompleted: the transaction finished before the crash; both
	// responses were read back from the durable result slots.
	TxnCompleted = txn.ClassCompleted
)

// TxnLeg names one leg of a two-structure transaction: the structure it
// runs on and the operation to apply there. With ArgFromLeg1 (only valid
// on leg 2) the leg's effective argument is leg 1's response value instead
// of Op.Arg — the dequeue-then-insert handoff shape; when leg 1 carries no
// value (dequeue on empty), the leg is elided and answers Resp.Skipped().
type TxnLeg struct {
	S           Structure
	Op          Op
	ArgFromLeg1 bool
}

// TxnLegReport is one leg's entry in a recovered transaction: where it
// ran, the announced operation, its status, and — unless the whole
// transaction was no-effect — its response.
type TxnLegReport struct {
	StructID uint64
	Op       Op
	Resp     Resp
	Status   OpStatus
}

// TxnReport is the transaction part of a ProcReport: the recovery class
// and both legs. For TxnNoEffect neither leg has a meaningful response
// (the caller re-submits the transaction); otherwise leg responses are
// exactly what the crash-free execution would have returned.
type TxnReport struct {
	Class TxnClass
	Legs  [2]TxnLegReport
}

// BeginTxn is the system-side invocation step for transactions, the
// ApplyTxn counterpart of Structure.Begin: it durably retires the previous
// operation's announcement (single, batch or transaction), so any
// RecoverAll report entry for p is the CURRENT transaction's — without it,
// a crash between a completed ApplyTxn and the next one re-reports the
// previous transaction's idempotent re-confirmation, indistinguishable
// from the in-flight one when two consecutive transactions are identical.
// Callers that thread unique identity through their leg arguments (the
// serve layer's request IDs, the task queue's attempt counters) can skip
// it and reject stale reports by identity instead.
func (r *Runtime) BeginTxn(p *Proc) {
	p.ClearAnnounce()
	p.PSync()
}

// ApplyTxn runs a two-structure transaction: leg 1 to its ISB completion,
// a durable commit point, then leg 2; both responses are returned in leg
// order. The whole admission — CP resets on every involved engine plus ONE
// durable transaction announcement naming both legs — rides a single
// psync, exactly like a batch window's begin. Under EngineIsbOpt the rest of
// the transaction is one sync scope, as a batch window is: both legs' sync
// points defer to a single psync after leg 2's result slot, so a
// transaction costs the two psyncs a window costs; the commit point between
// the legs is a synchronous pwb under both engines. EngineIsb keeps the
// written placement, every leg psync where Algorithms 1–2 put it.
//
// The crash contract (see RecoverAll and TxnReport): a crashed transaction
// resolves into exactly one of three classes — no-effect (leg 1 provably
// not applied, commit unset: neither structure changed, re-submit),
// leg-2-recovered (leg 1 durable; leg 2 re-driven idempotently through the
// engine's sequence-guarded recovery), or completed (both responses read
// back from durable result slots). Cross-structure atomicity is one-sided
// by construction, like the paper's per-op detectability: after recovery
// completes, leg 1's effect is present iff the commit point is set, and
// leg 2's effect then exists exactly once — never leg 1 without leg 2.
//
// Both legs must be batchable structures (every structure but the
// exchanger). Legs may target the same structure (same-map moves): the
// engine is reset once and the legs' tracking records are fenced apart by
// sequence stamps. Read-only leg kinds run on the zero-persist path and
// re-execute on recovery, exactly as in batches.
func (r *Runtime) ApplyTxn(p *Proc, leg1, leg2 TxnLeg) (Resp, Resp) {
	ba1, ok1 := leg1.S.(batchApplier)
	ba2, ok2 := leg2.S.(batchApplier)
	if !ok1 || !ok2 {
		panic("repro: ApplyTxn requires batchable structures")
	}
	if leg1.ArgFromLeg1 {
		panic("repro: ArgFromLeg1 is only meaningful on leg 2")
	}
	var flags uint64
	if leg2.ArgFromLeg1 {
		flags |= txn.FlagArgFromLeg1
	}
	e1, e2 := ba1.engine(), ba2.engine()
	// Begin sequence, ordering as in BeginOpFor: durably clear the old
	// announcement FIRST (once a CP resets, a stale announcement would
	// re-invoke a completed operation), reset every involved engine's CP,
	// then publish the transaction record — durable before any effect —
	// all under one psync.
	p.ClearAnnounce()
	e1.BeginTxnLeg(p)
	if e2 != e1 {
		e2.BeginTxnLeg(p)
	}
	p.AnnounceTxn(
		pmem.TxnLeg{StructID: leg1.S.ID(), Kind: leg1.Op.Kind, Arg: leg1.Op.Arg},
		pmem.TxnLeg{StructID: leg2.S.ID(), Kind: leg2.Op.Kind, Arg: leg2.Op.Arg},
		flags,
	)
	p.PSync()
	scoped := e1.Batched()
	if scoped {
		p.OpenSyncScope()
	}

	raw1 := ba1.applyBatchOp(p, txn.Leg1Seq, leg1.Op.Kind, leg1.Op.Arg)
	p.SetTxnResult(0, raw1)
	p.CommitTxn()

	arg2, skip := txn.DeriveLeg2Arg(leg2.Op.Arg, flags, raw1)
	raw2 := isb.RespSkipped
	if !skip {
		raw2 = ba2.applyBatchOp(p, txn.Leg2Seq, leg2.Op.Kind, arg2)
	}
	p.SetTxnResult(1, raw2)
	if scoped {
		p.CloseSyncScope()
	}
	return respOf(raw1), respOf(raw2)
}

// txnLegStruct resolves one announced leg to its registered structure's
// batch surface, panicking on a corrupt registry exactly as the batch path
// does.
func (r *Runtime) txnLegStruct(id int, sid uint64) batchApplier {
	s := r.Structure(sid)
	if s == nil {
		panic(fmt.Sprintf("repro: txn announcement for unregistered structure %d (proc %d)", sid, id))
	}
	ba, ok := s.(batchApplier)
	if !ok {
		panic(fmt.Sprintf("repro: txn announcement for non-batchable structure %d (proc %d)", sid, id))
	}
	return ba
}

// recoverTxn resolves process id's crashed transaction, if its persistent
// transaction announcement validates. The durable commit point partitions
// the cases:
//
//   - Uncommitted: leg 2 provably never started (execution commits
//     strictly before leg 2's first access). Leg 1's durable result slot,
//     or failing that its sequence-stamped tracking record, decides
//     whether leg 1 applied. Not applied → TxnNoEffect (nothing changed;
//     the caller re-submits). Applied → roll FORWARD: persist the result,
//     set the commit point, and fall through to the committed case — the
//     transaction may never half-exist once recovery completes.
//   - Committed, leg 2's result slot empty: re-derive leg 2's argument
//     from the durable leg-1 response and re-drive it through the engine's
//     sequence-guarded recovery (idempotent; further crashes re-enter
//     here) → TxnLeg2Recovered.
//   - Committed, both slots durable: TxnCompleted — answer from the slots.
//
// The report's Op/Resp mirror leg 1 for TxnNoEffect (the operation whose
// re-submission the caller owes) and leg 2 otherwise.
func (r *Runtime) recoverTxn(id int) (ProcReport, bool) {
	p := r.h.Proc(id)
	l1, l2, flags, committed, ok := p.TxnAnnouncement()
	if !ok {
		return ProcReport{}, false
	}
	ba1 := r.txnLegStruct(id, l1.StructID)
	ba2 := r.txnLegStruct(id, l2.StructID)
	op1 := Op{Kind: l1.Kind, Arg: l1.Arg}
	op2 := Op{Kind: l2.Kind, Arg: l2.Arg}
	rep := ProcReport{Proc: id, Txn: &TxnReport{}}
	rep.Txn.Legs[0] = TxnLegReport{StructID: l1.StructID, Op: op1}
	rep.Txn.Legs[1] = TxnLegReport{StructID: l2.StructID, Op: op2}

	if !committed {
		// A nonzero result slot was written by THIS transaction (the slots
		// were durably zeroed before the record became valid), so it alone
		// proves leg 1 applied — covering read-only legs, whose zero-persist
		// execution leaves no tracking record to probe.
		raw1 := p.TxnResult(0)
		if raw1 == 0 && !readOnlyKind(ba1.Kind(), op1.Kind) {
			raw1, _ = ba1.engine().ResolveSeq(p, op1.Kind, ba1.legKey(op1.Arg), txn.Leg1Seq)
		}
		if raw1 == 0 {
			rep.Txn.Class = TxnNoEffect
			rep.Txn.Legs[0].Status = OpNoEffect
			rep.Txn.Legs[1].Status = OpNoEffect
			rep.StructID = l1.StructID
			rep.Op = op1
			return rep, true
		}
		p.SetTxnResult(0, raw1)
		p.CommitTxn()
	}

	raw1 := p.TxnResult(0)
	rep.Txn.Legs[0].Resp = respOf(raw1)
	rep.Txn.Legs[0].Status = OpCompleted

	raw2 := p.TxnResult(1)
	if raw2 != 0 {
		rep.Txn.Class = TxnCompleted
		rep.Txn.Legs[1].Status = OpCompleted
	} else {
		rep.Txn.Class = TxnLeg2Recovered
		rep.Txn.Legs[1].Status = OpInFlight
		arg2, skip := txn.DeriveLeg2Arg(op2.Arg, flags, raw1)
		if skip {
			raw2 = isb.RespSkipped
		} else {
			raw2 = ba2.recoverBatchOp(p, txn.Leg2Seq, op2.Kind, arg2)
		}
		p.SetTxnResult(1, raw2)
	}
	rep.Txn.Legs[1].Resp = respOf(raw2)
	rep.StructID = l2.StructID
	rep.Op = op2
	rep.Resp = respOf(raw2)
	return rep, true
}
