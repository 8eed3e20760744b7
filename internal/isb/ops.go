package isb

import (
	"slices"

	"repro/internal/pmem"
)

// Ops is the operation surface every engine-backed structure embeds: the
// dispatch around the engine, written once. A single operation is an
// announced vector of one leg, so one set of leg entry points serves single
// operations, batch windows and transactions alike, and the paper's
// Op-Recover (Algorithm 2) is one generic procedure parameterised only by the
// structure's gather. A structure supplies what is its own: its gather
// lookup, its zero-persist read and which of its kinds are reads, and — the
// elimination stack only — an elimination step and its probe
// (SetElimination).
//
// One read rule holds on every leg: a read-only kind runs the zero-persist
// read, and recovery re-executes it. ApplyOp alone still runs a read through
// the engine when the structure has a gather for it — the paper's tracked
// Find (Algorithm 3, and the BST's AffectSet = ∅ Find).
type Ops struct {
	e *Engine
	// gather maps an operation to its gather function, or to nil for a kind
	// the engine never runs (a read with no tracked form: the queue's peek,
	// the stack's top).
	gather func(kind, arg uint64) Gather
	// read serves the kinds in reads on the zero-persist path.
	read  func(p *pmem.Proc, kind, arg uint64) uint64
	reads []uint64
	// eliminate and probe are the elimination stack's (see SetElimination).
	eliminate, probe func(p *pmem.Proc, kind, arg uint64) (uint64, bool)
}

// NewOps binds the surface to engine e: gather is the structure's gather
// lookup, read its zero-persist read, and reads its read-only kinds.
func NewOps(e *Engine, gather func(kind, arg uint64) Gather, read func(p *pmem.Proc, kind, arg uint64) uint64, reads ...uint64) Ops {
	return Ops{e: e, gather: gather, read: read, reads: reads}
}

// SetElimination adds an elimination layer in front of the engine, which a
// single operation tries between Begin and the engine: eliminate is the
// attempt (ok reports it took effect, with that response) and probe
// recovery's check whether it did. The layer's recovery registers must hold
// the admission number, as CP_q does, so that the begin resets them too and
// a previous operation's outcome is never read as this one's (Engine.Begin).
// Vector legs never eliminate: a collision would complete outside the
// record's result-slot protocol, and ahead of the install barrier that makes
// the previous leg's slot durable. Call before any operation runs.
func (o *Ops) SetElimination(eliminate, probe func(p *pmem.Proc, kind, arg uint64) (uint64, bool)) {
	o.eliminate, o.probe = eliminate, probe
}

// ReadOnly reports whether kind is one of the structure's read-only kinds.
func (o *Ops) ReadOnly(kind uint64) bool { return slices.Contains(o.reads, kind) }

// Begin is the system-side invocation step of the paper's model (CP_q := 0,
// here the raise of the admission number every CP register is read against):
// a bare begin, announcing nothing, and eager under both placements — one
// write-back and one psync — so the previous record is retired durably
// before the invocation it precedes. A crash harness runs it before each
// invocation; standalone callers need not, since ApplyOp begins on entry.
func (o *Ops) Begin(p *pmem.Proc) { o.e.Begin(p, false, nil) }

// ApplyOp runs one operation to completion and returns its encoded response:
// a vector of one leg, announced by the begin sequence, then the elimination
// step if one is set — the announcement is durable before it can take effect,
// and a timed-out attempt enters the engine under the same announcement —
// then leg 0 through the engine (runOp). A kind with no gather takes the
// zero-persist read instead. Under Isb-Opt without elimination the
// operation's sync scope opens ahead of the begin, whose record then rides
// the install barrier (Engine.Begin); the elimination step needs the eager
// begin.
func (o *Ops) ApplyOp(p *pmem.Proc, kind, arg uint64) uint64 {
	g := o.gather(kind, arg)
	if g == nil {
		return o.read(p, kind, arg)
	}
	if o.e.batched && o.eliminate == nil {
		p.OpenSyncScope()
	}
	o.e.Begin(p, false, []pmem.Leg{{StructID: o.e.annID, Kind: kind, Arg: arg}})
	if o.eliminate != nil {
		if r, ok := o.eliminate(p, kind, arg); ok {
			return r
		}
	}
	return o.e.runOp(p, kind, arg, g)
}

// ApplyLeg runs the leg at index seq of p's announced vector (Engine.Begin)
// and returns its encoded response: a read-only kind on the zero-persist path
// — it still occupies its position, and its response is stamped into its
// result slot at the next boundary — and any other kind through the engine's
// leg driver (runBatchOp).
func (o *Ops) ApplyLeg(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if o.ReadOnly(kind) {
		return o.read(p, kind, arg)
	}
	return o.e.runBatchOp(p, seq, kind, arg, o.gather(kind, arg))
}

// RecoverLeg is the operation's recovery function for the leg at index seq
// of p's announced vector (0 for a single operation): called after a crash
// with the kind and argument the interrupted leg had, possibly several times,
// it returns the leg's response. A read-only kind is re-executed — it left no
// durable trace, and no later leg ran — once recovery has torn down the sync
// scope the crash interrupted and finished the cleanups it cut short
// (Engine.Settle), as the engine's recovery does: an Isb-Opt update's cleanup
// may have been waiting for the read's install barrier. Any other kind is
// probed on the elimination layer, if one is set — an elimination that took
// effect stands — and otherwise recovered through the engine's index-guarded
// Op-Recover (recoverSeq).
func (o *Ops) RecoverLeg(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if o.ReadOnly(kind) {
		p.ResetSyncScope()
		o.e.Settle(p)
		return o.read(p, kind, arg)
	}
	if o.probe != nil {
		if r, ok := o.probe(p, kind, arg); ok {
			return r
		}
	}
	return o.e.recoverSeq(p, kind, arg, uint64(seq), o.gather(kind, arg))
}

// ResolveLeg probes whether the leg at index seq took effect, without
// re-invoking it (see resolveSeq): the decision point of an uncommitted
// atomic vector's recovery. A read-only leg never did: its zero-persist
// execution changes nothing and leaves no record to probe.
func (o *Ops) ResolveLeg(p *pmem.Proc, seq int, kind, arg uint64) (uint64, bool) {
	if o.ReadOnly(kind) {
		return 0, false
	}
	return o.e.resolveSeq(p, kind, arg, uint64(seq))
}
