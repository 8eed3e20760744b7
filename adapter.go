package repro

import (
	"slices"

	"repro/internal/isb"
	"repro/internal/pmem"
)

// core is the operation surface the five engine-backed structure packages
// (list, queue, bst, stack, hashmap) share, in encoded response words.
type core interface {
	ApplyOp(p *pmem.Proc, kind, arg uint64) uint64
	ReadOp(p *pmem.Proc, kind, arg uint64) uint64
	ApplyBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64
	RecoverBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64
	Begin(p *pmem.Proc)
	MarkReachable(p *pmem.Proc, mark func(pmem.Addr))
	CheckInvariants() string
}

// adapter is embedded by List, Queue, BST, Stack and HashMap: it lifts a
// core onto the Structure protocol (typed Op and Resp, the durable registry
// ID) and onto the leg surface submit and RecoverAll drive.
type adapter struct {
	c    core
	e    *isb.Engine // c's engine
	id   uint64
	kind StructKind
	// read is the structure's one read-only kind, served on the zero-persist
	// path (see OpKind.ReadOnly).
	read uint64
	// argMask, when nonzero, is ANDed onto Op.Arg before it reaches the
	// core (see HashMap.SetArgMask).
	argMask uint64
}

// adopt registers s — the wrapper embedding a — under the next durable ID and
// binds a to its core c, built on engine e.
func (r *Runtime) adopt(s Structure, a *adapter, c core, e *isb.Engine, kind StructKind, read uint64) {
	*a = adapter{c: c, e: e, kind: kind, read: read}
	a.id = r.register(s, kind)
	e.SetAnnounceID(a.id)
}

// admitter is what ApplyWindow, ApplyTxn and EngineCounters require of a
// Structure: every structure but the exchanger.
type admitter interface{ adapt() *adapter }

func (a *adapter) adapt() *adapter { return a }

// ID is the structure's durable registry ID.
func (a *adapter) ID() uint64 { return a.id }

// Kind reports the structure's registered type.
func (a *adapter) Kind() StructKind { return a.kind }

// key applies the configured arg mask.
func (a *adapter) key(arg uint64) uint64 {
	if a.argMask != 0 {
		return arg & a.argMask
	}
	return arg
}

// Apply runs op to completion — a vector of one leg, announced by the
// engine itself — and returns its response. The structure's read-only kind
// takes the zero-persist path: no Info record, no announcement, no pwb, no
// psync.
func (a *adapter) Apply(p *Proc, op Op) Resp {
	if op.Kind == a.read {
		return respOf(a.c.ReadOp(p, op.Kind, a.key(op.Arg)))
	}
	return respOf(a.c.ApplyOp(p, op.Kind, a.key(op.Arg)))
}

// RecoverOp resolves an interrupted op after a crash.
func (a *adapter) RecoverOp(p *Proc, op Op) Resp { return respOf(a.recoverLeg(p, 0, op)) }

// recoverLeg completes the in-flight leg at index seq of p's announced
// vector: read-only kinds by re-execution (no later leg ran, and the read
// left no durable trace), mutating kinds through the engine's index-guarded
// recovery.
func (a *adapter) recoverLeg(p *Proc, seq int, op Op) uint64 {
	return a.c.RecoverBatchOp(p, seq, op.Kind, a.key(op.Arg))
}

// resolveLeg probes whether the leg at index seq took effect, without
// re-invoking it (see isb.Engine.ResolveSeq). A read-only leg never did: its
// zero-persist execution changes nothing and leaves no record to probe.
func (a *adapter) resolveLeg(p *Proc, seq int, op Op) (uint64, bool) {
	if op.Kind == a.read {
		return 0, false
	}
	return a.e.ResolveSeq(p, op.Kind, a.key(op.Arg), uint64(seq))
}

// Begin is the system-side invocation step used by crash harnesses.
func (a *adapter) Begin(p *Proc) { a.c.Begin(p) }

// MarkReachable reports the structure's reachable nodes to the post-crash
// reclamation scan (see Runtime.RecoverAll).
func (a *adapter) MarkReachable(p *Proc, mark func(pmem.Addr)) { a.c.MarkReachable(p, mark) }

// CheckInvariants verifies the structure's invariants at quiescence,
// returning a description of the first violation, or "".
func (a *adapter) CheckInvariants() string { return a.c.CheckInvariants() }

// OpKinds reports the operation kinds the structure accepts.
func (a *adapter) OpKinds() []OpKind { return slices.Clone(opKinds[a.kind]) }

// opKinds is the OpKinds table.
var opKinds = map[StructKind][]OpKind{
	KindList:      setKinds,
	KindBST:       setKinds,
	KindHashMap:   setKinds,
	KindQueue:     {{Kind: OpEnq, Name: "enqueue"}, {Kind: OpDeq, Name: "dequeue"}, {Kind: OpPeek, Name: "peek", ReadOnly: true}},
	KindStack:     {{Kind: OpPush, Name: "push"}, {Kind: OpPop, Name: "pop"}, {Kind: OpTop, Name: "top", ReadOnly: true}},
	KindExchanger: {{Kind: OpExchange, Name: "exchange"}},
}

var setKinds = []OpKind{
	{Kind: OpInsert, Name: "insert"},
	{Kind: OpDelete, Name: "delete"},
	{Kind: OpFind, Name: "find", ReadOnly: true},
}
