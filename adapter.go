package repro

import (
	"fmt"
	"slices"

	"repro/internal/bst"
	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
)

// core is what the five engine-backed structure packages (list, queue, bst,
// stack, hashmap) share, in encoded response words: the operation surface of
// the isb.Ops each embeds, plus the structure's own zero-persist read, scan
// roots and invariant check.
type core interface {
	Begin(p *pmem.Proc)
	ApplyOp(p *pmem.Proc, kind, arg uint64) uint64
	ReadOnly(kind uint64) bool
	ReadOp(p *pmem.Proc, kind, arg uint64) uint64
	ApplyLeg(p *pmem.Proc, seq int, kind, arg uint64) uint64
	RecoverLeg(p *pmem.Proc, seq int, kind, arg uint64) uint64
	ResolveLeg(p *pmem.Proc, seq int, kind, arg uint64) (uint64, bool)
	MarkReachable(p *pmem.Proc, mark func(pmem.Addr))
	CheckInvariants() string
}

// adapter is embedded by List, Queue, BST, Stack and HashMap: it lifts a
// core onto the Structure protocol (typed Op and Resp, the durable registry
// ID, the arg mask) and hands submit and RecoverAll the core's leg surface.
type adapter struct {
	c    core
	e    *isb.Engine // c's engine
	id   uint64
	kind StructKind
	// argMask, when nonzero, is ANDed onto Op.Arg before it reaches the
	// core (see HashMap.SetArgMask).
	argMask uint64
	// kinds holds one bit per op kind the structure accepts (kindMask).
	kinds uint64
	// maxKey, for a set structure, is its largest user key (userKeys).
	maxKey uint64
}

// adopt registers s — the wrapper embedding a — under the next durable ID and
// binds a to its core c, built on engine e.
func (r *Runtime) adopt(s Structure, a *adapter, c core, e *isb.Engine, kind StructKind) {
	*a = adapter{c: c, e: e, kind: kind, kinds: kindMask(kind), maxKey: userKeys(kind)}
	a.id = r.register(s, kind)
	e.SetAnnounceID(a.id, r.recs)
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
// engine itself — and returns its response. A read-only kind takes the
// zero-persist path: no Info record, no announcement, no pwb, no psync. A
// kind the structure does not accept panics.
func (a *adapter) Apply(p *Proc, op Op) Resp {
	acceptKind(a.kinds, a.id, a.kind, op.Kind)
	a.acceptKey(a.key(op.Arg))
	if a.c.ReadOnly(op.Kind) {
		return respOf(a.c.ReadOp(p, op.Kind, a.key(op.Arg)))
	}
	return respOf(a.c.ApplyOp(p, op.Kind, a.key(op.Arg)))
}

// RecoverOp resolves an interrupted op after a crash: leg 0 of a vector of
// one (isb.Ops.RecoverLeg).
func (a *adapter) RecoverOp(p *Proc, op Op) Resp { return respOf(a.recoverLeg(p, 0, op)) }

// recoverLeg completes the in-flight leg at index seq of p's announced
// vector (isb.Ops.RecoverLeg: read-only kinds by re-execution, the rest
// through the engine's index-guarded recovery).
func (a *adapter) recoverLeg(p *Proc, seq int, op Op) uint64 {
	return a.c.RecoverLeg(p, seq, op.Kind, a.key(op.Arg))
}

// resolveLeg probes whether the leg at index seq took effect, without
// re-invoking it (isb.Ops.ResolveLeg).
func (a *adapter) resolveLeg(p *Proc, seq int, op Op) (uint64, bool) {
	return a.c.ResolveLeg(p, seq, op.Kind, a.key(op.Arg))
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

// kindMask is the set of op kinds a structure of kind k accepts (OpKinds),
// one bit per kind code: every code is below 64.
func kindMask(k StructKind) (mask uint64) {
	for _, ok := range opKinds[k] {
		mask |= 1 << ok.Kind
	}
	return mask
}

// acceptKind panics unless mask (kindMask) holds op kind kind: the structure
// id, of kind k, does not accept it. Every admission checks its legs before
// the begin, so a rejected one leaves no scope open and no number raised.
func acceptKind(mask, id uint64, k StructKind, kind uint64) {
	if kind >= 64 || mask>>kind&1 == 0 {
		panic(fmt.Sprintf("repro: structure %d (%v) accepts no op kind %d", id, k, kind))
	}
}

// userKeys is the largest user key of a set structure of kind k, whose user
// keys are 1..userKeys(k): 0 and the keys above are its sentinels'. Other
// kinds take any argument (0).
func userKeys(k StructKind) uint64 {
	switch k {
	case KindList, KindHashMap:
		return list.MaxKey - 1
	case KindBST:
		return bst.MaxUserKey
	}
	return 0
}

// acceptKey panics if key, an argument after the arg mask, is a set
// structure's reserved key, which its sentinels hold: an operation on it would
// act on a sentinel (an insert of 0 after a delete of 0 never returns). Like
// acceptKind it runs before the begin.
func (a *adapter) acceptKey(key uint64) {
	if a.maxKey != 0 && (key == 0 || key > a.maxKey) {
		panic(fmt.Sprintf("repro: structure %d (%v) reserves key %d: user keys are 1..%d", a.id, a.kind, key, a.maxKey))
	}
}

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
