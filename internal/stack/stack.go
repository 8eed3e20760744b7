// Package stack implements a detectably recoverable elimination stack: the
// paper's ISB-tracking applied to a Treiber-style central stack, combined
// (per Section 1) with elimination through the detectably recoverable
// exchanger of Section 6.
//
// Central stack. The stack is a linked chain hanging off a sentinel node,
// terminated by a bottom sentinel — exactly the recoverable linked list
// specialized to position zero. Push replaces the current top with a fresh
// node whose successor is a fresh *copy* of the old top (the old top
// retires, staying tagged forever), so the sentinel's next field never
// holds the same address twice; Pop unlinks the top, whose successor is
// always such a fresh copy. That discharges the ABA assumption without
// version counters.
//
// Elimination. Before touching the central stack, a Push offers its value
// on the exchanger as a waiter and a Pop tries to collide as a collider
// (asymmetric roles prevent push/push pairing). A successful exchange
// eliminates the pair: the pop returns the push's value and neither touches
// the central stack. Each side's outcome is detectable through the
// exchanger's own recovery data; if the elimination provably had no effect,
// recovery falls through to the central stack's ISB recovery.
package stack

import (
	"repro/internal/exchanger"
	"repro/internal/isb"
	"repro/internal/pmem"
)

// Node field offsets (words); 4-word allocations.
const (
	nVal  = 0
	nNext = 1
	nInfo = 2

	nodeWords = 4
)

// Operation kinds for recovery and the crash harness. OpTop, the read-only
// top-of-stack probe, is served exclusively by the zero-persist read path (it
// never installs an Info record and never visits the elimination layer).
const (
	OpPush uint64 = 20
	OpPop  uint64 = 21
	OpTop  uint64 = 22
)

// bottomMark identifies the bottom sentinel; user values must be smaller.
const bottomMark uint64 = 1<<64 - 1

// MaxValue bounds user values.
const MaxValue uint64 = 1<<64 - 2

// DefaultElimSpins is the default elimination window (retry iterations on
// the exchanger before falling back to the central stack).
const DefaultElimSpins = 24

// Stack is a detectably recoverable LIFO stack of uint64 values. Its
// operation surface is the embedded isb.Ops, with the exchanger as its
// elimination layer.
type Stack struct {
	isb.Ops
	h        *pmem.Heap
	e        *isb.Engine
	ex       *exchanger.Exchanger
	sentinel pmem.Addr
	spins    int

	gPush, gPop isb.Gather
}

// NewWithEngine builds an empty stack on engine e. elimSpins ≤ 0 disables
// elimination.
func NewWithEngine(h *pmem.Heap, e *isb.Engine, elimSpins int) *Stack {
	s := &Stack{h: h, e: e, ex: exchanger.New(h), spins: elimSpins}
	p := h.Proc(0)
	bottom := newNode(e, p, bottomMark, pmem.Null, 0)
	s.sentinel = newNode(e, p, 0, bottom, 0)
	p.PBarrierRange(bottom, nodeWords)
	p.PBarrierRange(s.sentinel, nodeWords)
	p.PSync()
	s.gPush = s.gatherPush
	s.gPop = s.gatherPop
	s.Ops = isb.NewOps(e, s.gather, s.ReadOp, OpTop)
	if elimSpins > 0 {
		s.SetElimination(s.eliminate, s.probe)
	}
	return s
}

// newNode draws a node from the engine's allocator (arena by default, the
// epoch reclaimer when the runtime enables reclamation).
func newNode(e *isb.Engine, p *pmem.Proc, val uint64, next pmem.Addr, info uint64) pmem.Addr {
	nd := e.Alloc(p, nodeWords)
	p.Store(nd+nVal, val)
	p.Store(nd+nNext, uint64(next))
	p.Store(nd+nInfo, info)
	return nd
}

// gather maps an operation kind to its gather function; OpTop has none.
func (s *Stack) gather(kind, _ uint64) isb.Gather {
	switch kind {
	case OpPush:
		return s.gPush
	case OpTop:
		return nil
	default:
		return s.gPop
	}
}

// ReadOp serves OpTop, the top value without popping it, on the zero-persist
// path: a volatile read of sentinel.next with no Info record, no announcement,
// and no persistence instruction. Linearizes at the load of sentinel.next.
// Nothing durable records the read; a crashed top is simply re-submitted. The
// epoch pin keeps the top node allocated while its value is read (see
// list.ReadOp). Panics on a mutating kind.
func (s *Stack) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind != OpTop {
		panic("stack: ReadOp on a mutating kind")
	}
	a := s.e.Allocator()
	a.Enter(p)
	top := pmem.Addr(p.Load(s.sentinel + nNext))
	val := p.Load(top + nVal)
	a.Exit(p)
	s.e.NoteReadFast(p)
	if val == bottomMark {
		return isb.RespEmpty
	}
	return isb.EncodeValue(val)
}

// eliminate is a single operation's elimination step: it offers the
// operation on the exchanger, a push as a waiter and a pop as a collider; ok
// reports a collision, which is the operation's effect. It can take effect
// outside the engine, so the operation's announcement must exist before it
// runs — and every recovery register the announcement could be routed to must
// be stale until then, or a previous operation's outcome would be read as
// this one's. The begin provides both at once: its one write-back publishes
// the announcement and raises the admission number that CP_q and CP_ex are
// read against, which is why isb.Ops runs this after Begin, and why the
// exchange runs under that admission (Offer) instead of beginning its own. An
// exchange that times out enters the engine under the same announcement: it
// left its exchanger record partnerless or withdrawn, which probe reads as no
// effect.
func (s *Stack) eliminate(p *pmem.Proc, kind, arg uint64) (uint64, bool) {
	if kind == OpPush {
		_, ok := s.ex.Offer(p, arg, exchanger.WaiterOnly, s.spins)
		return isb.RespTrue, ok // eliminated by a pop
	}
	v, ok := s.ex.Offer(p, 0, exchanger.ColliderOnly, s.spins)
	return isb.EncodeValue(v), ok // eliminated a concurrent push
}

// probe is recovery's first step for a push or pop: it consults the
// exchanger's recovery data, and ok reports an elimination that took effect,
// whose outcome stands; otherwise the central stack's ISB recovery decides.
// The exchanger can only describe this leg — the begin's raise of the
// admission number made its registers stale, and only a single operation's
// elimination step writes them afterwards — so for a window or transaction
// leg the probe finds nothing and falls through, and so does it for an
// attempt that timed out before the operation entered the engine.
func (s *Stack) probe(p *pmem.Proc, kind, arg uint64) (uint64, bool) {
	role := exchanger.WaiterOnly
	if kind == OpPop {
		role = exchanger.ColliderOnly
	}
	v, ok := s.ex.Recover(p, arg, role, 1, false)
	if kind == OpPush {
		return isb.RespTrue, ok
	}
	return isb.EncodeValue(v), ok
}

// gatherPush: AffectSet = (sentinel, top); WriteSet = {sentinel.next:
// top → new node}; NewSet = {new node, copy of top}. The old top retires.
func (s *Stack) gatherPush(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	sentInfo := p.Load(s.sentinel + nInfo)
	top := pmem.Addr(p.Load(s.sentinel + nNext))
	topInfo := p.Load(top + nInfo)
	tagged := isb.Tagged(info)
	topCopy := newNode(s.e, p, p.Load(top+nVal), pmem.Addr(p.Load(top+nNext)), tagged)
	newnd := newNode(s.e, p, spec.ArgKey, topCopy, tagged)
	spec.AddAffect(s.sentinel+nInfo, sentInfo)
	spec.AddAffect(top+nInfo, topInfo) // retires on success
	spec.AddWrite(s.sentinel+nNext, uint64(top), uint64(newnd))
	spec.AddCleanup(s.sentinel + nInfo)
	spec.AddCleanup(newnd + nInfo)
	spec.AddCleanup(topCopy + nInfo)
	spec.AddPersist(newnd, nodeWords)
	spec.AddPersist(topCopy, nodeWords)
	spec.SuccessResponse = isb.RespTrue
	return isb.Proceed
}

// gatherPop: AffectSet = (sentinel, top); WriteSet = {sentinel.next:
// top → top.next}. Empty (top is the bottom sentinel) is read-only.
func (s *Stack) gatherPop(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
	sentInfo := p.Load(s.sentinel + nInfo)
	top := pmem.Addr(p.Load(s.sentinel + nNext))
	topInfo := p.Load(top + nInfo)
	if p.Load(top+nVal) == bottomMark {
		spec.AddAffect(top+nInfo, topInfo)
		spec.AddCleanup(top + nInfo)
		spec.ReadOnly = true
		spec.Response = isb.RespEmpty
		return isb.Proceed
	}
	spec.AddAffect(s.sentinel+nInfo, sentInfo)
	spec.AddAffect(top+nInfo, topInfo) // retires on success
	spec.AddWrite(s.sentinel+nNext, uint64(top), p.Load(top+nNext))
	spec.AddCleanup(s.sentinel + nInfo)
	spec.SuccessResponse = isb.EncodeValue(p.Load(top + nVal))
	return isb.Proceed
}

// MarkReachable reports every node on the chain from the sentinel to the
// post-crash reclamation scan (the scan's transitive closure follows
// tagged info fields and record-referenced copies from there). It marks
// and nothing else: the stack keeps no volatile hint word.
func (s *Stack) MarkReachable(p *pmem.Proc, mark func(pmem.Addr)) {
	mark(s.sentinel)
	curr := pmem.Addr(p.Load(s.sentinel + nNext))
	for {
		mark(curr)
		if p.Load(curr+nVal) == bottomMark {
			return
		}
		curr = pmem.Addr(p.Load(curr + nNext))
	}
}

// Values snapshots the stack top-to-bottom (test helper; quiescence).
func (s *Stack) Values() []uint64 {
	var out []uint64
	h := s.h
	curr := pmem.Addr(h.ReadVolatile(s.sentinel + nNext))
	for {
		v := h.ReadVolatile(curr + nVal)
		if v == bottomMark {
			return out
		}
		out = append(out, v)
		curr = pmem.Addr(h.ReadVolatile(curr + nNext))
	}
}

// CheckInvariants validates the chain at quiescence.
func (s *Stack) CheckInvariants() string {
	h := s.h
	if isb.IsTagged(h.ReadVolatile(s.sentinel + nInfo)) {
		return "sentinel tagged at quiescence"
	}
	curr := pmem.Addr(h.ReadVolatile(s.sentinel + nNext))
	steps := 0
	for {
		if curr == pmem.Null {
			return "fell off the stack before the bottom sentinel"
		}
		if isb.IsTagged(h.ReadVolatile(curr + nInfo)) {
			return "live stack node tagged at quiescence"
		}
		if h.ReadVolatile(curr+nVal) == bottomMark {
			return ""
		}
		curr = pmem.Addr(h.ReadVolatile(curr + nNext))
		if steps++; steps > 1<<24 {
			return "cycle suspected"
		}
	}
}
