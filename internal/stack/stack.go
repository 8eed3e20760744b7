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

// Operation kinds for recovery and the crash harness.
const (
	OpPush uint64 = 20
	OpPop  uint64 = 21
)

// bottomMark identifies the bottom sentinel; user values must be smaller.
const bottomMark uint64 = 1<<64 - 1

// MaxValue bounds user values.
const MaxValue uint64 = 1<<64 - 2

// DefaultElimSpins is the default elimination window (retry iterations on
// the exchanger before falling back to the central stack).
const DefaultElimSpins = 24

// Stack is a detectably recoverable LIFO stack of uint64 values.
type Stack struct {
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
	if elimSpins > 0 {
		// Wherever CP_q resets, CP_ex resets with it: every announced leg on
		// this stack — single, window or transaction — may consult both.
		e.OnReset(s.ex.Reset)
	}
	p := h.Proc(0)
	bottom := newNode(e, p, bottomMark, pmem.Null, 0)
	s.sentinel = newNode(e, p, 0, bottom, 0)
	p.PBarrierRange(bottom, nodeWords)
	p.PBarrierRange(s.sentinel, nodeWords)
	p.PSync()
	s.gPush = s.gatherPush
	s.gPop = s.gatherPop
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

// Begin is the system-side invocation step for both recovery registers (the
// exchanger's resets through the engine's OnReset hook).
func (s *Stack) Begin(p *pmem.Proc) { s.e.Begin(p, false, nil) }

// ApplyOp runs the operation described by (kind, arg) and returns its
// encoded response (RespTrue for push; RespEmpty or a value for pop).
//
// With elimination enabled the operation can take effect outside the
// engine (a collision never reaches the central stack), so its
// announcement must exist before Exchange runs — and every recovery
// register the announcement could be routed to must reset before the
// announcement exists, or a previous operation's outcome would be read as
// this one's. The engine's begin sequence provides exactly that order
// (retire the old announcement, CP_q := 0 and, through OnReset, CP_ex := 0 —
// Exchange's own internal Begin runs too late to provide this — then
// announce), so it runs here, ahead of the exchange; RunOp's own runs it
// again if the elimination falls through.
func (s *Stack) ApplyOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind == OpTop {
		return s.ReadOp(p, kind, arg)
	}
	if s.spins > 0 {
		s.e.Begin(p, false, []pmem.Leg{{StructID: s.e.AnnounceID(), Kind: kind, Arg: arg}})
		if kind == OpPush {
			if _, ok := s.ex.Exchange(p, arg, exchanger.WaiterOnly, s.spins); ok {
				return isb.RespTrue // eliminated by a pop
			}
		} else {
			if v, ok := s.ex.Exchange(p, 0, exchanger.ColliderOnly, s.spins); ok {
				return isb.EncodeValue(v) // eliminated a concurrent push
			}
		}
	}
	if kind == OpPush {
		return s.e.RunOp(p, OpPush, arg, s.gPush)
	}
	return s.e.RunOp(p, OpPop, arg, s.gPop)
}

// RecoverOp resumes an interrupted Push or Pop after a crash, returning the
// encoded response (RespTrue for push; RespEmpty or a value for pop).
func (s *Stack) RecoverOp(p *pmem.Proc, kind, arg uint64) uint64 {
	return s.RecoverBatchOp(p, 0, kind, arg)
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
