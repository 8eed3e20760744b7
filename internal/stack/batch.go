package stack

import (
	"repro/internal/exchanger"
	"repro/internal/isb"
	"repro/internal/pmem"
)

// OpTop is the read-only top-of-stack probe, served exclusively by the
// zero-persist read path (it never installs an Info record and never
// visits the elimination layer).
const OpTop uint64 = 22

// ReadOp serves OpTop, the top value without popping it, on the zero-persist
// path: a volatile read of sentinel.next with no Info record, no announcement,
// and no persistence instruction. Linearizes at the load of sentinel.next.
// Nothing durable records the read; a crashed top is simply re-submitted. The
// epoch pin keeps the top node allocated while its value is read (see
// list.FindFast). Panics on a mutating kind.
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

// ApplyBatchOp runs the leg at index seq of an announced vector. Vector legs
// bypass the elimination layer entirely: a collision would complete outside
// the record's cursor protocol. OpTop takes the zero-persist path.
func (s *Stack) ApplyBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpTop {
		return s.ReadOp(p, kind, arg)
	}
	if kind == OpPush {
		return s.e.RunBatchOp(p, seq, OpPush, arg, s.gPush)
	}
	return s.e.RunBatchOp(p, seq, OpPop, arg, s.gPop)
}

// RecoverBatchOp completes the in-flight leg at index seq after a crash. It
// first consults the exchanger's recovery data: if an elimination took
// effect, that outcome stands; otherwise the central stack's ISB recovery
// decides. The exchanger can only describe this leg — the begin sequence
// reset its registers before the announcement existed, and only a single
// operation's elimination attempt (ApplyOp) writes them afterwards — so for a
// window or transaction leg the probe finds nothing and falls through, and so
// does it for an attempt that timed out (partnerless or withdrawn) before the
// operation entered the engine.
// Reads leave no durable trace; recovery re-executes them.
func (s *Stack) RecoverBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpTop {
		return s.ReadOp(p, kind, arg)
	}
	if s.spins > 0 {
		role := exchanger.WaiterOnly
		if kind == OpPop {
			role = exchanger.ColliderOnly
		}
		if v, ok := s.ex.Recover(p, arg, role, 1, false); ok {
			if kind == OpPush {
				return isb.RespTrue
			}
			return isb.EncodeValue(v)
		}
	}
	if kind == OpPush {
		return s.e.RecoverSeq(p, OpPush, arg, uint64(seq), s.gPush)
	}
	return s.e.RecoverSeq(p, OpPop, arg, uint64(seq), s.gPop)
}
