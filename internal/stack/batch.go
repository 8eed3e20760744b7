package stack

import (
	"repro/internal/isb"
	"repro/internal/pmem"
)

// OpTop is the read-only top-of-stack probe, served exclusively by the
// zero-persist read path (it never installs an Info record and never
// visits the elimination layer).
const OpTop uint64 = 22

// TopFast returns the top value without popping it: a volatile read of
// sentinel.next with no Info record, no announcement, and no persistence
// instruction. Linearizes at the load of sentinel.next. Nothing durable
// records the read; a crashed top is simply re-submitted. The epoch pin
// keeps the top node allocated while its value is read (see
// list.FindFast).
func (s *Stack) TopFast(p *pmem.Proc) (v uint64, ok bool) {
	a := s.e.Allocator()
	a.Enter(p)
	top := pmem.Addr(p.Load(s.sentinel + nNext))
	val := p.Load(top + nVal)
	a.Exit(p)
	s.e.NoteReadFast(p)
	if val == bottomMark {
		return 0, false
	}
	return val, true
}

// Top is the typed convenience wrapper over the OpTop fast path.
func (s *Stack) Top(p *pmem.Proc) (v uint64, ok bool) {
	return s.TopFast(p)
}

// ReadOp serves a read-only operation kind on the zero-persist path.
// Panics on a mutating kind.
func (s *Stack) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind != OpTop {
		panic("stack: ReadOp on a mutating kind")
	}
	v, ok := s.TopFast(p)
	if !ok {
		return isb.RespEmpty
	}
	return isb.EncodeValue(v)
}

// ApplyBatchOp runs one operation at position seq inside an open batch
// window. Batched pushes and pops bypass the elimination layer entirely:
// the batch announcement replaces the per-op announcement the exchanger's
// recovery routing depends on, and collisions would complete outside the
// batch record's cursor protocol. OpTop takes the zero-persist path.
func (s *Stack) ApplyBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpTop {
		return s.ReadOp(p, kind, arg)
	}
	if kind == OpPush {
		return s.e.RunBatchOp(p, seq, OpPush, arg, s.gPush)
	}
	return s.e.RunBatchOp(p, seq, OpPop, arg, s.gPop)
}

// RecoverBatchOp completes the in-flight operation at batch position seq
// after a crash. Batched operations never visit the exchanger, so unlike
// RecoverOp this consults only the central stack's ISB recovery (checking
// the exchanger here could surface a previous single operation's stale
// elimination outcome).
func (s *Stack) RecoverBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpTop {
		return s.ReadOp(p, kind, arg)
	}
	if kind == OpPush {
		return s.e.RecoverSeq(p, OpPush, arg, uint64(seq), s.gPush)
	}
	return s.e.RecoverSeq(p, OpPop, arg, uint64(seq), s.gPop)
}

// Engine exposes the stack's tracking engine (counter access, batching).
func (s *Stack) Engine() *isb.Engine { return s.e }
