package queue

import (
	"repro/internal/isb"
	"repro/internal/pmem"
)

// OpPeek is the read-only front-of-queue probe, served exclusively by the
// zero-persist read path (it never installs an Info record).
const OpPeek uint64 = 12

// ReadOp serves OpPeek, the front value without dequeuing it, on the
// zero-persist path: a volatile read of the dummy's successor with no Info
// record, no announcement, and no persistence instruction. Linearizes at the
// load of head.next — the MS queue's front is exactly the dummy's successor at
// that instant. Nothing durable records the read; a crashed peek is simply
// re-submitted. The epoch pin keeps the dummy and its successor allocated
// while they are read (see list.FindFast). Panics on a mutating kind.
func (q *Queue) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind != OpPeek {
		panic("queue: ReadOp on a mutating kind")
	}
	a := q.e.Allocator()
	a.Enter(p)
	resp := isb.RespEmpty
	dummy := pmem.Addr(p.Load(q.head))
	if first := pmem.Addr(p.Load(dummy + nNext)); first != pmem.Null {
		resp = isb.EncodeValue(p.Load(first + nVal))
	}
	a.Exit(p)
	q.e.NoteReadFast(p)
	return resp
}

// ApplyBatchOp runs one operation at position seq inside an open batch
// window; OpPeek takes the zero-persist path.
func (q *Queue) ApplyBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpPeek {
		return q.ReadOp(p, kind, arg)
	}
	return q.e.RunBatchOp(p, seq, kind, arg, q.gather(kind))
}

// RecoverBatchOp completes the in-flight operation at batch position seq
// after a crash (re-executing OpPeek, which had no durable effect).
func (q *Queue) RecoverBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpPeek {
		return q.ReadOp(p, kind, arg)
	}
	return q.e.RecoverSeq(p, kind, arg, uint64(seq), q.gather(kind))
}
