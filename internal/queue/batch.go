package queue

import (
	"repro/internal/isb"
	"repro/internal/pmem"
)

// OpPeek is the read-only front-of-queue probe, served exclusively by the
// zero-persist read path (it never installs an Info record).
const OpPeek uint64 = 12

// PeekFast returns the front value without dequeuing it: a volatile read
// of the dummy's successor with no Info record, no announcement, and no
// persistence instruction. Linearizes at the load of head.next — the MS
// queue's front is exactly the dummy's successor at that instant. Nothing
// durable records the read; a crashed peek is simply re-submitted. The
// epoch pin keeps the dummy and its successor allocated while they are
// read (see list.FindFast).
func (q *Queue) PeekFast(p *pmem.Proc) (v uint64, ok bool) {
	a := q.e.Allocator()
	a.Enter(p)
	dummy := pmem.Addr(p.Load(q.head))
	first := pmem.Addr(p.Load(dummy + nNext))
	if first != pmem.Null {
		v, ok = p.Load(first+nVal), true
	}
	a.Exit(p)
	q.e.NoteReadFast(p)
	return v, ok
}

// Peek is the typed convenience wrapper over the OpPeek fast path.
func (q *Queue) Peek(p *pmem.Proc) (v uint64, ok bool) {
	return q.PeekFast(p)
}

// ReadOp serves a read-only operation kind on the zero-persist path.
// Panics on a mutating kind.
func (q *Queue) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind != OpPeek {
		panic("queue: ReadOp on a mutating kind")
	}
	v, ok := q.PeekFast(p)
	if !ok {
		return isb.RespEmpty
	}
	return isb.EncodeValue(v)
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
