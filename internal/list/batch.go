package list

import (
	"repro/internal/isb"
	"repro/internal/pmem"
)

// FindFast reports whether key is in the set via the zero-persist read
// path: a volatile traversal over the persistent nodes with no Info
// record, no announcement, and no persistence instruction of any kind.
//
// Linearization is the standard Harris-list argument: the traversal
// follows next pointers loaded one at a time, and the membership verdict
// is correct at the moment the deciding next pointer was loaded. Nothing
// durable records the read, so a crash simply loses it — the caller
// re-submits, which is safe because the read had no effect.
//
// The walk holds the allocator's epoch pin (volatile, and a no-op on the
// arena): without it the reclaimer could free and zero the node the walk
// stands on, whose zero key and Null next would trap it at address 0.
func (l *List) FindFast(p *pmem.Proc, key uint64) bool {
	a := l.e.Allocator()
	a.Enter(p)
	curr := l.head
	for p.Load(curr+nKey) < key {
		curr = pmem.Addr(p.Load(curr + nNext))
	}
	found := p.Load(curr+nKey) == key
	a.Exit(p)
	l.e.NoteReadFast(p)
	return found
}

// ReadOp serves a read-only operation kind on the zero-persist path; it is
// the uniform fast-read surface (Apply and the admission windows route
// ReadOnly kinds here). Panics on a mutating kind.
func (l *List) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind != OpFind {
		panic("list: ReadOp on a mutating kind")
	}
	return isb.BoolResp(l.FindFast(p, arg))
}

// ApplyBatchOp runs one operation at position seq inside an open batch
// window (isb.Engine.Begin). Read-only kinds take the zero-persist
// path; mutating kinds run through the engine's batch driver.
func (l *List) ApplyBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpFind {
		return l.ReadOp(p, kind, arg)
	}
	return l.e.RunBatchOp(p, seq, kind, arg, l.gather(kind))
}

// RecoverBatchOp completes the in-flight operation at batch position seq
// after a crash. Read-only kinds are re-executed (they had no durable
// effect and nothing later in the batch ran, so re-execution is safe);
// mutating kinds go through the engine's sequence-guarded recovery.
func (l *List) RecoverBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpFind {
		return l.ReadOp(p, kind, arg)
	}
	return l.e.RecoverSeq(p, kind, arg, uint64(seq), l.gather(kind))
}
