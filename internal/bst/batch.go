package bst

import (
	"repro/internal/isb"
	"repro/internal/pmem"
)

// ReadOp serves membership (OpFind and OpFindFast alike) on the zero-persist
// read path: a volatile descent to the routed leaf with no Info record, no
// announcement, and no persistence instruction — one step beyond the
// engine-backed OpFindFast, which still installs and persists its Info record
// to stay detectably recoverable. Linearizes at the load of the last child
// pointer (the external-BST argument: the leaf reached routes the key at that
// instant). Nothing durable records the read; a crashed read is simply
// re-submitted. The descent holds the allocator's epoch pin so that no node on
// the path is freed under it (see list.FindFast). Panics on a mutating kind.
func (t *BST) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind != OpFind && kind != OpFindFast {
		panic("bst: ReadOp on a mutating kind")
	}
	a := t.e.Allocator()
	a.Enter(p)
	node := t.root
	for {
		left := pmem.Addr(p.Load(node + nLeft))
		if left == pmem.Null {
			found := p.Load(node+nKey) == arg
			a.Exit(p)
			t.e.NoteReadFast(p)
			return isb.BoolResp(found)
		}
		if arg < p.Load(node+nKey) {
			node = left
		} else {
			node = pmem.Addr(p.Load(node + nRight))
		}
	}
}

// ApplyBatchOp runs one operation at position seq inside an open batch
// window. Read-only kinds take the zero-persist path.
func (t *BST) ApplyBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpFind || kind == OpFindFast {
		return t.ReadOp(p, kind, arg)
	}
	return t.e.RunBatchOp(p, seq, kind, arg, t.gather(kind))
}

// RecoverBatchOp completes the in-flight operation at batch position seq
// after a crash (re-executing read-only kinds, which had no durable
// effect).
func (t *BST) RecoverBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpFind || kind == OpFindFast {
		return t.ReadOp(p, kind, arg)
	}
	return t.e.RecoverSeq(p, kind, arg, uint64(seq), t.gather(kind))
}
