package hashmap

import "repro/internal/pmem"

// ReadOp serves a read-only operation kind on the zero-persist path: the key's
// shard runs its bucket list's volatile traversal. The read leaves no durable
// trace at all; a crashed read is simply re-submitted. Panics on a mutating
// kind.
func (m *Map) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	return m.shards[m.ShardOf(arg)].ReadOp(p, kind, arg)
}

// ApplyBatchOp runs one operation at position seq inside an open batch
// window on the key's shard's bucket list. Read-only kinds skip the engine.
func (m *Map) ApplyBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	return m.shards[m.ShardOf(arg)].ApplyBatchOp(p, seq, kind, arg)
}

// RecoverBatchOp completes the in-flight operation at batch position seq
// after a crash, routing like RecoverOp.
func (m *Map) RecoverBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	return m.shards[m.ShardOf(arg)].RecoverBatchOp(p, seq, kind, arg)
}
