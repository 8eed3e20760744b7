package hashmap

import (
	"repro/internal/isb"
	"repro/internal/pmem"
)

// FindFast reports membership via the zero-persist read path: route to the
// key's shard and run the bucket list's volatile traversal. The read leaves
// no durable trace at all; a crashed FindFast is simply re-submitted.
func (m *Map) FindFast(p *pmem.Proc, key uint64) bool {
	return m.shards[m.ShardOf(key)].FindFast(p, key)
}

// ReadOp serves a read-only operation kind on the zero-persist path.
// Panics on a mutating kind.
func (m *Map) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	if kind != OpFind {
		panic("hashmap: ReadOp on a mutating kind")
	}
	return isb.BoolResp(m.FindFast(p, arg))
}

// ApplyBatchOp runs one operation at position seq inside an open batch
// window on the key's shard's bucket list. Read-only kinds skip the engine.
func (m *Map) ApplyBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpFind {
		return m.ReadOp(p, kind, arg)
	}
	return m.shards[m.ShardOf(arg)].ApplyBatchOp(p, seq, kind, arg)
}

// RecoverBatchOp completes the in-flight operation at batch position seq
// after a crash, routing like RecoverOp.
func (m *Map) RecoverBatchOp(p *pmem.Proc, seq int, kind, arg uint64) uint64 {
	if kind == OpFind {
		return m.ReadOp(p, kind, arg)
	}
	return m.shards[m.ShardOf(arg)].RecoverBatchOp(p, seq, kind, arg)
}
