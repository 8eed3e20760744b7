// Package hashmap implements a detectably recoverable, sharded lock-free
// hash map built from ISB-tracked Harris lists (one sorted list per bucket,
// exactly the paper's Section 4 structure). Where every other structure in
// this repository is a single contention point, the hash map spreads keys
// over a power-of-two number of independent shards, so throughput scales
// with cores while detectable recovery is preserved.
//
// Recovery design. All shards share one ISB engine and therefore one set of
// per-process RD_q/CP_q recovery registers: a process has at most one
// operation in flight, so it needs exactly one recovery slot regardless of
// how many buckets the map has. The shard count is a fixed power of two, so
// an operation's shard is a function of its key alone: recovery re-hashes the
// key (ShardOf) and resolves the operation through the engine's Info
// structures in that shard's bucket list, exactly as for a stand-alone list.
// Routing therefore persists nothing of its own. (Online resharding, where
// the hash could change across a crash, would need a durable route.)
package hashmap

import (
	"fmt"
	"sort"

	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
)

// Operation kinds: the map reuses the list's codes, so harnesses and
// linearizability kinds coincide.
const (
	OpInsert = list.OpInsert
	OpDelete = list.OpDelete
	OpFind   = list.OpFind
)

// Map is a detectably recoverable sharded hash set of uint64 keys
// (1 ≤ key ≤ MaxUint64-1, the Harris-list sentinel bounds). Its operation
// surface is the embedded isb.Ops, whose gather lookup and read route to the
// key's shard.
type Map struct {
	isb.Ops
	shards []*list.List
	mask   uint64
}

// NewWithEngine builds a map with the requested shard count, rounded up to a
// power of two (minimum 1), on engine e, which all bucket lists share (one set
// of RD_q/CP_q recovery registers for the whole map). Shard bucket sentinels
// are persisted by list construction.
func NewWithEngine(h *pmem.Heap, e *isb.Engine, shards int) *Map {
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Map{mask: uint64(n - 1)}
	m.shards = make([]*list.List, n)
	for i := range m.shards {
		m.shards[i] = list.NewWithEngine(h, e)
	}
	m.Ops = isb.NewOps(e, m.gather, m.ReadOp, OpFind)
	return m
}

// NumShards reports the (power-of-two) shard count.
func (m *Map) NumShards() int { return len(m.shards) }

// mix is the splitmix64 finalizer: a bijective scramble so that dense key
// ranges still spread across shards.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf returns the shard index key routes to.
func (m *Map) ShardOf(key uint64) int { return int(mix(key) & m.mask) }

// gather routes an operation to the gather lookup of its key's shard.
func (m *Map) gather(kind, arg uint64) isb.Gather {
	return m.shards[m.ShardOf(arg)].Gather(kind, arg)
}

// ReadOp serves a read-only operation kind on the zero-persist path: the key's
// shard runs its bucket list's volatile traversal. The read leaves no durable
// trace at all; a crashed read is simply re-submitted. Panics on a mutating
// kind.
func (m *Map) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	return m.shards[m.ShardOf(arg)].ReadOp(p, kind, arg)
}

// Insert adds key to the map; it returns false if the key was present.
func (m *Map) Insert(p *pmem.Proc, key uint64) bool {
	return isb.Bool(m.ApplyOp(p, OpInsert, key))
}

// Keys snapshots the current key set in ascending order (requires
// quiescence).
func (m *Map) Keys() []uint64 {
	var out []uint64
	for _, s := range m.shards {
		out = append(out, s.Keys()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarkReachable reports every node of every shard to the post-crash
// reclamation scan. Like the bucket lists', it marks and nothing else.
func (m *Map) MarkReachable(p *pmem.Proc, mark func(pmem.Addr)) {
	for _, s := range m.shards {
		s.MarkReachable(p, mark)
	}
}

// CheckInvariants verifies every shard's structural invariants plus the
// sharding invariant (every key lives in the shard it hashes to). It
// returns a description of the first violation, or "".
func (m *Map) CheckInvariants() string {
	for i, s := range m.shards {
		if msg := s.CheckInvariants(); msg != "" {
			return fmt.Sprintf("shard %d: %s", i, msg)
		}
		for _, k := range s.Keys() {
			if m.ShardOf(k) != i {
				return fmt.Sprintf("key %d found in shard %d but hashes to shard %d", k, i, m.ShardOf(k))
			}
		}
	}
	return ""
}
