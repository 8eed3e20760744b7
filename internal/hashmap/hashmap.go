// Package hashmap implements a detectably recoverable, sharded lock-free
// hash map built from ISB-tracked Harris lists (one sorted list per bucket,
// exactly the paper's Section 4 structure). Where every other structure in
// this repository is a single contention point, the hash map spreads keys
// over a power-of-two number of independent shards, so throughput scales
// with cores while detectable recovery is preserved.
//
// Buckets are hash-ordered. A bucket list holds each key's order key, a
// bijection of the user key onto the list's key range (order), so that its
// keys spread over the whole range whatever the user keys are, as in a
// split-ordered list. A bucket whose walks grow long then starts them at
// the anchors of its list's volatile index (see package list), which pick a
// start by an order key's top bits; recovery never reads the index. Keys
// maps the order keys back.
//
// Recovery design. All shards share one ISB engine and therefore one set of
// per-process RD_q/CP_q recovery registers: a process has at most one
// operation in flight, so it needs exactly one recovery slot regardless of
// how many buckets the map has. The shard count is a fixed power of two, so
// an operation's shard is a function of its key alone: recovery re-hashes the
// key (ShardOf) and resolves the operation through the engine's Info
// structures in that shard's bucket list, exactly as for a stand-alone list.
// The announced argument and the Info record carry the user key; only the
// bucket's nodes carry order keys. Routing therefore persists nothing of its
// own. (Online resharding, where the hash could change across a crash, would
// need a durable route.)
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

	gIns, gDel, gFind isb.Gather
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
	m.gIns, m.gDel, m.gFind = m.bucket(OpInsert), m.bucket(OpDelete), m.bucket(OpFind)
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

// unmix inverts mix: each xor-shift undone by its repeats, each product by
// the multiplier's inverse mod 2^64.
func unmix(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642b2d24d8ec3
	x ^= x>>27 ^ x>>54
	x *= 0x96de1b173f119089
	x ^= x>>30 ^ x>>60
	return x
}

// order maps a user key k, given h = mix(k), to its order key in the bucket
// lists, a bijection on 1..list.MaxKey-1: h, walked along mix's cycle past
// MaxKey, which mix may reach but the list reserves. mix fixes 0 and maps
// nothing else there, so a walk from a user key ends. A sentinel's key (0,
// MaxKey) maps to itself, never walked — from 0 the walk would not end — and
// the list answers it false.
func order(k, h uint64) uint64 {
	if k == 0 || k == list.MaxKey {
		return k
	}
	for h == list.MaxKey {
		h = mix(h)
	}
	return h
}

// unorder inverts order on 1..list.MaxKey-1.
func unorder(o uint64) uint64 {
	for o = unmix(o); o == list.MaxKey; o = unmix(o) {
	}
	return o
}

// ShardOf returns the shard index key routes to.
func (m *Map) ShardOf(key uint64) int { return int(mix(key) & m.mask) }

// route returns key's bucket list and its order key there, from one mix: the
// shard is its low bits (ShardOf), the order key the whole of it (order).
func (m *Map) route(key uint64) (*list.List, uint64) {
	h := mix(key)
	return m.shards[h&m.mask], order(key, h)
}

// gather returns the map's gather for kind, which routes by the key.
func (m *Map) gather(kind, _ uint64) isb.Gather {
	switch kind {
	case OpInsert:
		return m.gIns
	case OpDelete:
		return m.gDel
	default:
		return m.gFind
	}
}

// bucket returns the map's gather of kind: the gather of the key's bucket
// list, run on the key's order key. spec.ArgKey holds the order key only
// while the list's gather runs, so the record the engine installs after it
// carries the user key; every attempt sets spec.ArgKey anew, a crashed one
// included.
func (m *Map) bucket(kind uint64) isb.Gather {
	return func(p *pmem.Proc, info pmem.Addr, spec *isb.Spec) isb.GatherResult {
		k := spec.ArgKey
		var s *list.List
		s, spec.ArgKey = m.route(k)
		r := s.Gather(kind, 0)(p, info, spec)
		spec.ArgKey = k
		return r
	}
}

// ReadOp serves a read-only operation kind on the zero-persist path: the key's
// shard runs its bucket list's volatile traversal for the key's order key.
// The read leaves no durable trace at all; a crashed read is simply
// re-submitted. Panics on a mutating kind.
func (m *Map) ReadOp(p *pmem.Proc, kind, arg uint64) uint64 {
	s, o := m.route(arg)
	return s.ReadOp(p, kind, o)
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
		for _, o := range s.Keys() {
			out = append(out, unorder(o))
		}
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
// sharding invariant (every key lives, as its order key, in the shard it
// hashes to). It returns a description of the first violation, or "".
func (m *Map) CheckInvariants() string {
	for i, s := range m.shards {
		if msg := s.CheckInvariants(); msg != "" {
			return fmt.Sprintf("shard %d: %s", i, msg)
		}
		for _, o := range s.Keys() {
			if k := unorder(o); m.ShardOf(k) != i {
				return fmt.Sprintf("key %d found in shard %d but hashes to shard %d", k, i, m.ShardOf(k))
			}
		}
	}
	return ""
}
