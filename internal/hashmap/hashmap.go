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
// how many buckets the map has. In addition the map keeps a per-process
// *shard register* in persistent memory (one cache line per process): just
// before an Insert/Delete/Find touches its bucket, the register persistently
// records which shard the operation targets. With a fixed power-of-two
// shard count the route is also recomputable by re-hashing the key, so
// today the register is a cross-check on that route (and the persistent
// hook online resharding will need, when hashing can change across a
// crash) rather than the only way to find the shard. Recover(p, op, key)
// routes to the operation's shard and resolves it through the engine's
// Info structures, exactly as for a stand-alone list.
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
// (1 ≤ key ≤ MaxUint64-1, the Harris-list sentinel bounds).
type Map struct {
	h      *pmem.Heap
	e      *isb.Engine
	shards []*list.List
	mask   uint64
	regs   pmem.Addr // per-proc shard register lines; word0 = shard+1, 0 = none
}

// New builds a map with the requested shard count, rounded up to a power of
// two (minimum 1), with the paper's Algorithm 1/2 persistence placement.
// Shard bucket sentinels are persisted by list construction.
func New(h *pmem.Heap, shards int) *Map {
	return NewWithEngine(h, isb.NewEngine(h), shards)
}

// NewWithEngine builds the map on a caller-supplied engine shared by all
// bucket lists (one set of RD_q/CP_q recovery registers for the whole map).
func NewWithEngine(h *pmem.Heap, e *isb.Engine, shards int) *Map {
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Map{h: h, e: e, mask: uint64(n - 1)}
	m.shards = make([]*list.List, n)
	for i := range m.shards {
		m.shards[i] = list.NewWithEngine(h, e)
	}
	p0 := h.Proc(0)
	procs := uint64(h.NumProcs())
	raw := p0.Alloc(procs*pmem.WordsPerLine + pmem.WordsPerLine)
	m.regs = (raw + pmem.WordsPerLine - 1) &^ (pmem.WordsPerLine - 1)
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

func (m *Map) reg(p *pmem.Proc) pmem.Addr {
	return m.regs + pmem.Addr(p.ID()*pmem.WordsPerLine)
}

// recordShard persistently notes the shard the next operation targets, so
// that recovery can route without trusting volatile state.
//
// On a batched (Isb-Opt) engine the psync is elided: the operation enters
// the engine immediately after, and Begin's psync — issued before the
// operation touches its bucket, let alone persists any effect — covers the
// register's pwb. A crash inside that window leaves the register possibly
// unpersisted, but then the operation made no changes and Recover's
// empty/stale-register path re-hashes the key. Inside a sync scope (an Isb
// batch window) the psync defers likewise, to the op boundary.
func (m *Map) recordShard(p *pmem.Proc, s int) {
	r := m.reg(p)
	p.Store(r, uint64(s)+1)
	p.PWB(r)
	if m.e.Batched() || p.InSyncScope() {
		return
	}
	p.PSync()
}

// RecordedShard returns the shard register's content for p: the shard of
// the operation in flight (or last recorded), or -1 if cleared.
func (m *Map) RecordedShard(p *pmem.Proc) int {
	v := p.Load(m.reg(p))
	if v == 0 {
		return -1
	}
	return int(v - 1)
}

// ApplyOp runs the operation described by (kind, arg) and returns its
// encoded response: the uniform invocation surface every structure shares.
// It records the target shard, then drives the shard's bucket list.
func (m *Map) ApplyOp(p *pmem.Proc, kind, arg uint64) uint64 {
	s := m.ShardOf(arg)
	m.recordShard(p, s)
	return m.shards[s].ApplyOp(p, kind, arg)
}

// Insert adds key to the map; it returns false if the key was present.
func (m *Map) Insert(p *pmem.Proc, key uint64) bool {
	return isb.Bool(m.ApplyOp(p, OpInsert, key))
}

// Delete removes key from the map; it returns false if the key was absent.
func (m *Map) Delete(p *pmem.Proc, key uint64) bool {
	return isb.Bool(m.ApplyOp(p, OpDelete, key))
}

// Find reports whether key is in the map (read-only, ROpt fast path).
func (m *Map) Find(p *pmem.Proc, key uint64) bool {
	return isb.Bool(m.ApplyOp(p, OpFind, key))
}

// Recover completes p's interrupted operation (same kind and key) after a
// crash and returns its response. It consults p's persistent shard
// register; if the register is empty or stale — the crash landed before
// this operation recorded its target, which proves the operation never
// reached a bucket — the key is re-hashed instead (with a fixed shard
// count the two routes agree whenever the register is set for this
// operation), and the engine's recovery path re-runs or completes the
// operation. Recover may itself crash and be re-invoked any number of
// times.
func (m *Map) Recover(p *pmem.Proc, op, key uint64) bool {
	return isb.Bool(m.RecoverOp(p, op, key))
}

// RecoverOp is the uniform recovery surface behind Recover: it routes to
// the operation's shard and returns the encoded response.
func (m *Map) RecoverOp(p *pmem.Proc, kind, arg uint64) uint64 {
	s := m.RecordedShard(p)
	if s < 0 || s != m.ShardOf(arg) {
		// Register empty or recording an earlier operation's target: the
		// crash landed before this operation wrote the register, so the
		// operation never reached a bucket. Re-hash the key — with a fixed
		// power-of-two shard count this is the shard the register would have
		// recorded — and let the engine re-run the operation from scratch
		// (its CP/RD checks detect that nothing took effect).
		s = m.ShardOf(arg)
	}
	return m.shards[s].RecoverOp(p, kind, arg)
}

// Begin is the system-side invocation step used by crash harnesses: it
// persistently clears CP_q and the shard register just before a fresh
// operation, so recovery can tell a brand-new operation from one that
// already recorded its target. A crash inside Begin leaves no recovery
// obligation — the harness simply retries it.
func (m *Map) Begin(p *pmem.Proc) {
	r := m.reg(p)
	p.Store(r, 0)
	p.PWB(r)
	m.e.Begin(p, false, nil) // issues the psync covering both lines
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

// Contains is a non-recoverable volatile read used by tests and verifiers.
func (m *Map) Contains(key uint64) bool {
	return m.shards[m.ShardOf(key)].Contains(key)
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
