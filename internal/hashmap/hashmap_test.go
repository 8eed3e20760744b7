package hashmap

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/isb"
	"repro/internal/pmem"
)

func newHeap(procs int) *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Words: 1 << 22, Procs: procs})
}

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	h := newHeap(1)
	for _, c := range []struct{ ask, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32},
	} {
		if got := NewWithEngine(h, isb.NewEngine(h), c.ask).NumShards(); got != c.want {
			t.Fatalf("NewWithEngine(%d shards).NumShards() = %d, want %d", c.ask, got, c.want)
		}
	}
}

func TestSequentialAgainstModel(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		h := newHeap(1)
		m := NewWithEngine(h, isb.NewEngine(h), shards)
		p := h.Proc(0)
		model := map[uint64]bool{}
		rng := rand.New(rand.NewSource(int64(shards)))
		for i := 0; i < 3000; i++ {
			k := uint64(rng.Intn(64)) + 1
			switch rng.Intn(3) {
			case 0:
				if got, want := m.Insert(p, k), !model[k]; got != want {
					t.Fatalf("shards=%d: Insert(%d) = %v, want %v", shards, k, got, want)
				}
				model[k] = true
			case 1:
				if got, want := isb.Bool(m.ApplyOp(p, OpDelete, k)), model[k]; got != want {
					t.Fatalf("shards=%d: Delete(%d) = %v, want %v", shards, k, got, want)
				}
				delete(model, k)
			default:
				if got, want := isb.Bool(m.ApplyOp(p, OpFind, k)), model[k]; got != want {
					t.Fatalf("shards=%d: Find(%d) = %v, want %v", shards, k, got, want)
				}
			}
		}
		keys := m.Keys()
		if len(keys) != len(model) {
			t.Fatalf("shards=%d: %d keys, model has %d", shards, len(keys), len(model))
		}
		for i, k := range keys {
			if !model[k] {
				t.Fatalf("shards=%d: key %d present but not in model", shards, k)
			}
			if i > 0 && keys[i-1] >= k {
				t.Fatalf("shards=%d: Keys not ascending: %v", shards, keys)
			}
		}
		if msg := m.CheckInvariants(); msg != "" {
			t.Fatalf("shards=%d: %s", shards, msg)
		}
	}
}

// TestRecoveryRoutesByKey: the key alone names its shard. A fresh operation
// run through recovery (Begin, then Recover) lands its key in ShardOf's
// bucket list, as its order key, and in no other, and recovering it again
// resolves the completed record instead of re-running it.
func TestRecoveryRoutesByKey(t *testing.T) {
	h := newHeap(2)
	m := NewWithEngine(h, isb.NewEngine(h), 8)
	p := h.Proc(1)
	for k := uint64(1); k <= 50; k++ {
		m.Begin(p)
		if !isb.Bool(m.RecoverLeg(p, 0, OpInsert, k)) {
			t.Fatalf("Insert(%d) run by recovery returned false", k)
		}
		for s, l := range m.shards {
			if got, want := slices.Contains(l.Keys(), order(k, mix(k))), s == m.ShardOf(k); got != want {
				t.Fatalf("key %d in shard %d: %v, want %v (ShardOf = %d)", k, s, got, want, m.ShardOf(k))
			}
		}
		if !isb.Bool(m.RecoverLeg(p, 0, OpInsert, k)) {
			t.Fatalf("recovering the completed Insert(%d) re-ran it", k)
		}
	}
}

func TestKeysSpreadAcrossShards(t *testing.T) {
	h := newHeap(1)
	m := NewWithEngine(h, isb.NewEngine(h), 8)
	p := h.Proc(0)
	for k := uint64(1); k <= 400; k++ {
		m.Insert(p, k)
	}
	per := map[int]int{}
	for k := uint64(1); k <= 400; k++ {
		per[m.ShardOf(k)]++
	}
	if len(per) != 8 {
		t.Fatalf("dense keys hit only %d of 8 shards", len(per))
	}
	for s, n := range per {
		if n < 10 {
			t.Fatalf("shard %d got only %d of 400 dense keys (hash not spreading)", s, n)
		}
	}
	if msg := m.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestConcurrentDisjointKeys exercises the sharing of the engine across
// shards under the race detector: each proc owns a disjoint key range, so
// the final membership is exactly determined per proc.
func TestConcurrentDisjointKeys(t *testing.T) {
	const procs, keysPer = 4, 32
	h := newHeap(procs)
	m := NewWithEngine(h, isb.NewEngine(h), 8)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := h.Proc(w)
			base := uint64(w*keysPer) + 1
			for k := base; k < base+keysPer; k++ {
				m.Insert(p, k)
			}
			for k := base; k < base+keysPer; k += 2 {
				m.ApplyOp(p, OpDelete, k)
			}
		}(w)
	}
	wg.Wait()
	if msg := m.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	for k := uint64(1); k <= procs*keysPer; k++ {
		want := (k-1)%2 == 1 // odd offsets survive (even offsets deleted)
		if got := slices.Contains(m.Keys(), k); got != want {
			t.Fatalf("key %d: present %v, want %v", k, got, want)
		}
	}
}

// TestConcurrentContendedSmoke hammers a small key range from several procs
// (all shards contended) and checks structural invariants; it exists mainly
// as -race coverage of helping across shard lists sharing one engine.
func TestConcurrentContendedSmoke(t *testing.T) {
	const procs = 4
	h := newHeap(procs)
	m := NewWithEngine(h, isb.NewEngine(h), 4)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := h.Proc(w)
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < 500; i++ {
				k := uint64(rng.Intn(16)) + 1
				switch rng.Intn(3) {
				case 0:
					m.Insert(p, k)
				case 1:
					m.ApplyOp(p, OpDelete, k)
				default:
					m.ApplyOp(p, OpFind, k)
				}
			}
		}(w)
	}
	wg.Wait()
	if msg := m.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestOrderIsABijection pins the bucket order: order maps 1..MaxKey-1 onto
// itself and unorder inverts it, MaxKey's preimage under mix included, whose
// walk goes on past MaxKey; the sentinels' keys map to themselves.
func TestOrderIsABijection(t *testing.T) {
	const maxKey = 1<<64 - 1
	rng := rand.New(rand.NewSource(1))
	keys := []uint64{1, 2, maxKey - 1, unmix(maxKey), unmix(unmix(maxKey))}
	for i := 0; i < 10000; i++ {
		keys = append(keys, rng.Uint64())
	}
	for _, k := range keys {
		if k == 0 || k == maxKey {
			continue
		}
		if unmix(mix(k)) != k {
			t.Fatalf("unmix(mix(%#x)) = %#x", k, unmix(mix(k)))
		}
		o := order(k, mix(k))
		if o == 0 || o == maxKey || unorder(o) != k {
			t.Fatalf("order(%#x) = %#x, unorder gives %#x", k, o, unorder(o))
		}
	}
	if o0, om := order(0, mix(0)), order(maxKey, mix(maxKey)); o0 != 0 || om != maxKey {
		t.Fatalf("order(0) = %#x, order(MaxKey) = %#x: the sentinels' keys must map to themselves", o0, om)
	}
}

// TestReservedKeysAnswerFalse pins the one outcome an operation on a
// sentinel's key has, under both engines: false, on the engine and the
// zero-persist read path, with the map unchanged, and the key never enters
// order's cycle walk, which from 0 would not end.
func TestReservedKeysAnswerFalse(t *testing.T) {
	for _, mk := range []func(*pmem.Heap) *isb.Engine{isb.NewEngine, isb.NewEngineOpt} {
		h := newHeap(1)
		m := NewWithEngine(h, mk(h), 4)
		p := h.Proc(0)
		m.Insert(p, 5)
		for _, key := range []uint64{0, 1<<64 - 1} {
			for _, kind := range []uint64{OpDelete, OpInsert, OpFind, OpDelete, OpInsert} {
				if r := m.ApplyOp(p, kind, key); r != isb.RespFalse {
					t.Fatalf("kind %d on reserved key %d answered %d, want false", kind, key, r)
				}
			}
			if r := m.ReadOp(p, OpFind, key); r != isb.RespFalse {
				t.Fatalf("read of reserved key %d answered %d, want false", key, r)
			}
		}
		if keys := m.Keys(); !slices.Equal(keys, []uint64{5}) {
			t.Fatalf("keys %v after operations on reserved keys, want [5]", keys)
		}
		if msg := m.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
	}
}
