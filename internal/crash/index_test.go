package crash

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro"
	"repro/internal/linearize"
)

// bucketOrder is what a hash map's bucket orders its keys by, the splitmix64
// finalizer of the key (internal/hashmap), recomputed here to place keys.
func bucketOrder(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

// The index rows' map: one bucket of indexKeys keys, enough for its walks to
// grow long and its list to keep an index of 2^7 slots (package list's
// slots), each a 2^indexShift share of the order keys.
const (
	indexKeys  = 200
	indexShift = 64 - 7
	// indexWalk bounds Proc 0's find when it starts at the anchor: a walk
	// from the head passes about half the bucket, over a hundred accesses.
	indexWalk = 12
	// indexChurn is the reclaimer rows' run of inserts after the anchor's
	// retirement: enough to fill Proc 1's ring past its advance threshold,
	// move the epoch on twice and draw the freed blocks back out.
	indexChurn = 96
)

// indexRow is one two-Proc row on a hash map whose bucket keeps an index:
// Proc 0 deletes a key far from the anchor, then finds key k, whose walk
// starts at the anchor a, the last node below k's slot; Proc 1 runs, at
// every access of Proc 0's, its interloper: it retires a — by deleting it, or
// by inserting b just before it, which copies a — and then, on the arena,
// deletes k, so that a walk from the retired a would still meet k's node;
// on the reclaimer it inserts indexChurn keys above k instead, so that a's
// block is freed and reused as one of their nodes wherever Proc 0 is not
// pinned (between its operations). Either way a walk that followed the
// retired anchor would answer wrongly: k present after the delete, or
// absent while k stays.
type indexRow struct {
	eng     engineVariant
	reclaim bool
	insert  bool // retire a by inserting b before it
}

// name spells the row in subtest paths.
func (r indexRow) name() string {
	alloc, how := "arena", "delete-anchor"
	if r.reclaim {
		alloc = "reclaim"
	}
	if r.insert {
		how = "insert-before-anchor"
	}
	return r.eng.name + "/" + alloc + "/" + how
}

// indexKeysOf picks the row's keys from 1..indexKeys in order-key order: a
// the last key of a slot past the middle of the bucket and k the first of
// the next slot, far the first key, and b the first key above indexKeys
// ordered between a's predecessor and a; churn are the first indexChurn keys
// above b ordered above k.
func indexKeysOf() (a, k, far, b uint64, churn []uint64) {
	keys := make([]uint64, indexKeys)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	sort.Slice(keys, func(i, j int) bool { return bucketOrder(keys[i]) < bucketOrder(keys[j]) })
	i := indexKeys / 2
	for bucketOrder(keys[i])>>indexShift == bucketOrder(keys[i+1])>>indexShift {
		i++
	}
	a, k, far = keys[i], keys[i+1], keys[0]
	lo, hi := bucketOrder(keys[i-1]), bucketOrder(a)
	for b = indexKeys + 1; bucketOrder(b) <= lo || bucketOrder(b) >= hi; b++ {
	}
	for c := b + 1; len(churn) < indexChurn; c++ {
		if bucketOrder(c) > bucketOrder(k) {
			churn = append(churn, c)
		}
	}
	return a, k, far, b, churn
}

// build returns a fresh instance of the row on a two-Proc Runtime. The
// bucket is filled with a first, so that every walk into k's slot once the
// index is kept records a; a find of k then records it if none did. Run
// deletes far and finds k: the find must start at a (indexWalk), and at
// every preemption point Proc 0's answers and Proc 1's must linearize with
// the set's history.
func (r indexRow) build() Instance {
	a, k, far, b, churn := indexKeysOf()
	rt := repro.New(repro.Config{Procs: 2, CrashSim: true, HeapWords: sweepHeapWords * 4, Seed: 42, Engine: r.eng.kind, Reclaim: r.reclaim})
	m := rt.NewHashMap(1)
	p0, p1 := rt.Proc(0), rt.Proc(1)
	model := linearize.SetModel()
	state := model.Init()
	var hist []linearize.Operation
	apply := func(p *repro.Proc, op repro.Op) uint64 {
		m.Begin(p)
		return m.Apply(p, op).Raw()
	}
	record := func(proc int, op repro.Op, resp, start, end uint64) {
		hist = append(hist, linearize.Operation{Proc: proc, Kind: op.Kind, Arg: op.Arg, Resp: resp, Start: start, End: end})
	}
	prefill := append([]uint64{a}, slices.DeleteFunc(keysUpTo(indexKeys), func(x uint64) bool { return x == a })...)
	for _, key := range prefill {
		op := repro.Op{Kind: repro.OpInsert, Arg: key}
		var resp uint64
		state, resp = model.Step(state, op.Kind, op.Arg)
		apply(p0, op)
		record(0, op, resp, uint64(2*len(hist)), uint64(2*len(hist)+1))
	}
	find := repro.Op{Kind: repro.OpFind, Arg: k}
	apply(p0, find)
	before := rt.Heap().AccessCount()
	apply(p0, find)
	walk := rt.Heap().AccessCount() - before

	ops := []repro.Op{{Kind: repro.OpDelete, Arg: far}, find}
	interloper := []repro.Op{{Kind: repro.OpDelete, Arg: a}}
	if r.insert {
		interloper[0] = repro.Op{Kind: repro.OpInsert, Arg: b}
	}
	if r.reclaim {
		for _, c := range churn {
			interloper = append(interloper, repro.Op{Kind: repro.OpInsert, Arg: c})
		}
	} else {
		interloper = append(interloper, repro.Op{Kind: repro.OpDelete, Arg: k})
	}
	alone := state
	for _, op := range ops {
		alone, _ = model.Step(alone, op.Kind, op.Arg)
	}
	var phase int      // Proc 0's operation in progress in Run
	var during int     // the one Proc 1's interloper ran in, or -1
	var resps []uint64 // the interloper's answers
	t0 := uint64(2 * len(hist))
	return Instance{
		Heap: rt.Heap(),
		Run: func() ([]uint64, error) {
			if walk > indexWalk {
				return nil, fmt.Errorf("the find of %d made %d accesses, more than %d: it did not start at the anchor %d", k, walk, indexWalk, a)
			}
			during = -1
			var got []uint64
			for phase = range ops {
				got = append(got, apply(p0, ops[phase]))
			}
			return got, nil
		},
		Verify: func() string {
			want := alone
			if during >= 0 {
				for _, op := range interloper {
					want, _ = model.Step(want, op.Kind, op.Arg)
				}
			}
			var keys []uint64
			for key := range want.(map[uint64]bool) {
				keys = append(keys, key)
			}
			if slices.Sort(keys); !slices.Equal(m.Keys(), keys) {
				return fmt.Sprintf("keys %v, want %v", m.Keys(), keys)
			}
			return m.CheckInvariants()
		},
		Preempt: &Preempt{
			Op: func() {
				during, resps = phase, resps[:0]
				for _, op := range interloper {
					resps = append(resps, apply(p1, op))
				}
			},
			Check: func(got []uint64) error {
				h := slices.Clone(hist)
				span := uint64(2*len(interloper) + 2)
				for i, op := range ops {
					at := t0 + span*uint64(i)
					h = append(h, linearize.Operation{Kind: op.Kind, Arg: op.Arg, Resp: got[i], Start: at, End: at + span - 1})
				}
				for j, op := range interloper {
					at := t0 + span*uint64(during) + 1 + 2*uint64(j)
					h = append(h, linearize.Operation{Proc: 1, Kind: op.Kind, Arg: op.Arg, Resp: resps[j], Start: at, End: at + 1})
				}
				if key, ok := linearize.CheckSetHistory(h); !ok {
					return fmt.Errorf("key %d: Proc 0 deleted %d and found %d (anchor %d) answering %v, and Proc 1's %s inside its operation %d answered %v: not linearizable", key, far, k, a, got, opName(interloper[:1]...), during, resps)
				}
				return nil
			},
		},
	}
}

// keysUpTo returns 1..n.
func keysUpTo(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// TestTwoProcIndexAnchor runs each indexRow: both engines, the arena and the
// reclaimer, the anchor deleted or copied, at every access of Proc 0's
// delete and find. A walk must not start at an anchor that was retired
// before its check (the untagged rule), nor at one whose block was freed
// and reused since it was recorded (the stamp rule), and the history must
// linearize with the map equal to the model's.
func TestTwoProcIndexAnchor(t *testing.T) {
	for _, eng := range engineVariants {
		for _, reclaim := range []bool{false, true} {
			for _, insert := range []bool{false, true} {
				r := indexRow{eng, reclaim, insert}
				t.Run(r.name(), func(t *testing.T) {
					t.Parallel()
					SweepTest(t, r.build, nil)
				})
			}
		}
	}
}
