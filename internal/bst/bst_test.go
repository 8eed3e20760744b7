package bst

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/isb"
	"repro/internal/pmem"
)

func newBST(t *testing.T, procs int) (*BST, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: procs, Tracked: true})
	return NewWithEngine(h, isb.NewEngine(h)), h
}

func TestEmptyTree(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	if isb.Bool(b.ApplyOp(p, OpFind, 5)) {
		t.Fatal("Find on empty tree")
	}
	if isb.Bool(b.ApplyOp(p, OpDelete, 5)) {
		t.Fatal("Delete on empty tree")
	}
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestInsertFindDelete(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	if !isb.Bool(b.ApplyOp(p, OpInsert, 10)) || isb.Bool(b.ApplyOp(p, OpInsert, 10)) {
		t.Fatal("insert semantics broken")
	}
	if !isb.Bool(b.ApplyOp(p, OpFind, 10)) || isb.Bool(b.ApplyOp(p, OpFind, 11)) {
		t.Fatal("find semantics broken")
	}
	if !isb.Bool(b.ApplyOp(p, OpDelete, 10)) || isb.Bool(b.ApplyOp(p, OpDelete, 10)) {
		t.Fatal("delete semantics broken")
	}
	if isb.Bool(b.ApplyOp(p, OpFind, 10)) {
		t.Fatal("key present after delete")
	}
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestInOrderKeys(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	ins := []uint64{50, 20, 80, 10, 30, 70, 90, 25, 35}
	for _, k := range ins {
		if !isb.Bool(b.ApplyOp(p, OpInsert, k)) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	got := b.Keys()
	want := append([]uint64(nil), ins...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestDeleteShapes(t *testing.T) {
	// Delete leaves in various structural positions, including ones whose
	// sibling is an internal node (subtree lift) and ones adjacent to the
	// ∞₁ sentinel.
	b, h := newBST(t, 1)
	p := h.Proc(0)
	for _, k := range []uint64{40, 20, 60, 10, 30, 50, 70} {
		b.ApplyOp(p, OpInsert, k)
	}
	for _, k := range []uint64{40, 10, 70, 30, 50, 20, 60} {
		if !isb.Bool(b.ApplyOp(p, OpDelete, k)) {
			t.Fatalf("Delete(%d) failed", k)
		}
		if msg := b.CheckInvariants(); msg != "" {
			t.Fatalf("after Delete(%d): %s", k, msg)
		}
	}
	if n := len(b.Keys()); n != 0 {
		t.Fatalf("%d keys left", n)
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	for round := 0; round < 5; round++ {
		for k := uint64(1); k <= 10; k++ {
			if !isb.Bool(b.ApplyOp(p, OpInsert, k)) {
				t.Fatalf("round %d: Insert(%d)", round, k)
			}
		}
		for k := uint64(1); k <= 10; k++ {
			if !isb.Bool(b.ApplyOp(p, OpDelete, k)) {
				t.Fatalf("round %d: Delete(%d)", round, k)
			}
		}
	}
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestBoundaryUserKeys(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	if !isb.Bool(b.ApplyOp(p, OpInsert, 1)) || !isb.Bool(b.ApplyOp(p, OpInsert, MaxUserKey)) {
		t.Fatal("boundary inserts failed")
	}
	if !isb.Bool(b.ApplyOp(p, OpFind, 1)) || !isb.Bool(b.ApplyOp(p, OpFind, MaxUserKey)) {
		t.Fatal("boundary finds failed")
	}
	if !isb.Bool(b.ApplyOp(p, OpDelete, MaxUserKey)) || !isb.Bool(b.ApplyOp(p, OpDelete, 1)) {
		t.Fatal("boundary deletes failed")
	}
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestModelEquivalenceSequential(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(48) + 1)
		switch rng.Intn(3) {
		case 0:
			if isb.Bool(b.ApplyOp(p, OpInsert, k)) != !model[k] {
				t.Fatalf("op %d: Insert(%d) mismatch", i, k)
			}
			model[k] = true
		case 1:
			if isb.Bool(b.ApplyOp(p, OpDelete, k)) != model[k] {
				t.Fatalf("op %d: Delete(%d) mismatch", i, k)
			}
			delete(model, k)
		default:
			if isb.Bool(b.ApplyOp(p, OpFind, k)) != model[k] {
				t.Fatalf("op %d: Find(%d) mismatch", i, k)
			}
		}
	}
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if len(b.Keys()) != len(model) {
		t.Fatal("final size mismatch")
	}
}

func TestQuickSetSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
		b := NewWithEngine(h, isb.NewEngine(h))
		p := h.Proc(0)
		model := map[uint64]bool{}
		for _, o := range ops {
			k := uint64(o%24) + 1
			switch (o / 24) % 3 {
			case 0:
				if isb.Bool(b.ApplyOp(p, OpInsert, k)) != !model[k] {
					return false
				}
				model[k] = true
			case 1:
				if isb.Bool(b.ApplyOp(p, OpDelete, k)) != model[k] {
					return false
				}
				delete(model, k)
			default:
				if isb.Bool(b.ApplyOp(p, OpFind, k)) != model[k] {
					return false
				}
			}
		}
		return b.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointRanges(t *testing.T) {
	const procs = 8
	b, h := newBST(t, procs)
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			base := uint64(id*1000 + 1)
			for i := uint64(0); i < 150; i++ {
				if !isb.Bool(b.ApplyOp(p, OpInsert, base+i)) {
					t.Errorf("Insert(%d) failed", base+i)
					return
				}
			}
			for i := uint64(0); i < 150; i += 2 {
				if !isb.Bool(b.ApplyOp(p, OpDelete, base+i)) {
					t.Errorf("Delete(%d) failed", base+i)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if got := len(b.Keys()); got != procs*75 {
		t.Fatalf("size %d, want %d", got, procs*75)
	}
}

func TestConcurrentContended(t *testing.T) {
	const procs, perProc, keys = 8, 300, 8
	b, h := newBST(t, procs)
	type ev struct {
		key    uint64
		insert bool
	}
	results := make([][]ev, procs)
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			rng := rand.New(rand.NewSource(int64(id + 31)))
			for i := 0; i < perProc; i++ {
				k := uint64(rng.Intn(keys) + 1)
				if rng.Intn(2) == 0 {
					if isb.Bool(b.ApplyOp(p, OpInsert, k)) {
						results[id] = append(results[id], ev{k, true})
					}
				} else if isb.Bool(b.ApplyOp(p, OpDelete, k)) {
					results[id] = append(results[id], ev{k, false})
				}
			}
		}(id)
	}
	wg.Wait()
	if msg := b.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	net := map[uint64]int{}
	for _, rs := range results {
		for _, e := range rs {
			if e.insert {
				net[e.key]++
			} else {
				net[e.key]--
			}
		}
	}
	present := map[uint64]bool{}
	for _, k := range b.Keys() {
		present[k] = true
	}
	for k := uint64(1); k <= keys; k++ {
		want := 0
		if present[k] {
			want = 1
		}
		if net[k] != want {
			t.Fatalf("key %d: net %d vs present %v", k, net[k], present[k])
		}
	}
}

func TestRecoverWithoutCrash(t *testing.T) {
	b, h := newBST(t, 1)
	p := h.Proc(0)
	if !isb.Bool(b.ApplyOp(p, OpInsert, 9)) {
		t.Fatal("insert failed")
	}
	if !isb.Bool(b.RecoverLeg(p, 0, OpInsert, 9)) {
		t.Fatal("recover after completed insert != true")
	}
	if n := len(b.Keys()); n != 1 {
		t.Fatalf("recover re-executed insert: %d keys", n)
	}
}

// TestReservedKeysAnswerFalse pins the one outcome an operation on a key
// outside 1..MaxUserKey has, under both engines: false, on the engine, the
// tracked fast find and the zero-persist read path, with the tree
// unchanged. Before, an insert of 0 added it, and a delete of a sentinel's
// key acted on the sentinel.
func TestReservedKeysAnswerFalse(t *testing.T) {
	for _, mk := range []func(*pmem.Heap) *isb.Engine{isb.NewEngine, isb.NewEngineOpt} {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: 1, Tracked: true})
		b := NewWithEngine(h, mk(h))
		p := h.Proc(0)
		b.ApplyOp(p, OpInsert, 5)
		for _, key := range []uint64{0, inf1, inf2} {
			for _, kind := range []uint64{OpDelete, OpInsert, OpFind, OpFindFast, OpDelete, OpInsert} {
				if r := b.ApplyOp(p, kind, key); r != isb.RespFalse {
					t.Fatalf("kind %d on reserved key %d answered %d, want false", kind, key, r)
				}
			}
			if r := b.ReadOp(p, OpFind, key); r != isb.RespFalse {
				t.Fatalf("read of reserved key %d answered %d, want false", key, r)
			}
		}
		if keys := b.Keys(); len(keys) != 1 || keys[0] != 5 {
			t.Fatalf("keys %v after operations on reserved keys, want [5]", keys)
		}
		if msg := b.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		if !isb.Bool(b.ApplyOp(p, OpInsert, 7)) || !isb.Bool(b.ApplyOp(p, OpDelete, 5)) {
			t.Fatal("the tree no longer works after operations on reserved keys")
		}
	}
}
