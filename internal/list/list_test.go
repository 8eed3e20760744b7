package list

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/isb"
	"repro/internal/pmem"
)

func newList(t *testing.T, procs int) (*List, *pmem.Heap) {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: procs, Tracked: true})
	return NewWithEngine(h, isb.NewEngine(h)), h
}

func TestEmptyList(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	if isb.Bool(l.ApplyOp(p, OpFind, 10)) {
		t.Fatal("Find on empty list returned true")
	}
	if isb.Bool(l.ApplyOp(p, OpDelete, 10)) {
		t.Fatal("Delete on empty list returned true")
	}
	if got := l.Keys(); len(got) != 0 {
		t.Fatalf("Keys = %v, want empty", got)
	}
}

func TestInsertFindDelete(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	if !l.Insert(p, 5) {
		t.Fatal("first Insert(5) failed")
	}
	if l.Insert(p, 5) {
		t.Fatal("duplicate Insert(5) succeeded")
	}
	if !isb.Bool(l.ApplyOp(p, OpFind, 5)) {
		t.Fatal("Find(5) after insert failed")
	}
	if isb.Bool(l.ApplyOp(p, OpFind, 6)) {
		t.Fatal("Find(6) true on {5}")
	}
	if !isb.Bool(l.ApplyOp(p, OpDelete, 5)) {
		t.Fatal("Delete(5) failed")
	}
	if isb.Bool(l.ApplyOp(p, OpDelete, 5)) {
		t.Fatal("second Delete(5) succeeded")
	}
	if isb.Bool(l.ApplyOp(p, OpFind, 5)) {
		t.Fatal("Find(5) after delete")
	}
}

func TestSortedOrderMaintained(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	for _, k := range []uint64{30, 10, 20, 50, 40, 25} {
		if !l.Insert(p, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	want := []uint64{10, 20, 25, 30, 40, 50}
	got := l.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestInsertBetween(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	l.Insert(p, 10)
	l.Insert(p, 30)
	if !l.Insert(p, 20) {
		t.Fatal("Insert(20) between 10 and 30 failed")
	}
	for _, k := range []uint64{10, 20, 30} {
		if !isb.Bool(l.ApplyOp(p, OpFind, k)) {
			t.Fatalf("Find(%d) failed", k)
		}
	}
}

func TestBoundaryKeys(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	if !l.Insert(p, 1) {
		t.Fatal("Insert(1) (min user key) failed")
	}
	if !l.Insert(p, MaxKey-1) {
		t.Fatal("Insert(MaxKey-1) failed")
	}
	if !isb.Bool(l.ApplyOp(p, OpFind, 1)) || !isb.Bool(l.ApplyOp(p, OpFind, MaxKey-1)) {
		t.Fatal("boundary keys not found")
	}
	if !isb.Bool(l.ApplyOp(p, OpDelete, MaxKey-1)) || !isb.Bool(l.ApplyOp(p, OpDelete, 1)) {
		t.Fatal("boundary keys not deleted")
	}
}

func TestDeleteHeadAndTailOfRun(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	for k := uint64(1); k <= 5; k++ {
		l.Insert(p, k)
	}
	if !isb.Bool(l.ApplyOp(p, OpDelete, 1)) || !isb.Bool(l.ApplyOp(p, OpDelete, 5)) || !isb.Bool(l.ApplyOp(p, OpDelete, 3)) {
		t.Fatal("deletes failed")
	}
	got := l.Keys()
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("Keys = %v, want [2 4]", got)
	}
}

// TestModelEquivalenceSequential drives random operations against both the
// list and a model map and requires identical responses throughout.
func TestModelEquivalenceSequential(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	model := map[uint64]bool{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(64) + 1)
		switch rng.Intn(3) {
		case 0:
			want := !model[k]
			if got := l.Insert(p, k); got != want {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, want)
			}
			model[k] = true
		case 1:
			want := model[k]
			if got := isb.Bool(l.ApplyOp(p, OpDelete, k)); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(model, k)
		default:
			want := model[k]
			if got := isb.Bool(l.ApplyOp(p, OpFind, k)); got != want {
				t.Fatalf("op %d: Find(%d) = %v, want %v", i, k, got, want)
			}
		}
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if got, want := len(l.Keys()), len(model); got != want {
		t.Fatalf("final size %d, want %d", got, want)
	}
}

// TestQuickSetSemantics is a property-based version of the model test.
func TestQuickSetSemantics(t *testing.T) {
	f := func(ops []uint16) bool {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 18, Procs: 1, Tracked: true})
		l := NewWithEngine(h, isb.NewEngine(h))
		p := h.Proc(0)
		model := map[uint64]bool{}
		for _, o := range ops {
			k := uint64(o%32) + 1
			switch (o / 32) % 3 {
			case 0:
				if l.Insert(p, k) != !model[k] {
					return false
				}
				model[k] = true
			case 1:
				if isb.Bool(l.ApplyOp(p, OpDelete, k)) != model[k] {
					return false
				}
				delete(model, k)
			default:
				if isb.Bool(l.ApplyOp(p, OpFind, k)) != model[k] {
					return false
				}
			}
		}
		return l.CheckInvariants() == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDisjointKeys: procs operate on disjoint key ranges; every
// operation must succeed as in isolation.
func TestConcurrentDisjointKeys(t *testing.T) {
	const procs = 8
	l, h := newList(t, procs)
	var wg sync.WaitGroup
	errs := make(chan string, procs)
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			base := uint64(id*1000 + 1)
			for i := uint64(0); i < 200; i++ {
				if !l.Insert(p, base+i) {
					errs <- "insert failed"
					return
				}
			}
			for i := uint64(0); i < 200; i += 2 {
				if !isb.Bool(l.ApplyOp(p, OpDelete, base+i)) {
					errs <- "delete failed"
					return
				}
			}
			for i := uint64(0); i < 200; i++ {
				want := i%2 == 1
				if isb.Bool(l.ApplyOp(p, OpFind, base+i)) != want {
					errs <- "find mismatch"
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if got := len(l.Keys()); got != procs*100 {
		t.Fatalf("final size %d, want %d", got, procs*100)
	}
}

// TestConcurrentContendedKeys hammers a tiny key range from many procs and
// then validates per-key response consistency: for each key, successful
// Inserts and Deletes must alternate (starting with Insert), and the final
// membership must match the parity.
func TestConcurrentContendedKeys(t *testing.T) {
	const procs, perProc, keys = 8, 400, 8
	l, h := newList(t, procs)
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
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < perProc; i++ {
				k := uint64(rng.Intn(keys) + 1)
				if rng.Intn(2) == 0 {
					if l.Insert(p, k) {
						results[id] = append(results[id], ev{k, true})
					}
				} else {
					if isb.Bool(l.ApplyOp(p, OpDelete, k)) {
						results[id] = append(results[id], ev{k, false})
					}
				}
			}
		}(id)
	}
	wg.Wait()
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	// Net successful inserts - deletes per key must equal final membership.
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
	final := map[uint64]bool{}
	for _, k := range l.Keys() {
		final[k] = true
	}
	for k := uint64(1); k <= keys; k++ {
		want := 0
		if final[k] {
			want = 1
		}
		if net[k] != want {
			t.Fatalf("key %d: net successful inserts-deletes = %d, final presence %v", k, net[k], final[k])
		}
	}
}

// TestRecoverWithoutCrash: calling Recover when the last operation ran to
// completion must return that operation's response (strict recoverability:
// the response was persisted before the operation returned).
func TestRecoverWithoutCrash(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	if !l.Insert(p, 7) {
		t.Fatal("insert failed")
	}
	if got := isb.Bool(l.RecoverLeg(p, 0, OpInsert, 7)); got != true {
		t.Fatal("Recover after completed Insert(7) != true")
	}
	// And it must not have re-executed the insert.
	if n := len(l.Keys()); n != 1 {
		t.Fatalf("recover re-executed insert: %d keys", n)
	}
	if !isb.Bool(l.ApplyOp(p, OpDelete, 7)) {
		t.Fatal("delete failed")
	}
	if got := isb.Bool(l.RecoverLeg(p, 0, OpDelete, 7)); got != true {
		t.Fatal("Recover after completed Delete(7) != true")
	}
	if n := len(l.Keys()); n != 0 {
		t.Fatalf("list should be empty, has %d keys", n)
	}
}

// TestRecoverDifferentOpReinvokes: if RD_q describes a different operation
// (the crash hit before the new op initialized its recovery data), Recover
// must re-invoke rather than return the stale response. A Find is re-executed
// whatever RD_q says (isb.Ops' one read rule).
func TestRecoverDifferentOpReinvokes(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	l.Insert(p, 7) // leaves RD_q pointing at the Insert's Info
	// "Crash" immediately at the start of a Delete(9): recovery must run the
	// Delete itself, not report the Insert's response.
	if isb.Bool(l.RecoverLeg(p, 0, OpDelete, 9)) {
		t.Fatal("Recover(Delete,9) returned stale true")
	}
	if isb.Bool(l.RecoverLeg(p, 0, OpFind, 9)) {
		t.Fatal("Recover(Find,9) returned stale true")
	}
	if !isb.Bool(l.RecoverLeg(p, 0, OpFind, 7)) {
		t.Fatal("Recover(Find,7) should find the key")
	}
}

// TestResponsePersistedBeforeReturn (strict recoverability): after any
// completed update, the Info result reachable from persisted RD_q holds the
// response. The find rows pin the other half of the rule: no recovery reads
// a Find's record, which it re-executes against the persisted image.
func TestResponsePersistedBeforeReturn(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	ops := []struct {
		run  func() bool
		kind string
	}{
		{func() bool { return l.Insert(p, 3) }, "insert-new"},
		{func() bool { return l.Insert(p, 3) }, "insert-dup"},
		{func() bool { return isb.Bool(l.ApplyOp(p, OpFind, 3)) }, "find-hit"},
		{func() bool { return isb.Bool(l.ApplyOp(p, OpFind, 4)) }, "find-miss"},
		{func() bool { return isb.Bool(l.ApplyOp(p, OpDelete, 3)) }, "delete-hit"},
		{func() bool { return isb.Bool(l.ApplyOp(p, OpDelete, 3)) }, "delete-miss"},
	}
	for _, op := range ops {
		got := op.run()
		// Simulate a full crash and ask the persisted image.
		h.Crash()
		pmem.RunOp(func() { p.Load(l.head) })
		h.ResetAfterCrash()
		// RD_q survives (it was persisted); its result must match.
		var kind, key uint64
		switch op.kind {
		case "insert-new", "insert-dup":
			kind, key = OpInsert, 3
		case "find-hit":
			kind, key = OpFind, 3
		case "find-miss":
			kind, key = OpFind, 4
		default:
			kind, key = OpDelete, 3
		}
		if rec := isb.Bool(l.RecoverLeg(p, 0, kind, key)); rec != got {
			t.Fatalf("%s: response %v but recovery says %v", op.kind, got, rec)
		}
	}
}

func TestStressManyKeysManyProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const procs = 4
	l, h := newList(t, procs)
	var wg sync.WaitGroup
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := h.Proc(id)
			rng := rand.New(rand.NewSource(int64(100 + id)))
			for i := 0; i < 3000; i++ {
				k := uint64(rng.Intn(128) + 1)
				switch rng.Intn(3) {
				case 0:
					l.Insert(p, k)
				case 1:
					l.ApplyOp(p, OpDelete, k)
				default:
					l.ApplyOp(p, OpFind, k)
				}
			}
		}(id)
	}
	wg.Wait()
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestReservedKeysAnswerFalse pins the one outcome an operation on a
// sentinel's key has, under both engines: false, on both the engine and the
// zero-persist read path, with the list unchanged. Before, a delete of 0
// unlinked the head, and an insert of 0 after it never returned.
func TestReservedKeysAnswerFalse(t *testing.T) {
	for _, mk := range []func(*pmem.Heap) *isb.Engine{isb.NewEngine, isb.NewEngineOpt} {
		h := pmem.NewHeap(pmem.Config{Words: 1 << 21, Procs: 1, Tracked: true})
		l := NewWithEngine(h, mk(h))
		p := h.Proc(0)
		l.Insert(p, 5)
		for _, key := range []uint64{MinKey, MaxKey} {
			for _, kind := range []uint64{OpDelete, OpInsert, OpFind, OpDelete, OpInsert} {
				if r := l.ApplyOp(p, kind, key); r != isb.RespFalse {
					t.Fatalf("kind %d on reserved key %d answered %d, want false", kind, key, r)
				}
			}
			if r := l.ReadOp(p, OpFind, key); r != isb.RespFalse {
				t.Fatalf("read of reserved key %d answered %d, want false", key, r)
			}
		}
		if keys := l.Keys(); len(keys) != 1 || keys[0] != 5 {
			t.Fatalf("keys %v after operations on reserved keys, want [5]", keys)
		}
		if msg := l.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		if !l.Insert(p, 7) || !isb.Bool(l.ApplyOp(p, OpDelete, 5)) {
			t.Fatal("the list no longer works after operations on reserved keys")
		}
	}
}

// TestIndexTakenByLongWalks pins the index's life on a list whose keys
// spread over the whole key range: none while walks stay short, one once a
// walk passes longWalk nodes, and then finds that pass a few nodes from
// their anchors, where a walk from the head would pass a thousand; every key
// found on both paths.
func TestIndexTakenByLongWalks(t *testing.T) {
	l, h := newList(t, 1)
	p := h.Proc(0)
	const n = 1 << 11
	key := func(i uint64) uint64 { return (2*i + 1) << 52 } // n keys, 16 a slot
	for i := uint64(0); i < n; i++ {
		if i == longWalk/2 && l.idx.Load() != nil {
			t.Fatalf("an index after %d inserts in order, whose walks pass at most that many nodes", i)
		}
		l.Insert(p, key(i))
	}
	if l.idx.Load() == nil {
		t.Fatalf("no index after %d inserts in order", n)
	}
	for i := uint64(0); i < n; i++ {
		if !isb.Bool(l.ReadOp(p, OpFind, key(i))) || !isb.Bool(l.ApplyOp(p, OpFind, key(i))) {
			t.Fatalf("key %#x not found", key(i))
		}
	}
	before := h.AccessCount()
	for i := uint64(0); i < n; i++ {
		l.ReadOp(p, OpFind, key(i))
	}
	if per := (h.AccessCount() - before) / n; per > longWalk/2 {
		t.Fatalf("a find makes %d accesses with %d keys to a slot, want at most %d", per, n/slots, longWalk/2)
	}
	if msg := l.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}
