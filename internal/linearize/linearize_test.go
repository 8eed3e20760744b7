package linearize

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// seqHistory builds a history that IS a sequential execution of the model
// (so it must always check out).
func seqHistory(m Model, kinds []uint64, args []uint64) []Operation {
	st := m.Init()
	var hist []Operation
	var clock uint64
	for i := range kinds {
		var resp uint64
		st, resp = m.Step(st, kinds[i], args[i])
		start := clock
		clock++
		end := clock
		clock++
		hist = append(hist, Operation{Proc: i % 3, Kind: kinds[i], Arg: args[i], Resp: resp, Start: start, End: end})
	}
	return hist
}

func TestEmptyHistoryLinearizable(t *testing.T) {
	if !Check(SetModel(), nil) {
		t.Fatal("empty history rejected")
	}
}

func TestSequentialSetHistoryAccepted(t *testing.T) {
	kinds := []uint64{KindInsert, KindFind, KindInsert, KindDelete, KindFind}
	args := []uint64{5, 5, 5, 5, 5}
	if !Check(SetModel(), seqHistory(SetModel(), kinds, args)) {
		t.Fatal("valid sequential history rejected")
	}
}

func TestWrongResponseRejected(t *testing.T) {
	h := seqHistory(SetModel(), []uint64{KindInsert, KindFind}, []uint64{1, 1})
	h[1].Resp = RespFalse // Find(1) after Insert(1) cannot be false sequentially
	if Check(SetModel(), h) {
		t.Fatal("invalid history accepted")
	}
}

func TestOverlapAllowsReorder(t *testing.T) {
	// Insert(1) and Find(1)=false overlap: Find may linearize first.
	h := []Operation{
		{Kind: KindInsert, Arg: 1, Resp: RespTrue, Start: 0, End: 10},
		{Kind: KindFind, Arg: 1, Resp: RespFalse, Start: 1, End: 9},
	}
	if !Check(SetModel(), h) {
		t.Fatal("overlapping reorder rejected")
	}
	// But if the Find strictly follows the Insert, false is impossible.
	h[1].Start, h[1].End = 11, 12
	if Check(SetModel(), h) {
		t.Fatal("real-time order violated yet accepted")
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// Two sequential Inserts of the same key: second must return false.
	h := []Operation{
		{Kind: KindInsert, Arg: 7, Resp: RespTrue, Start: 0, End: 1},
		{Kind: KindInsert, Arg: 7, Resp: RespTrue, Start: 2, End: 3},
	}
	if Check(SetModel(), h) {
		t.Fatal("double successful insert accepted")
	}
	h[1].Resp = RespFalse
	if !Check(SetModel(), h) {
		t.Fatal("insert/insert-false rejected")
	}
}

func TestQueueModelFIFO(t *testing.T) {
	m := QueueModel()
	h := []Operation{
		{Kind: KindEnq, Arg: 1, Resp: RespTrue, Start: 0, End: 1},
		{Kind: KindEnq, Arg: 2, Resp: RespTrue, Start: 2, End: 3},
		{Kind: KindDeq, Resp: EncodeValue(1), Start: 4, End: 5},
		{Kind: KindDeq, Resp: EncodeValue(2), Start: 6, End: 7},
		{Kind: KindDeq, Resp: RespEmpty, Start: 8, End: 9},
	}
	if !Check(m, h) {
		t.Fatal("valid FIFO history rejected")
	}
	// LIFO order must be rejected.
	h[2].Resp, h[3].Resp = EncodeValue(2), EncodeValue(1)
	if Check(m, h) {
		t.Fatal("LIFO over a queue accepted")
	}
}

func TestQueueOverlappingEnqueues(t *testing.T) {
	m := QueueModel()
	// Two overlapping enqueues: either dequeue order is linearizable.
	h := []Operation{
		{Kind: KindEnq, Arg: 1, Resp: RespTrue, Start: 0, End: 10},
		{Kind: KindEnq, Arg: 2, Resp: RespTrue, Start: 0, End: 10},
		{Kind: KindDeq, Resp: EncodeValue(2), Start: 11, End: 12},
		{Kind: KindDeq, Resp: EncodeValue(1), Start: 13, End: 14},
	}
	if !Check(m, h) {
		t.Fatal("overlapping enqueue reorder rejected")
	}
}

func TestStackModelLIFO(t *testing.T) {
	m := StackModel()
	h := []Operation{
		{Kind: KindPush, Arg: 1, Resp: RespTrue, Start: 0, End: 1},
		{Kind: KindPush, Arg: 2, Resp: RespTrue, Start: 2, End: 3},
		{Kind: KindPop, Resp: EncodeValue(2), Start: 4, End: 5},
		{Kind: KindPop, Resp: EncodeValue(1), Start: 6, End: 7},
		{Kind: KindPop, Resp: RespEmpty, Start: 8, End: 9},
	}
	if !Check(m, h) {
		t.Fatal("valid LIFO history rejected")
	}
	h[2].Resp, h[3].Resp = EncodeValue(1), EncodeValue(2)
	if Check(m, h) {
		t.Fatal("FIFO over a stack accepted")
	}
}

func TestCheckSetHistoryDecomposition(t *testing.T) {
	var hist []Operation
	var clock uint64
	for k := uint64(1); k <= 30; k++ { // 30 keys × 3 ops = 90 ops > MaxOps
		for _, kind := range []uint64{KindInsert, KindFind, KindDelete} {
			hist = append(hist, Operation{Kind: kind, Arg: k, Resp: RespTrue, Start: clock, End: clock + 1})
			clock += 2
		}
	}
	if k, ok := CheckSetHistory(hist); !ok {
		t.Fatalf("valid decomposed history rejected at key %d", k)
	}
	hist[1].Resp = RespFalse // Find(1) right after Insert(1)
	if _, ok := CheckSetHistory(hist); ok {
		t.Fatal("invalid decomposed history accepted")
	}
}

// TestQuickSequentialAlwaysLinearizable: any history generated by actually
// running the model sequentially must be accepted, for all three models.
func TestQuickSequentialAlwaysLinearizable(t *testing.T) {
	models := map[string]Model{"set": SetModel(), "queue": QueueModel(), "stack": StackModel()}
	kindsFor := map[string][]uint64{
		"set":   {KindInsert, KindDelete, KindFind},
		"queue": {KindEnq, KindDeq},
		"stack": {KindPush, KindPop},
	}
	for name, m := range models {
		m := m
		ks := kindsFor[name]
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := rng.Intn(20) + 1
			kinds := make([]uint64, n)
			args := make([]uint64, n)
			for i := range kinds {
				kinds[i] = ks[rng.Intn(len(ks))]
				args[i] = uint64(rng.Intn(5) + 1)
			}
			return Check(m, seqHistory(m, kinds, args))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestQuickMutatedResponseUsuallyRejected: flipping a boolean response in a
// same-key sequential set history must always break linearizability when
// the op is a Find (its response is uniquely determined).
func TestQuickMutatedFindRejected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		kinds := make([]uint64, n)
		args := make([]uint64, n)
		for i := range kinds {
			kinds[i] = []uint64{KindInsert, KindDelete, KindFind}[rng.Intn(3)]
			args[i] = 1 // single key: every response is determined
		}
		h := seqHistory(SetModel(), kinds, args)
		i := rng.Intn(n)
		if h[i].Resp == RespTrue {
			h[i].Resp = RespFalse
		} else {
			h[i].Resp = RespTrue
		}
		return !Check(SetModel(), h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPanicsBeyondMaxOps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized history not rejected")
		}
	}()
	big := make([]Operation, MaxOps+1)
	for i := range big {
		big[i] = Operation{Kind: KindFind, Arg: 1, Resp: RespFalse,
			Start: uint64(2 * i), End: uint64(2*i + 1)}
	}
	Check(SetModel(), big)
}

// TestBatchProgramOrder: members of one batch share the window's
// timestamps but must linearize in Seq order. An insert followed by a find
// of the same key inside one batch can only answer true; without the Seq
// constraint the find could linearize first and false would pass.
func TestBatchProgramOrder(t *testing.T) {
	batch := func(proc int, start, end uint64, ops ...Operation) []Operation {
		for i := range ops {
			ops[i].Proc = proc
			ops[i].Start, ops[i].End = start, end
			ops[i].Seq = uint64(i)
		}
		return ops
	}

	bad := batch(0, 1, 10,
		Operation{Kind: KindInsert, Arg: 5, Resp: RespTrue},
		Operation{Kind: KindFind, Arg: 5, Resp: RespFalse},
	)
	if _, ok := CheckSetHistory(bad); ok {
		t.Fatal("find=false after same-batch insert accepted: intra-batch program order not enforced")
	}

	good := batch(0, 1, 10,
		Operation{Kind: KindInsert, Arg: 5, Resp: RespTrue},
		Operation{Kind: KindFind, Arg: 5, Resp: RespTrue},
	)
	if _, ok := CheckSetHistory(good); !ok {
		t.Fatal("consistent single-proc batch rejected")
	}
}

// TestBatchInterleavedAcrossProcs: two procs' batches over one key with
// overlapping windows. The responses only admit a linearization that
// interleaves the two batches (p1's delete=true needs p0's insert first,
// p0's later find=false needs p1's delete in between), which per-batch
// program order permits; flipping p0's find to true AND p1's find to false
// admits none.
func TestBatchInterleavedAcrossProcs(t *testing.T) {
	mk := func(p0find, p1find uint64) []Operation {
		return []Operation{
			{Proc: 0, Kind: KindInsert, Arg: 5, Resp: RespTrue, Start: 1, End: 10, Seq: 0},
			{Proc: 0, Kind: KindFind, Arg: 5, Resp: p0find, Start: 1, End: 10, Seq: 1},
			{Proc: 1, Kind: KindDelete, Arg: 5, Resp: RespTrue, Start: 2, End: 11, Seq: 0},
			{Proc: 1, Kind: KindFind, Arg: 5, Resp: p1find, Start: 2, End: 11, Seq: 1},
		}
	}
	if _, ok := CheckSetHistory(mk(RespFalse, RespFalse)); !ok {
		t.Fatal("interleavable cross-proc batches rejected")
	}
	if _, ok := CheckSetHistory(mk(RespTrue, RespTrue)); !ok {
		// insert, find=true, delete, find... p1's find would need the key
		// present after its own delete — only satisfiable by ordering p0's
		// whole batch after p1's delete and before p1's find: delete=true
		// needs a prior insert though. Sanity-check the checker agrees.
		t.Log("note: mk(true,true) accepted")
	}
	if _, ok := CheckSetHistory(mk(RespFalse, RespTrue)); ok {
		t.Fatal("contradictory batch interleaving accepted: p0 find=false needs delete between p0's ops, p1 find=true needs insert after delete — but p0's insert precedes its find")
	}
}
