package crash

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/isb"
	"repro/internal/linearize"
	"repro/internal/pmem"
	"repro/internal/stack"
)

// storm is one row of the storm table: procs processes of ops operations each
// on s, through crashes crashes spaced procs × ops × gap / (crashes+1) accesses
// apart on average, once per seed 1..seeds. A set's keys are 1..keys, evict is
// the heap's EvictEvery, and stress rows are skipped under -short.
type storm struct {
	test                         string
	s                            structure
	procs, ops, crashes, keys    int
	evict, heapWords, gap, seeds int
	stress                       bool
}

// storms is the storm table. A test with several rows runs them in order; the
// stack's eviction storm runs its seeds with the elimination window closed,
// then open, and Go names the second run's leaves seed=N#01.
func storms() []storm {
	list, bst, queue := structure{kind: repro.KindList}, structure{kind: repro.KindBST}, structure{kind: repro.KindQueue}
	stk, elim := structure{kind: repro.KindStack}, structure{kind: repro.KindStack, param: stack.DefaultElimSpins}
	hashmap := func(shards int) structure { return structure{kind: repro.KindHashMap, param: shards} }
	const sets, seqs = 1 << 22, 1 << 21 // heap words
	return []storm{
		// test, structure, procs, ops, crashes, keys, evict, heap words, gap, seeds, stress
		{"TestListSingleProcCrashStorm", list, 1, 60, 6, 8, 0, sets, 40, 8, false},
		{"TestListConcurrentCrashStorm", list, 4, 40, 5, 16, 0, sets, 40, 6, false},
		{"TestListCrashStormWithEviction", list, 4, 40, 5, 12, 3, sets, 40, 6, false},
		{"TestListHighCrashRate", list, 3, 30, 20, 8, 0, sets, 40, 4, false},
		{"TestListManyProcsFewKeysStorm", list, 8, 30, 6, 25, 4, sets, 40, 3, true},

		{"TestQueueSingleProcCrashStorm", queue, 1, 50, 6, 0, 0, seqs, 30, 8, false},
		{"TestQueueConcurrentCrashStorm", queue, 3, 20, 5, 0, 0, seqs, 30, 6, false},
		{"TestQueueCrashStormWithEviction", queue, 3, 20, 6, 0, 3, seqs, 30, 5, false},
		{"TestQueueHighCrashRate", queue, 2, 25, 15, 0, 0, seqs, 30, 4, false},

		{"TestStackSingleProcCrashStorm", stk, 1, 50, 6, 0, 0, seqs, 40, 8, false},
		{"TestStackConcurrentCrashStorm", stk, 3, 20, 5, 0, 0, seqs, 40, 5, false},
		{"TestStackCrashStormWithElimination", elim, 3, 20, 5, 0, 0, seqs, 40, 5, false},
		{"TestStackCrashStormWithEviction", stk, 3, 20, 6, 0, 3, seqs, 40, 5, false},
		{"TestStackCrashStormWithEviction", elim, 3, 20, 6, 0, 3, seqs, 40, 5, false},
		{"TestStackHighCrashRate", elim, 2, 25, 15, 0, 0, seqs, 40, 4, false},

		{"TestHashMapSingleProcCrashStorm", hashmap(4), 1, 60, 6, 8, 0, sets, 40, 8, false},
		{"TestHashMapConcurrentCrashStorm", hashmap(8), 4, 40, 5, 16, 0, sets, 40, 6, false},
		{"TestHashMapOneShardDegeneratesToList", hashmap(1), 4, 40, 5, 12, 0, sets, 40, 4, false},
		{"TestHashMapCrashStormWithEviction", hashmap(8), 4, 40, 5, 12, 3, sets, 40, 6, false},
		{"TestHashMapHighCrashRate", hashmap(8), 3, 30, 20, 8, 0, sets, 40, 4, false},
		{"TestHashMapManyProcsManyShardsStorm", hashmap(16), 8, 30, 6, 25, 4, sets, 40, 3, true},

		{"TestBSTSingleProcCrashStorm", bst, 1, 60, 6, 8, 0, sets, 50, 8, false},
		{"TestBSTConcurrentCrashStorm", bst, 4, 40, 5, 16, 0, sets, 50, 6, false},
		{"TestBSTCrashStormWithEviction", bst, 4, 40, 5, 12, 3, sets, 50, 5, false},
		{"TestBSTHighCrashRate", bst, 3, 30, 18, 8, 0, sets, 50, 4, false},
	}
}

// The storm tests, each its rows of the table. Eviction persists lines newer
// than the last flush; a high crash rate makes most operations recover.
func TestListSingleProcCrashStorm(t *testing.T)         { runStorm(t) }
func TestListConcurrentCrashStorm(t *testing.T)         { runStorm(t) }
func TestListCrashStormWithEviction(t *testing.T)       { runStorm(t) }
func TestListHighCrashRate(t *testing.T)                { runStorm(t) }
func TestListManyProcsFewKeysStorm(t *testing.T)        { runStorm(t) }
func TestQueueSingleProcCrashStorm(t *testing.T)        { runStorm(t) }
func TestQueueConcurrentCrashStorm(t *testing.T)        { runStorm(t) }
func TestQueueCrashStormWithEviction(t *testing.T)      { runStorm(t) }
func TestQueueHighCrashRate(t *testing.T)               { runStorm(t) }
func TestStackSingleProcCrashStorm(t *testing.T)        { runStorm(t) }
func TestStackConcurrentCrashStorm(t *testing.T)        { runStorm(t) }
func TestStackCrashStormWithElimination(t *testing.T)   { runStorm(t) }
func TestStackCrashStormWithEviction(t *testing.T)      { runStorm(t) }
func TestStackHighCrashRate(t *testing.T)               { runStorm(t) }
func TestHashMapSingleProcCrashStorm(t *testing.T)      { runStorm(t) }
func TestHashMapConcurrentCrashStorm(t *testing.T)      { runStorm(t) }
func TestHashMapOneShardDegeneratesToList(t *testing.T) { runStorm(t) }
func TestHashMapCrashStormWithEviction(t *testing.T)    { runStorm(t) }
func TestHashMapHighCrashRate(t *testing.T)             { runStorm(t) }
func TestHashMapManyProcsManyShardsStorm(t *testing.T)  { runStorm(t) }
func TestBSTSingleProcCrashStorm(t *testing.T)          { runStorm(t) }
func TestBSTConcurrentCrashStorm(t *testing.T)          { runStorm(t) }
func TestBSTCrashStormWithEviction(t *testing.T)        { runStorm(t) }
func TestBSTHighCrashRate(t *testing.T)                 { runStorm(t) }

// runStorm runs the table's rows named t on every engine variant, a subtest
// engine/seed=N per seed. A failing seed prints its crashes fired, operations
// recovered and the go test line that runs it alone; scheduling varies from
// run to run, so the line narrows a failure to a seed, not an interleaving.
func runStorm(t *testing.T) {
	var rows []storm
	for _, r := range storms() {
		if r.test == t.Name() {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("the storm table has no row for %s", t.Name())
	}
	if rows[0].stress && testing.Short() {
		t.Skip("stress")
	}
	for _, eng := range engineVariants {
		t.Run(eng.name, func(t *testing.T) {
			for _, r := range rows {
				for seed := int64(1); seed <= int64(r.seeds); seed++ {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						if res, msg := r.run(eng, seed); msg != "" {
							t.Fatalf("%s (%d crashes fired, %d ops recovered)\nre-run: %s",
								msg, res.CrashesFired, res.RecoveredOps, Rerun(t))
						}
					})
				}
			}
		})
	}
}

// run drives one storm of row r on engine eng and returns its result and its
// first violation, or "": a panic, an unresolved operation, a crash the heap
// did not see, a broken structural invariant, or the oracle's verdict.
func (r storm) run(eng engineVariant, seed int64) (res Result, msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint("panic: ", p)
		}
	}()
	h := pmem.NewHeap(pmem.Config{
		Words: r.heapWords, Procs: r.procs, Tracked: true, EvictEvery: uint64(r.evict), Seed: uint64(seed) + 1,
	})
	a := r.s.raw(h, eng.mk(h))
	res = Run(Config{
		Heap: h, Target: a, Procs: r.procs, OpsPerProc: r.ops, Gen: gen(r.s.kind, r.keys),
		Crashes: r.crashes, MeanAccessGap: r.procs * r.ops * r.gap / (r.crashes + 1), Seed: seed,
	})
	if n := r.procs * r.ops; len(res.History) != n || h.Epoch() != uint64(res.CrashesFired) {
		return res, fmt.Sprintf("%d of %d operations resolved; the heap restarted %d times", len(res.History), n, h.Epoch())
	}
	if msg := a.(interface{ CheckInvariants() string }).CheckInvariants(); msg != "" {
		return res, "structural invariant violated: " + msg
	}
	final, _ := snapshot(a)
	return res, stormOracle(r.s.kind, res.History, final)
}

func isSet(kind repro.StructKind) bool {
	return kind == repro.KindList || kind == repro.KindBST || kind == repro.KindHashMap
}

// gen is a storm's operation generator, one per model, drawing from each
// process's rng (procRand): a set operation its key, then its kind; a queue or
// stack operation add or remove, an add taking a value unique in the storm.
func gen(kind repro.StructKind, keys int) func(id, i int, rng *rand.Rand) Op {
	if isSet(kind) {
		return func(_, _ int, rng *rand.Rand) Op {
			k := uint64(rng.Intn(keys)) + 1
			return Op{Kind: [3]uint64{repro.OpInsert, repro.OpDelete, repro.OpFind}[rng.Intn(3)], Arg: k}
		}
	}
	add, remove := repro.OpEnq, repro.OpDeq
	if kind == repro.KindStack {
		add, remove = repro.OpPush, repro.OpPop
	}
	var next atomic.Uint64
	return func(_, _ int, rng *rand.Rand) Op {
		if rng.Intn(2) == 0 {
			return Op{Kind: add, Arg: next.Add(1)}
		}
		return Op{Kind: remove}
	}
}

// stormOracle is the one check of a storm's outcome: the history must be
// linearizable under the structure's sequential model — a set's key by key,
// a queue's or stack's whole — and for every key or value, successful adds
// minus successful removes must equal its copies in the final snapshot. It
// returns the first violation, or "".
func stormOracle(kind repro.StructKind, hist []linearize.Operation, final []uint64) string {
	if isSet(kind) {
		if k, ok := linearize.CheckSetHistory(hist); !ok {
			return fmt.Sprintf("history not linearizable at key %d", k)
		}
	} else if !linearize.Check(model(kind), hist) {
		return "history not linearizable"
	}
	excess := map[uint64]int{} // adds − removes − copies held
	for _, op := range hist {
		switch {
		case op.Resp == isb.RespTrue && (op.Kind == repro.OpInsert || op.Kind == repro.OpEnq || op.Kind == repro.OpPush):
			excess[op.Arg]++
		case op.Resp == isb.RespTrue && op.Kind == repro.OpDelete:
			excess[op.Arg]--
		case isb.IsValue(op.Resp): // a dequeue or pop
			excess[isb.DecodeValue(op.Resp)]--
		}
	}
	for _, v := range final {
		excess[v]--
	}
	for _, v := range slices.Sorted(maps.Keys(excess)) {
		if excess[v] != 0 {
			return fmt.Sprintf("%d: successful adds minus removes exceed its copies in the final snapshot by %d", v, excess[v])
		}
	}
	return ""
}

// TestStormCoverage enumerates the storm table without running it and pins
// its size, so that storm coverage cannot shrink silently: 24 tests and 136
// seeded storms per engine, 130 under -short.
func TestStormCoverage(t *testing.T) {
	want := map[repro.StructKind]int{repro.KindList: 27, repro.KindQueue: 23, repro.KindStack: 32, repro.KindHashMap: 31, repro.KindBST: 23}
	got, tests, short := map[repro.StructKind]int{}, map[string]bool{}, 0
	for _, r := range storms() {
		tests[r.test] = true
		got[r.s.kind] += r.seeds
		if !r.stress {
			short += r.seeds
		}
	}
	if !maps.Equal(got, want) || short != 130 || len(tests) != 24 {
		t.Errorf("%d storm tests, seeded storms per engine %v (%d under -short); want 24, %v (130)", len(tests), got, short, want)
	}
}

// TestStormOracle feeds the oracle hand-built histories, each wrong in one
// way, and requires it to reject every one; two sound ones pin that it accepts.
func TestStormOracle(t *testing.T) {
	yes, val := isb.RespTrue, isb.EncodeValue
	seq := func(ops ...[3]uint64) (hist []linearize.Operation) { // kind, arg, response
		for i, op := range ops {
			hist = append(hist, linearize.Operation{Kind: op[0], Arg: op[1], Resp: op[2], Start: uint64(2 * i), End: uint64(2*i + 1)})
		}
		return hist
	}
	enq1, enq2 := [3]uint64{repro.OpEnq, 1, yes}, [3]uint64{repro.OpEnq, 2, yes}
	deq := func(v uint64) [3]uint64 { return [3]uint64{repro.OpDeq, 0, val(v)} }
	for _, tc := range []struct {
		name  string
		kind  repro.StructKind
		hist  []linearize.Operation
		final []uint64
		ok    bool
	}{
		{"queue-sound", repro.KindQueue, seq(enq1, enq2, deq(1)), []uint64{2}, true},
		{"set-sound", repro.KindList, seq([3]uint64{repro.OpInsert, 5, yes}, [3]uint64{repro.OpFind, 5, yes}), []uint64{5}, true},
		{"removed-twice", repro.KindQueue, seq(enq1, deq(1), deq(1)), nil, false},
		{"removed-never-added", repro.KindStack, seq([3]uint64{repro.OpPop, 0, val(7)}), nil, false},
		{"removed-and-present", repro.KindQueue, seq(enq1, deq(1)), []uint64{1}, false},
		{"net-disagrees-with-presence", repro.KindHashMap, seq([3]uint64{repro.OpInsert, 5, yes}), nil, false},
		{"not-fifo", repro.KindQueue, seq(enq1, enq2, deq(2), deq(1)), nil, false},
	} {
		if msg := stormOracle(tc.kind, tc.hist, tc.final); (msg == "") != tc.ok {
			t.Errorf("%s: oracle says %q", tc.name, msg)
		}
	}
}

func TestStormReportsRecoveries(t *testing.T) {
	r := storm{s: structure{kind: repro.KindList}, procs: 2, ops: 100, crashes: 8, keys: 4, heapWords: 1 << 22, gap: 32}
	if res, msg := r.run(engineVariants[0], 99); msg != "" || res.CrashesFired == 0 || res.RecoveredOps == 0 {
		t.Fatalf("%q after %d crashes and %d recovered operations", msg, res.CrashesFired, res.RecoveredOps)
	}
}

func TestStormZeroCrashesIsPlainConcurrency(t *testing.T) {
	r := storm{s: structure{kind: repro.KindList}, procs: 4, ops: 50, keys: 10, heapWords: 1 << 22}
	if res, msg := r.run(engineVariants[0], 7); msg != "" || res.CrashesFired != 0 || res.RecoveredOps != 0 {
		t.Fatalf("%q after %d crashes and %d recovered operations", msg, res.CrashesFired, res.RecoveredOps)
	}
}

// TestHistoryCapPerKey guards the WGL size bound: no storm of the table routes
// more than linearize.MaxOps operations to one check, a set's key or a queue's
// or stack's whole history.
func TestHistoryCapPerKey(t *testing.T) {
	for _, r := range storms() {
		for seed := int64(1); seed <= int64(r.seeds); seed++ {
			g, counts := gen(r.s.kind, r.keys), map[uint64]int{}
			for id := range r.procs {
				rng := procRand(seed, id)
				for i := range r.ops {
					if k := g(id, i, rng).Arg; isSet(r.s.kind) {
						counts[k]++
					} else {
						counts[0]++
					}
				}
			}
			if n := slices.Max(slices.Collect(maps.Values(counts))); n > linearize.MaxOps {
				t.Errorf("%s seed %d: one check gets %d ops", r.test, seed, n)
			}
		}
	}
}
