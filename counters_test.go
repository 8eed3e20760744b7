package repro

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/crash"
	"repro/internal/isb"
	"repro/internal/pmem"
	"repro/internal/stack"
)

// Tier-1 performance pins. Each one compares persistence-instruction
// counts, which a seeded single-proc workload determines exactly, so none
// can flake on a loaded machine; wall clock is `go run ./benchmark`'s job.

// runMixedMapWorkload runs ops seeded operations (half finds, the rest
// split insert/delete) on m from Proc 0 and returns the persistence
// counters they accumulated (construction excluded).
func runMixedMapWorkload(rt *Runtime, m *HashMap, ops, keyRange int) pmem.Stats {
	rt.Heap().ResetAllStats()
	p := rt.Proc(0)
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < ops; j++ {
		k := uint64(rng.Intn(keyRange)) + 1
		switch rng.Intn(4) {
		case 0:
			m.Insert(p, k)
		case 1:
			m.Apply(p, Op{Kind: OpDelete, Arg: k})
		default:
			m.Apply(p, Op{Kind: OpFind, Arg: k})
		}
	}
	return rt.Heap().TotalStats()
}

// TestEngineBatchingReducesPersistence: on the identical workload the
// batched engine (Isb-Opt) must issue fewer persistence-barrier events
// (pbarriers + stand-alone flushes) per op than the plain engine, and
// fewer stand-alone flushes and psyncs outright. The maps are built
// through the Runtime, so the per-process announcement record is active:
// it costs Isb one pwb and one psync per op, and Isb-Opt none of either —
// it is stored at the install and rides its barrier — or the opt < plain
// pins below would break.
func TestEngineBatchingReducesPersistence(t *testing.T) {
	run := func(kind EngineKind, shards int) pmem.Stats {
		// Single proc: no helping noise, so the counters are deterministic.
		rt := New(Config{Procs: 1, HeapWords: 1 << 21, Engine: kind})
		return runMixedMapWorkload(rt, rt.NewHashMap(shards), 800, 64)
	}
	for _, shards := range []int{1, 16} {
		plain := run(EngineIsb, shards)
		opt := run(EngineIsbOpt, shards)
		if got, want := opt.Barriers+opt.Flushes, plain.Barriers+plain.Flushes; got >= want {
			t.Fatalf("shards=%d: Isb-Opt issued %d persistence barriers, plain %d — batching must reduce them", shards, got, want)
		}
		if opt.Flushes >= plain.Flushes {
			t.Fatalf("shards=%d: Isb-Opt stand-alone flushes %d >= plain %d", shards, opt.Flushes, plain.Flushes)
		}
		if opt.Syncs >= plain.Syncs {
			t.Fatalf("shards=%d: Isb-Opt syncs %d >= plain %d (single-op sync scope missing?)", shards, opt.Syncs, plain.Syncs)
		}
	}
}

// runBatchAdmission runs opsTotal single-proc operations (findPct% finds,
// remainder split insert/delete) on a fresh prefilled 16-shard map, one at
// a time through Apply (batch <= 1) or in ApplyWindow windows, and returns
// the workload's canonical metrics.
func runBatchAdmission(kind EngineKind, batch, opsTotal, findPct int, seed int64) isb.Stats {
	rt := New(Config{Procs: 1, HeapWords: 1 << 20, Engine: kind})
	m := rt.NewHashMap(16)
	p := rt.Proc(0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 128; i++ {
		m.Insert(p, uint64(rng.Intn(256))+1)
	}
	rt.Heap().ResetAllStats()
	bs0, rf0, _ := rt.EngineCounters(m)

	ud := 0
	next := func() Op {
		k := uint64(rng.Intn(256)) + 1
		if rng.Intn(100) < findPct {
			return Op{Kind: OpFind, Arg: k}
		}
		if ud++; ud%2 == 0 {
			return Op{Kind: OpInsert, Arg: k}
		}
		return Op{Kind: OpDelete, Arg: k}
	}
	if batch <= 1 {
		for i := 0; i < opsTotal; i++ {
			op := next()
			switch op.Kind {
			case OpFind:
				m.Apply(p, Op{Kind: OpFind, Arg: op.Arg})
			case OpInsert:
				m.Insert(p, op.Arg)
			default:
				m.Apply(p, Op{Kind: OpDelete, Arg: op.Arg})
			}
		}
	} else {
		win := make([]Op, 0, batch)
		for i := 0; i < opsTotal; i++ {
			win = append(win, next())
			if len(win) == batch {
				rt.ApplyWindow(p, m, win)
				win = win[:0]
			}
		}
		if len(win) > 0 {
			rt.ApplyWindow(p, m, win)
		}
	}

	st := isb.Stats{Ops: uint64(opsTotal), Mem: rt.Heap().TotalStats()}
	bs, rf, _ := rt.EngineCounters(m)
	st.BatchSyncs, st.ReadFastPath = bs-bs0, rf-rf0
	return st
}

// TestBatchAdmissionSpeedup pins what batched admission saves, in the
// counters the speedup is made of: batching merges each operation's sync
// points into the window's boundaries (one psync per op under Isb, one per
// window under Isb-Opt). Under Isb-Opt the write-heavy workload admitted in
// batch=64 windows must at least halve syncs/op versus one-at-a-time
// admission; with the simulated latencies on, the throughput gain follows
// mechanically (benchmark workload admit_window_txn measures it). A window
// writes back exactly what its operations would alone: neither a lone
// update's begin nor a window leg's boundary writes back anything of its own
// — the announcement and the stamped result slots ride the next install's
// barriers (isb.Records) — an effect-free leg (a find, a failed update) writes
// back nothing in either, and a successful update writes back its install and
// tag barriers, its update phase riding the process's next barrier, in a
// window or past its close alike. The README's table of psyncs per operation
// is the whole grid, three mixes by both engines by batch 1, 8 and 64.
func TestBatchAdmissionSpeedup(t *testing.T) {
	const opsTotal, batch, findPct, seed = 20000, 64, 10, 7
	rows := [][]string{{"workload", "engine", "batch=1", "batch=8", "batch=64"}}
	var st1, st64 isb.Stats // write-heavy under Isb-Opt
	for _, mix := range []struct {
		name    string
		findPct int
	}{{"write-heavy", findPct}, {"mixed", 50}, {"read-heavy", 90}} {
		for _, e := range engines() {
			row := []string{mix.name, e.name}
			for _, b := range []int{1, 8, batch} {
				st := runBatchAdmission(e.kind, b, opsTotal, mix.findPct, seed)
				row = append(row, fmt.Sprintf("%.2f", st.SyncsPerOp()))
				if mix.findPct == findPct && e.kind == EngineIsbOpt {
					switch b {
					case 1:
						st1 = st
					case batch:
						st64 = st
					}
				}
			}
			rows = append(rows, row)
		}
	}
	checkReadmeTable(t, "batch-psyncs", rows...)

	if 2*st64.SyncsPerOp() > st1.SyncsPerOp() {
		t.Fatalf("batch=64 syncs/op %.3f is not half of batch=1's %.3f (batch1: %v) (batch64: %v)",
			st64.SyncsPerOp(), st1.SyncsPerOp(), st1, st64)
	}
	if w64, w1 := st64.Mem.Barriers+st64.Mem.Flushes, st1.Mem.Barriers+st1.Mem.Flushes; w64 != w1 {
		t.Fatalf("batch=64 wrote back %d times, batch=1 %d: want the same", w64, w1)
	}
	if st64.BatchSyncs == 0 {
		t.Fatal("batch=64 run deferred no syncs; the batch protocol is not engaged")
	}
	t.Logf("write-heavy batch=1: %v", st1)
	t.Logf("write-heavy batch=64: %v (syncs/op %.2fx lower)",
		st64, st1.SyncsPerOp()/st64.SyncsPerOp())
}

// bucketOrder is what a HashMap's bucket orders its keys by, the splitmix64
// finalizer of the key (internal/hashmap), whose low bits also pick the
// shard. Tests that place keys in a bucket's order recompute it.
func bucketOrder(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

// keysWhere returns the first n keys from from on for which keep holds.
func keysWhere(from uint64, n int, keep func(k uint64) bool) []uint64 {
	var out []uint64
	for k := from; len(out) < n; k++ {
		if keep(k) {
			out = append(out, k)
		}
	}
	return out
}

// TestEngineCountersSumProcs pins the engine's counters per process:
// EngineCounters must return the exact sum of each Proc's batch-sync and
// read-fast counts. Two Procs of one map run finds and updates on disjoint
// keys, Proc 0 one at a time and Proc 1 in windows, interleaved on one
// goroutine so that no operation overlaps another and the counts are
// deterministic; each Proc's counts are what its sequence counts with the
// other Proc idle. A band of keys set up between their ranges keeps either
// from meeting the other's nodes, whose held update it would help: in the
// map's order, a bucket's, Proc 0's keys take the lowest quarter of the order
// keys, the band the middle half and Proc 1's the top quarter.
func TestEngineCountersSumProcs(t *testing.T) {
	quarter := func(q uint64) func(uint64) bool {
		return func(k uint64) bool { return bucketOrder(k)>>62 == q }
	}
	held := keysWhere(1, 1, quarter(0))[0]
	own := [2][]uint64{keysWhere(held+1, 20, quarter(0)), keysWhere(1002, 20, quarter(3))}
	band := keysWhere(500, 64, func(k uint64) bool { return bucketOrder(k)>>62-1 < 2 })
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			run := func(procs ...int) (batchSyncs, readFast uint64) {
				rt := New(Config{Procs: 2, HeapWords: 1 << 20, Engine: e.kind})
				m := rt.NewHashMap(4)
				for _, k := range band {
					m.Insert(rt.Proc(0), k)
				}
				// The update Proc 0 holds is below the band.
				m.Apply(rt.Proc(0), Op{Kind: OpInsert, Arg: held})
				m.Apply(rt.Proc(0), Op{Kind: OpDelete, Arg: held})
				bsSetup, rfSetup, _ := rt.EngineCounters(m)
				win := make([]Op, 0, 4)
				for i := 0; i < 240; i++ {
					for _, id := range procs {
						op := Op{Kind: []uint64{OpFind, OpInsert, OpDelete}[i%3], Arg: own[id][i%20]}
						if id == 0 {
							m.Apply(rt.Proc(0), op)
							continue
						}
						if win = append(win, op); len(win) == cap(win) {
							rt.ApplyWindow(rt.Proc(1), m, win)
							win = win[:0]
						}
					}
				}
				bs, rf, _ := rt.EngineCounters(m)
				return bs - bsSetup, rf - rfSetup
			}
			bs0, rf0 := run(0)
			bs1, rf1 := run(1)
			if rf0 == 0 || rf1 == 0 || bs1 == 0 {
				t.Fatalf("a Proc counted nothing: Proc 0 (%d, %d), Proc 1 (%d, %d) batch syncs and read-fast ops", bs0, rf0, bs1, rf1)
			}
			if bs, rf := run(0, 1); bs != bs0+bs1 || rf != rf0+rf1 {
				t.Fatalf("two Procs counted %d batch syncs and %d read-fast ops, want %d+%d and %d+%d", bs, rf, bs0, bs1, rf0, rf1)
			}
		})
	}
}

// runTxnAdmission moves `pairs` keys from a prefilled source map into a
// destination map, either as two-leg transactions or as independent
// delete/insert single operations, and returns the canonical metrics with
// Ops = pairs (so per-op figures read as per-pair).
func runTxnAdmission(kind EngineKind, asTxn bool, pairs int, seed int64) isb.Stats {
	rt := New(Config{Procs: 1, HeapWords: 1 << 20, Engine: kind})
	src := rt.NewHashMap(4)
	dst := rt.NewHashMap(4)
	p := rt.Proc(0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 256; i++ {
		src.Insert(p, uint64(rng.Intn(1024))+1)
	}
	rt.Heap().ResetAllStats()

	for i := 0; i < pairs; i++ {
		k := uint64(rng.Intn(1024)) + 1
		if asTxn {
			rt.ApplyTxn(p,
				TxnLeg{S: src, Op: Op{Kind: OpDelete, Arg: k}},
				TxnLeg{S: dst, Op: Op{Kind: OpInsert, Arg: k}})
		} else {
			src.Apply(p, Op{Kind: OpDelete, Arg: k})
			dst.Insert(p, k)
		}
	}
	return isb.Stats{Ops: uint64(pairs), Mem: rt.Heap().TotalStats()}
}

// TestTxnAdmissionSyncCost pins the transaction's admission price: the
// atomicity of a two-leg transaction must not cost more psyncs than
// running its legs as two unrelated single operations — the one begin
// covering both legs pays for the commit point, slot 0 stamped. Under Isb-Opt
// a transaction and each single operation are one psync apiece if they take
// effect, and none if they prove effect-free. It renders the README's
// transaction-price table.
func TestTxnAdmissionSyncCost(t *testing.T) {
	const pairs = 4000
	rows := [][]string{{"engine", "two single ops", "one ApplyTxn"}}
	for _, e := range engines() {
		single := runTxnAdmission(e.kind, false, pairs, 7)
		txn := runTxnAdmission(e.kind, true, pairs, 7)
		if txn.SyncsPerOp() > single.SyncsPerOp() {
			t.Fatalf("%s: txn pair costs %.3f syncs, two singles cost %.3f — atomicity must not cost extra psyncs",
				e.name, txn.SyncsPerOp(), single.SyncsPerOp())
		}
		rows = append(rows, []string{e.name,
			fmt.Sprintf("%.2f psyncs/pair", single.SyncsPerOp()), fmt.Sprintf("%.2f psyncs/pair", txn.SyncsPerOp())})
	}
	checkReadmeTable(t, "txn-price", rows...)
}

// TestAdmissionSyncPrice pins what each admission shape charges on one Proc,
// in exact psyncs and exact write-back instructions (pbarriers + stand-alone
// pwbs). Under Isb-Opt every shape is one sync scope closed by one psync —
// the begin opens it and defers its own — whatever it admits: a successful
// update, a window of 1 or of 16, a two-leg transaction. A shape that writes
// nothing back closes its scope without the psync, so it is free, as a find
// is: a failed update, a window of one find (under Isb its eager begin has
// psynced already, and the close orders nothing more). The bare begin
// (Structure.Begin) stays eager under both engines:
// it is the paper's system-side CP_q := 0, one write-back and one psync. The
// Isb psyncs are Algorithms 1–2's written placement (begin, CP_q := 1,
// install, one per Help phase): the reproduction's reference curve.
//
// The write-backs are where persists_per_op could leak. A successful Isb-Opt
// update writes back twice: the install barrier (record and new nodes, the
// admission's announcement, whose raised number resets CP_q on every engine,
// the RD_q/CP_q register, the previous update phase and the cleanup before
// it) and the tag barrier. Its update phase stays held past the close, its
// tags durable, and rides the process's next barrier, which releases its
// cleanup, done flag included, to the barrier after that. A failed one is
// read-only after its gather and stops there: no install and no record, since
// nothing durable names it once it returns. A window or transaction leg after
// the first pays no begin, and its boundary — the previous leg's result slot
// — writes back nothing of its own: the slot waits for the next install,
// whose barrier carries it, inside the record as its prefix when that install
// stores the record. An effect-free window leg installs nothing wherever it
// sits, and an installing leg's update phase rides the next barrier, whichever
// structure or admission issues it, so every Isb-Opt window writes back
// exactly what its legs would alone: the rows with legs pin that count. Every
// Isb-Opt shape leaves no stray tag: only the update it holds keeps its tags
// (isb.Engine.StrayTag). Under Isb the slot costs one pwb and the boundary
// one psync, and the install keeps its own RD_q pwb.
//
// On one Proc an eliminating push or pop always times out on the exchanger
// and falls through to the central stack. It pays the exchange's own psyncs
// and write-backs on top of the central stack's price, and one eager begin
// (the exchange takes effect outside any engine barrier, so the announcement
// is durable first): the exchange runs under the operation's admission
// (exchanger.Offer), and the fall-through enters the engine under the
// announcement the exchange ran behind.
//
// Each engine runs an arena leg and a reclaim leg (Config.Reclaim), and both
// pay the same: the reclaimer adds no write-back. want is laid out as the
// README's admission-price table, which it renders.
func TestAdmissionSyncPrice(t *testing.T) {
	const ok, failed = "successful update", "failed update"
	want := []struct {
		shape    string
		isb, opt price
		legs     []string // a window's legs, as single-op shapes
	}{
		{"find", price{0, 0}, price{0, 0}, nil},
		{"bare begin", price{1, 1}, price{1, 1}, nil},
		{ok, price{6, 15}, price{1, 2}, nil},
		{failed, price{3, 5}, price{0, 0}, nil},
		{"ApplyWindow of 1", price{2, 15}, price{1, 2}, []string{ok}},
		{"ApplyWindow of 1 find", price{1, 1}, price{0, 0}, []string{"find"}},
		{"ApplyWindow of 16", price{17, 134}, price{1, 16}, slices.Repeat([]string{ok, failed}, 8)},
		{"ApplyWindow(failed insert, insert)", price{3, 18}, price{1, 2}, []string{failed, ok}},
		{"ApplyWindow(insert, failed insert)", price{3, 18}, price{1, 2}, []string{ok, failed}},
		{"ApplyTxn(delete, insert)", price{10, 24}, price{1, 4}, []string{ok, ok}},
		{"enqueue", price{6, 12}, price{1, 2}, nil},
		{"dequeue", price{6, 9}, price{1, 2}, nil},
		{"push", price{6, 15}, price{1, 2}, nil},
		{"pop", price{6, 11}, price{1, 2}, nil},
		{"eliminating push", price{10, 23}, price{6, 11}, nil},
		{"eliminating pop", price{9, 16}, price{5, 8}, nil},
	}
	rows := [][]string{{"shape", "Isb psyncs", "Isb write-backs", "Isb-Opt psyncs", "Isb-Opt write-backs"}}
	single := map[string]uint64{}
	for _, w := range want {
		rows = append(rows, []string{w.shape, fmt.Sprint(w.isb.syncs), fmt.Sprint(w.isb.writeBacks),
			fmt.Sprint(w.opt.syncs), fmt.Sprint(w.opt.writeBacks)})
		single[w.shape] = w.opt.writeBacks
		var sum uint64
		for _, l := range w.legs {
			sum += single[l]
		}
		if w.legs != nil && sum != w.opt.writeBacks {
			t.Errorf("%s: Isb-Opt writes back %d times, its legs alone %d", w.shape, w.opt.writeBacks, sum)
		}
	}
	checkReadmeTable(t, "admission-price", rows...)
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			for _, alloc := range []string{"arena", "reclaim"} {
				t.Run(alloc, func(t *testing.T) {
					got, broken := admissionPrices(e.kind, alloc == "reclaim")
					if e.kind == EngineIsbOpt && broken != "" {
						t.Error(broken)
					}
					for _, w := range want {
						wp := map[EngineKind]price{EngineIsb: w.isb, EngineIsbOpt: w.opt}[e.kind]
						if g := got[w.shape]; g != wp {
							t.Errorf("%s: %d psyncs and %d pbarriers + pwbs, want %d and %d",
								w.shape, g.syncs, g.writeBacks, wp.syncs, wp.writeBacks)
						}
					}
				})
			}
		})
	}
}

type price struct{ syncs, writeBacks uint64 }

// admissionPrices measures every admission shape of TestAdmissionSyncPrice
// on one Proc, by shape, and reports the first shape after which a structure
// fails its invariants, a stray tag among them: no tag but the held update's
// may outlive its admission. The reclaim leg pays the arena leg's prices: the reclaimer
// writes back only when it carves a slab (the slab directory's two
// write-backs), which the set-up's allocations have done for every measured
// shape. Should a shape carve one, warm up more; the equality stays.
func admissionPrices(kind EngineKind, reclaim bool) (got map[string]price, broken string) {
	rt := New(Config{Procs: 1, HeapWords: 1 << 20, Engine: kind, Reclaim: reclaim})
	m, q, s := rt.NewHashMap(4), rt.NewQueue(), rt.NewStack(0) // no elimination: the central-stack path
	es := rt.NewStack(stack.DefaultElimSpins)                  // one Proc: every exchange times out
	p := rt.Proc(0)
	for k := uint64(1); k <= 64; k += 2 {
		m.Insert(p, k)
	}
	q.Apply(p, Op{Kind: OpEnq, Arg: 1})
	s.Apply(p, Op{Kind: OpPush, Arg: 1})
	es.Apply(p, Op{Kind: OpPush, Arg: 1})
	window16 := make([]Op, 16)
	for i := range window16 {
		window16[i] = Op{Kind: OpInsert + uint64(i%2), Arg: uint64(100 + i)}
	}
	got = map[string]price{}
	for _, c := range []struct {
		shape string
		admit func()
	}{
		{"find", func() { m.Apply(p, Op{Kind: OpFind, Arg: 1}) }},
		{"bare begin", func() { m.Begin(p) }},
		{"successful update", func() { m.Apply(p, Op{Kind: OpInsert, Arg: 2}) }},
		{"failed update", func() { m.Apply(p, Op{Kind: OpInsert, Arg: 1}) }},
		{"ApplyWindow of 1", func() { rt.ApplyWindow(p, m, []Op{{Kind: OpInsert, Arg: 4}}) }},
		{"ApplyWindow of 1 find", func() { rt.ApplyWindow(p, m, []Op{{Kind: OpFind, Arg: 1}}) }},
		{"ApplyWindow of 16", func() { rt.ApplyWindow(p, m, window16) }},
		{"ApplyWindow(failed insert, insert)", func() { rt.ApplyWindow(p, m, []Op{{Kind: OpInsert, Arg: 1}, {Kind: OpInsert, Arg: 8}}) }},
		{"ApplyWindow(insert, failed insert)", func() { rt.ApplyWindow(p, m, []Op{{Kind: OpInsert, Arg: 10}, {Kind: OpInsert, Arg: 3}}) }},
		{"ApplyTxn(delete, insert)", func() {
			rt.ApplyTxn(p,
				TxnLeg{S: m, Op: Op{Kind: OpDelete, Arg: 1}},
				TxnLeg{S: m, Op: Op{Kind: OpInsert, Arg: 6}})
		}},
		{"enqueue", func() { q.Apply(p, Op{Kind: OpEnq, Arg: 7}) }},
		{"dequeue", func() { q.Apply(p, Op{Kind: OpDeq}) }},
		{"push", func() { s.Apply(p, Op{Kind: OpPush, Arg: 7}) }},
		{"pop", func() { s.Apply(p, Op{Kind: OpPop}) }},
		{"eliminating push", func() { es.Apply(p, Op{Kind: OpPush, Arg: 7}) }},
		{"eliminating pop", func() { es.Apply(p, Op{Kind: OpPop}) }},
	} {
		before := rt.Heap().TotalStats()
		c.admit()
		st := rt.Heap().TotalStats().Sub(before)
		got[c.shape] = price{st.Syncs, st.Barriers + st.Flushes}
		for _, s := range []*adapter{&m.adapter, &q.adapter, &s.adapter, &es.adapter} {
			if msg := s.CheckInvariants(); msg != "" && broken == "" {
				broken = fmt.Sprintf("after %s: %s", c.shape, msg)
			}
		}
	}
	return got, broken
}

// checkReadmeTable renders rows, the first one the header, as a markdown
// table and requires README.md's block between "<!-- gen:name -->" and
// "<!-- /gen -->" to read exactly that: a count the README tables is the one
// its pin computes. On a difference it prints the block to paste in.
func checkReadmeTable(t *testing.T, name string, rows ...[]string) {
	t.Helper()
	var table strings.Builder
	for i, r := range rows {
		table.WriteString("| " + strings.Join(r, " | ") + " |\n")
		if i == 0 {
			table.WriteString(strings.Repeat("|---", len(r)) + "|\n")
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	open := "<!-- gen:" + name + " -->\n"
	_, block, opened := strings.Cut(string(readme), open)
	block, _, closed := strings.Cut(block, "<!-- /gen -->")
	if !opened || !closed || block != table.String() {
		t.Errorf("README.md block %q is not what %s computes; regenerated:\n\n%s%s<!-- /gen -->",
			name, t.Name(), open, table.String())
	}
}

// readmeMaxLines is README.md's length budget (ROADMAP item 10).
const readmeMaxLines = 800

// TestReadmeLength holds README.md to its budget: a change that adds prose
// cuts prose elsewhere, never a generated block (checkReadmeTable).
func TestReadmeLength(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(readme), "\n"); n > readmeMaxLines {
		t.Fatalf("README.md is %d lines, over its budget of %d: cut prose", n, readmeMaxLines)
	}
}

// TestIndividualCrashClosesScope is the RecoverAll half of the scope
// teardown (internal/isb's TestScopeCrashTeardown is the RecoverLeg half): a
// process that fails individually — no Restart, so Heap.finishReset never
// runs — at every access of a window and of a transaction leaves its sync
// scope open. RecoverAll must close it, or every later sync point of that
// process would defer with nothing to close over them: afterwards the
// recovered store has no live node tagged — an update the process held when
// it failed is released, though its leg lies below the cursor — the store
// equals the model, and the next update pays exactly 1 psync.
func TestIndividualCrashClosesScope(t *testing.T) {
	window := []Op{{Kind: OpInsert, Arg: 20}, {Kind: OpDelete, Arg: 30}, {Kind: OpInsert, Arg: 25}}
	move := []Op{{Kind: OpDelete, Arg: 30}, {Kind: OpInsert, Arg: 30}}
	for _, shape := range []struct {
		name             string
		pending          []Op
		wantSrc, wantDst []uint64
	}{
		{"window", window, []uint64{10, 20, 25}, nil},
		{"txn", move, []uint64{10}, []uint64{30}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			n := crash.SweepTest(t, func() crash.Instance {
				rt := New(Config{Procs: 1, HeapWords: 1 << 18, CrashSim: true, Engine: EngineIsbOpt})
				src, dst := rt.NewHashMap(2), rt.NewHashMap(2)
				p := rt.Proc(0)
				src.Insert(p, 10)
				src.Insert(p, 30)
				admit := func(ops []Op) []uint64 {
					if shape.name == "txn" {
						r1, r2 := rt.ApplyTxn(p, TxnLeg{S: src, Op: ops[0]}, TxnLeg{S: dst, Op: ops[1]})
						return []uint64{r1.Raw(), r2.Raw()}
					}
					var out []uint64
					for _, r := range rt.ApplyWindow(p, src, ops) {
						out = append(out, r.Raw())
					}
					return out
				}
				return crash.Instance{
					Heap: rt.Heap(),
					Run:  func() ([]uint64, error) { return admit(shape.pending), nil },
					Resolve: func() ([]uint64, error) {
						var got []uint64
						for _, rep := range rt.RecoverAll() {
							got = got[:0]
							MatchReport(rep, shape.pending, func(_ int, _ Op, r Resp) { got = append(got, r.Raw()) })
						}
						if p.InSyncScope() {
							return nil, fmt.Errorf("a sync scope is still open after RecoverAll")
						}
						for _, m := range []*HashMap{src, dst} {
							if msg := m.CheckInvariants(); msg != "" {
								return nil, fmt.Errorf("after RecoverAll: %s", msg)
							}
						}
						if len(got) < len(shape.pending) {
							got = append(got, admit(shape.pending[len(got):])...)
						}
						return got, nil
					},
					Verify: func() string {
						if ks := src.Keys(); !slices.Equal(ks, shape.wantSrc) {
							return fmt.Sprintf("source keys %v, want %v", ks, shape.wantSrc)
						}
						if ks := dst.Keys(); !slices.Equal(ks, shape.wantDst) {
							return fmt.Sprintf("destination keys %v, want %v", ks, shape.wantDst)
						}
						before := rt.Heap().TotalStats().Syncs
						src.Apply(p, Op{Kind: OpInsert, Arg: 40})
						if got := rt.Heap().TotalStats().Syncs - before; got != 1 {
							return fmt.Sprintf("the next update cost %d psyncs, want 1", got)
						}
						return ""
					},
					Individual: true,
				}
			}, nil)
			if n < 50 {
				t.Fatalf("only %d crash points exercised; the sweep is not reaching inside the admission", n)
			}
		})
	}
}

// TestReclaimBoundedHeap is the headline reclamation pin: a churn workload
// whose cumulative allocation demand exceeds 100x the heap's capacity must
// complete with the epoch reclaimer on — every allocation past the first
// few windows is served from recycled blocks — and leave heap usage far
// below capacity. The same demand under the leak-forever arena is
// unsatisfiable by construction (the arena never frees, so it would
// exhaust the heap after ~1% of the workload and panic); the arithmetic
// below documents that baseline instead of running it to the panic.
func TestReclaimBoundedHeap(t *testing.T) {
	const heapCap = 1 << 15
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			rt := New(Config{Procs: 1, HeapWords: heapCap, Engine: e.kind, Reclaim: true})
			q := rt.NewQueue()
			p := rt.Proc(0)
			// Demand per enqueue/dequeue pair: two 32-word tracking records
			// plus one 4-word node = 68 words minimum (copies and failed
			// attempts only add to it).
			const wordsPerPair = 68
			pairs := 100*heapCap/wordsPerPair + 1
			if demand := pairs * wordsPerPair; demand < 100*heapCap {
				t.Fatalf("demand %d words < 100x capacity %d", demand, 100*heapCap)
			}
			for i := 0; i < pairs; i++ {
				q.Apply(p, Op{Kind: OpEnq, Arg: uint64(i)})
				if v, ok := q.Apply(p, Op{Kind: OpDeq}).Value(); !ok || v != uint64(i) {
					t.Fatalf("pair %d: dequeue got (%d, %v)", i, v, ok)
				}
			}
			used := rt.Heap().Used()
			if used > heapCap/2 {
				t.Fatalf("heap usage %d words after %d pairs; want bounded well below capacity %d",
					used, pairs, heapCap)
			}
			st, _ := rt.ReclaimStats()
			if st.Reused == 0 || st.Freed == 0 {
				t.Fatalf("no recycling happened: stats %+v", st)
			}
			t.Logf("%d pairs (demand %dx capacity): used %d/%d words, stats %+v",
				pairs, pairs*wordsPerPair/heapCap, used, heapCap, st)
		})
	}
}

// TestReclaimWindowStoreBudget pins what the reclaimer adds to the stores
// of the operations it serves. Two Procs, interleaved on one goroutine so
// the counts are deterministic, run the same seeded updates on one map —
// windows of 16 (8 inserts, 8 deletes) through ApplyWindow, and single
// operations (half finds) through Apply — on the arena and on the
// reclaimer. Past the warm-up the reclaimer reuses blocks, and a freed
// block costs no store: its free stack is Go-side, and the dead bit is a
// read-modify-write (Stats.CASes). The reclaimer's Stats.Stores per
// operation stay within 1.01x the arena's (equal on all four legs).
func TestReclaimWindowStoreBudget(t *testing.T) {
	const warm, rounds = 64, 256
	run := func(kind EngineKind, reclaim, window bool) (stores, cases float64) {
		rt := New(Config{Procs: 2, HeapWords: 1 << 22, Engine: kind, Reclaim: reclaim})
		m := rt.NewHashMap(16)
		rng := rand.New(rand.NewSource(1))
		ops := make([]Op, 16)
		var n uint64
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				rt.Heap().ResetAllStats()
				n = 0
			}
			for id := 0; id < 2; id++ {
				p := rt.Proc(id)
				for j := range ops {
					// Proc id owns the keys ≡ id mod 2.
					ops[j] = Op{Kind: OpInsert + uint64(j%2), Arg: uint64(2*rng.Intn(256) + 2 - id)}
					if !window && j%4 < 2 {
						ops[j].Kind = OpFind
					}
				}
				if window {
					rt.ApplyWindow(p, m, ops)
				} else {
					for _, op := range ops {
						m.Apply(p, op)
					}
				}
				n += uint64(len(ops))
			}
		}
		st := rt.Heap().TotalStats()
		if reclaim {
			if rs, _ := rt.ReclaimStats(); rs.Reused == 0 || rs.Freed == 0 {
				t.Fatalf("the reclaimer recycled nothing: %+v", rs)
			}
		}
		return float64(st.Stores) / float64(n), float64(st.CASes) / float64(n)
	}
	for _, e := range engines() {
		for _, window := range []bool{true, false} {
			name := map[bool]string{true: "window16", false: "apply"}[window]
			t.Run(e.name+"/"+name, func(t *testing.T) {
				arena, arenaCAS := run(e.kind, false, window)
				rec, recCAS := run(e.kind, true, window)
				t.Logf("stores/op arena %.2f, reclaimer %.2f (%.3fx); CASes/op %.2f, %.2f", arena, rec, rec/arena, arenaCAS, recCAS)
				if rec > 1.01*arena {
					t.Fatalf("the reclaimer stores %.2f words per op, over 1.01x the arena's %.2f", rec, arena)
				}
			})
		}
	}
}

// TestReclaimIndexLoadBudget pins that the list index serves the reclaimer
// as well as the arena. Two Procs, interleaved on one goroutine so the
// counts are deterministic, feed windows of 16 updates (8 inserts, 8
// deletes, each Proc its own half of 4 096 keys) through ApplyWindow to a
// 16-bucket map holding half the keys: admit_window_txn's shape. Each bucket
// holds about 128 keys, so its walks grow long and it keeps an index. An
// anchor is checked against its block's reuse version, which moves only
// when the reclaimer hands the block out again, not against the epoch, which
// moves every few dozen operations: the reclaimer's Stats.Loads per
// operation stay within 1.25x the arena's.
func TestReclaimIndexLoadBudget(t *testing.T) {
	const keys, warm, rounds = 4096, 64, 256
	run := func(kind EngineKind, reclaim bool) float64 {
		rt := New(Config{Procs: 2, HeapWords: 1 << 22, Engine: kind, Reclaim: reclaim})
		m := rt.NewHashMap(16)
		rng := rand.New(rand.NewSource(1))
		for _, k := range rng.Perm(keys)[:keys/2] {
			m.Apply(rt.Proc(0), Op{Kind: OpInsert, Arg: uint64(k + 1)})
		}
		ops := make([]Op, 16)
		var n uint64
		for i := 0; i < warm+rounds; i++ {
			if i == warm {
				rt.Heap().ResetAllStats()
				n = 0
			}
			for id := 0; id < 2; id++ {
				for j := range ops {
					// Proc id owns the keys ≡ id mod 2.
					ops[j] = Op{Kind: OpInsert + uint64(j%2), Arg: uint64(2*rng.Intn(keys/2) + 2 - id)}
				}
				rt.ApplyWindow(rt.Proc(id), m, ops)
				n += uint64(len(ops))
			}
		}
		if reclaim {
			if rs, _ := rt.ReclaimStats(); rs.Reused == 0 || rs.Advances == 0 {
				t.Fatalf("the reclaimer reused nothing or never advanced its epoch: %+v", rs)
			}
		}
		return float64(rt.Heap().TotalStats().Loads) / float64(n)
	}
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			arena, rec := run(e.kind, false), run(e.kind, true)
			t.Logf("loads/op arena %.1f, reclaimer %.1f (%.2fx)", arena, rec, rec/arena)
			if rec > 1.25*arena {
				t.Fatalf("the reclaimer loads %.1f words per op, over 1.25x the arena's %.1f", rec, arena)
			}
		})
	}
}

// TestRecoveryCostFollowsInFlight is the recovery claim as a count. Two
// crash_recover-shaped instances — 1 Proc, the reclaimer on, a window of 8
// crashed halfway through the accesses it makes on an uncrashed twin —
// differ 16× in live keys (same load per bucket). The
// heap accesses a fast RecoverAll makes are the same on both, to within
// the recovered operation's own list walk, and below a fixed constant: the
// reclaimer's reset touches no heap word, so what is left is the announced
// window's own recovery. The window's keys lead their buckets' order in both
// instances, so that the walks, and with them the crash point, are alike.
// The accesses of a full conservative scan differ by more than 10×.
func TestRecoveryCostFollowsInFlight(t *testing.T) {
	// leads reports whether k has the lowest order key among 1..keys in
	// its bucket of a map of keys/2 shards.
	leads := func(keys int) func(uint64) bool {
		mask := uint64(keys/2 - 1)
		low := make([]uint64, keys/2)
		for i := range low {
			low[i] = 1<<64 - 1
		}
		for k := uint64(1); k <= uint64(keys); k++ {
			o := bucketOrder(k)
			low[o&mask] = min(low[o&mask], o)
		}
		return func(k uint64) bool { o := bucketOrder(k); return low[o&mask] == o }
	}
	small, large := leads(1024), leads(16384)
	keys := keysWhere(1, 8, func(k uint64) bool { return small(k) && large(k) })
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			window := make([]Op, 8)
			for i := range window {
				window[i] = Op{Kind: OpInsert + uint64(i%2), Arg: keys[i]}
			}
			build := func(keys int, mode pmem.RecoveryMode) (*Runtime, *HashMap, *pmem.Proc) {
				rt := New(Config{Procs: 1, CrashSim: true, Reclaim: true, Engine: e.kind, HeapWords: 1 << 20, Seed: 42})
				rt.Reclaimer().ForceRecovery(mode)
				m := rt.NewHashMap(keys / 2)
				p := rt.Proc(0)
				for k := 1; k <= keys; k++ {
					m.Insert(p, uint64(k))
				}
				return rt, m, p
			}
			recoverCost := func(keys int, mode pmem.RecoveryMode) (uint64, pmem.ScanReport) {
				rt, m, p := build(keys, mode)
				before := rt.Heap().AccessCount()
				rt.ApplyWindow(p, m, window)
				span := rt.Heap().AccessCount() - before
				rt, m, p = build(keys, mode)
				rt.ScheduleCrash(span / 2)
				if rt.Run(func() { rt.ApplyWindow(p, m, window) }) {
					t.Fatal("the window outran the armed crash")
				}
				rt.Restart()
				before = rt.Heap().AccessCount()
				if reps := rt.RecoverAll(); len(reps) != 1 || len(reps[0].Legs) != len(window) {
					t.Fatalf("RecoverAll reported %+v, want the crashed window", reps)
				}
				cost := rt.Heap().AccessCount() - before
				scan, _ := rt.LastScan()
				return cost, scan
			}
			fastSmall, _ := recoverCost(1024, pmem.RecoverFast)
			fastLarge, scan := recoverCost(16384, pmem.RecoverFast)
			if scan.Full || scan.Marked != 0 || scan.Swept != 0 {
				t.Fatalf("forced-fast recovery scanned: %+v", scan)
			}
			if diff := int64(fastLarge) - int64(fastSmall); diff < -16 || diff > 16 {
				t.Fatalf("fast RecoverAll: %d accesses with 1024 keys, %d with 16384 — must not follow live size", fastSmall, fastLarge)
			}
			// A leg resolved from its record costs ~90-130 accesses; one
			// whose recovery re-runs its attempt ~200.
			if fastLarge > 256 {
				t.Fatalf("fast RecoverAll made %d accesses, want a small constant", fastLarge)
			}
			// The full scan is the oracle every fast recovery is audited
			// against, so its counts are pinned exactly. They follow the
			// heap layout (a payload word that merely looks like an
			// address may land inside a block, which the conservative
			// closure then keeps) and where in the window the crash
			// lands, so a layout or access-count change moves them. A
			// reused block is not cleared, so a stale word of one may keep
			// a block too.
			want := map[EngineKind][4]uint64{EngineIsb: {2048, 1, 32768, 1}, EngineIsbOpt: {2050, 2, 32770, 2}}[e.kind]
			fullSmall, scan := recoverCost(1024, pmem.RecoverFull)
			if !scan.Full || scan.Marked != want[0] || scan.Swept != want[1] {
				t.Fatalf("full scan at 1024 keys: %+v, want %d marked and %d swept", scan, want[0], want[1])
			}
			fullLarge, scan := recoverCost(16384, pmem.RecoverFull)
			if !scan.Full || scan.Marked != want[2] || scan.Swept != want[3] {
				t.Fatalf("full scan at 16384 keys: %+v, want %d marked and %d swept", scan, want[2], want[3])
			}
			if fullLarge < 10*fullSmall {
				t.Fatalf("full scan: %d accesses with 1024 keys, %d with 16384 — expected it to follow live size", fullSmall, fullLarge)
			}
			t.Logf("RecoverAll accesses at 1024 / 16384 keys: fast %d / %d, full scan %d / %d", fastSmall, fastLarge, fullSmall, fullLarge)
		})
	}
}
