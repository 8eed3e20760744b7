package repro

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

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
// it rides the install barrier — or the opt < plain pins below would break.
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
// saves psyncs, not write-backs: neither a lone update's begin nor a window
// leg's boundary writes back anything of its own — the announcement and the
// stamped result slot both ride the next install barrier — so batch=64
// writes back exactly as often as batch=1, plus once per window that leads
// with a find: that window's first boundary writes its announcement back
// before it stores slot 0 (pmem.Proc.StoreLegResult). The README's table of
// psyncs per operation is the whole grid, three mixes by both engines by
// batch 1, 8 and 64.
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
	// Replay runBatchAdmission's draws to count the windows led by a find.
	rng, readLed := rand.New(rand.NewSource(seed)), uint64(0)
	for i := 0; i < 128; i++ {
		rng.Intn(256)
	}
	for i := 0; i < opsTotal; i++ {
		rng.Intn(256)
		if rng.Intn(100) < findPct && i%batch == 0 {
			readLed++
		}
	}
	if w64, w1 := st64.Mem.Barriers+st64.Mem.Flushes, st1.Mem.Barriers+st1.Mem.Flushes; w64 != w1+readLed {
		t.Fatalf("batch=64 wrote back %d times, batch=1 %d, %d windows led by a find: the begin and every boundary must ride the next barrier",
			w64, w1, readLed)
	}
	if st64.BatchSyncs == 0 {
		t.Fatal("batch=64 run deferred no syncs; the batch protocol is not engaged")
	}
	t.Logf("write-heavy batch=1: %v", st1)
	t.Logf("write-heavy batch=64: %v (syncs/op %.2fx lower)",
		st64, st1.SyncsPerOp()/st64.SyncsPerOp())
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
// a transaction and each single operation are one psync apiece. It renders
// the README's transaction-price table.
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
// update, a failed one, a window of 1 or of 16, a two-leg transaction; a find
// is free. The bare begin (Structure.Begin) stays eager under both engines:
// it is the paper's system-side CP_q := 0, one write-back and one psync. The
// Isb psyncs are Algorithms 1–2's written placement (begin, CP_q := 1,
// install, one per Help phase): the reproduction's reference curve.
//
// The write-backs are where persists_per_op could leak. A successful Isb-Opt
// update writes back 4 times: the install barrier (record and new nodes, the
// admission's announcement, whose raised number resets CP_q on every engine,
// and the previous update's cleanup), the one pwb of the RD_q/CP_q line (CP_q
// := the admission number rides RD_q := info), and the tag and update
// barriers. Its own cleanup, done flag included, rides the next barrier. A
// failed one is read-only after its gather and stops after the RD_q/CP_q pwb:
// 2. A window or transaction leg after the first pays no begin, and its
// boundary — the previous leg's stamped result slot — writes back nothing of
// its own: the slot's line rides the leg's install barrier. Under Isb the
// slot costs one pwb and the boundary one psync.
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
	want := []struct {
		shape    string
		isb, opt price
	}{
		{"find", price{0, 0}, price{0, 0}},
		{"bare begin", price{1, 1}, price{1, 1}},
		{"successful update", price{6, 15}, price{1, 4}},
		{"failed update", price{3, 5}, price{1, 2}},
		{"ApplyWindow of 1", price{2, 15}, price{1, 4}},
		{"ApplyWindow of 16", price{17, 134}, price{1, 48}},
		{"ApplyTxn(delete, insert)", price{10, 24}, price{1, 8}},
		{"enqueue", price{6, 12}, price{1, 4}},
		{"dequeue", price{6, 9}, price{1, 4}},
		{"push", price{6, 15}, price{1, 4}},
		{"pop", price{6, 11}, price{1, 4}},
		{"eliminating push", price{10, 23}, price{6, 13}},
		{"eliminating pop", price{9, 16}, price{5, 10}},
	}
	rows := [][]string{{"shape", "Isb psyncs", "Isb write-backs", "Isb-Opt psyncs", "Isb-Opt write-backs"}}
	for _, w := range want {
		rows = append(rows, []string{w.shape, fmt.Sprint(w.isb.syncs), fmt.Sprint(w.isb.writeBacks),
			fmt.Sprint(w.opt.syncs), fmt.Sprint(w.opt.writeBacks)})
	}
	checkReadmeTable(t, "admission-price", rows...)
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			for _, alloc := range []string{"arena", "reclaim"} {
				t.Run(alloc, func(t *testing.T) {
					got := admissionPrices(e.kind, alloc == "reclaim")
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
// on one Proc, by shape. The reclaim leg pays the arena leg's prices: the
// reclaimer writes back only when it carves a slab (the slab directory's two
// write-backs), which the set-up's allocations have done for every measured
// shape. Should a shape carve one, warm up more; the equality stays.
func admissionPrices(kind EngineKind, reclaim bool) map[string]price {
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
	got := map[string]price{}
	for _, c := range []struct {
		shape string
		admit func()
	}{
		{"find", func() { m.Apply(p, Op{Kind: OpFind, Arg: 1}) }},
		{"bare begin", func() { m.Begin(p) }},
		{"successful update", func() { m.Apply(p, Op{Kind: OpInsert, Arg: 2}) }},
		{"failed update", func() { m.Apply(p, Op{Kind: OpInsert, Arg: 1}) }},
		{"ApplyWindow of 1", func() { rt.ApplyWindow(p, m, []Op{{Kind: OpInsert, Arg: 4}}) }},
		{"ApplyWindow of 16", func() { rt.ApplyWindow(p, m, window16) }},
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
	}
	return got
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

// TestIndividualCrashClosesScope is the RecoverAll half of the scope
// teardown (internal/isb's TestScopeCrashTeardown is the RecoverLeg half): a
// process that fails individually — no Restart, so Heap.finishReset never
// runs — at every access of a window and of a transaction leaves its sync
// scope open. RecoverAll must close it, or every later sync point of that
// process would defer with nothing to close over them: afterwards the
// store equals the model and the next update pays exactly 1 psync.
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
			crashes := 0
			for off := uint64(1); ; off++ {
				rt := New(Config{Procs: 1, HeapWords: 1 << 18, CrashSim: true, Engine: EngineIsbOpt})
				src, dst := rt.NewHashMap(2), rt.NewHashMap(2)
				p := rt.Proc(0)
				src.Insert(p, 10)
				src.Insert(p, 30)
				admit := func(ops []Op) {
					if shape.name == "txn" {
						rt.ApplyTxn(p, TxnLeg{S: src, Op: ops[0]}, TxnLeg{S: dst, Op: ops[1]})
					} else {
						rt.ApplyWindow(p, src, ops)
					}
				}
				p.ScheduleSelfCrash(off)
				crashed := !rt.Run(func() { admit(shape.pending) })
				p.CancelSelfCrash()
				if !crashed {
					break // the admission outran the offset: every access was covered
				}
				crashes++
				resolved := 0
				for _, rep := range rt.RecoverAll() {
					resolved = MatchReport(rep, shape.pending, func(int, Op, Resp) {})
				}
				if p.InSyncScope() {
					t.Fatalf("offset %d: a sync scope is still open after RecoverAll", off)
				}
				if resolved < len(shape.pending) {
					admit(shape.pending[resolved:])
				}
				if ks := src.Keys(); !slices.Equal(ks, shape.wantSrc) {
					t.Fatalf("offset %d: source keys %v, want %v", off, ks, shape.wantSrc)
				}
				if ks := dst.Keys(); !slices.Equal(ks, shape.wantDst) {
					t.Fatalf("offset %d: destination keys %v, want %v", off, ks, shape.wantDst)
				}
				before := rt.Heap().TotalStats().Syncs
				src.Apply(p, Op{Kind: OpInsert, Arg: 40})
				if got := rt.Heap().TotalStats().Syncs - before; got != 1 {
					t.Fatalf("offset %d: the next update cost %d psyncs, want 1", off, got)
				}
			}
			if crashes < 50 {
				t.Fatalf("only %d crash points exercised; the sweep is not reaching inside the admission", crashes)
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

// TestRecoveryCostFollowsInFlight is the recovery claim as a count. Two
// crash_recover-shaped instances — 1 Proc, the reclaimer on, a window of 8
// crashed mid-flight — differ 16× in live keys (same load per bucket). The
// heap accesses a fast RecoverAll makes are the same on both, to within
// the recovered operation's own list walk, and below a fixed constant: the
// reclaimer's reset touches no heap word, so what is left is the announced
// window's own recovery. The accesses of a full conservative scan differ by
// more than 10×.
func TestRecoveryCostFollowsInFlight(t *testing.T) {
	for _, e := range engines() {
		t.Run(e.name, func(t *testing.T) {
			recoverCost := func(keys int, mode pmem.RecoveryMode) (uint64, pmem.ScanReport) {
				rt := New(Config{Procs: 1, CrashSim: true, Reclaim: true, Engine: e.kind, HeapWords: 1 << 20, Seed: 42})
				rt.Reclaimer().ForceRecovery(mode)
				m := rt.NewHashMap(keys / 2)
				p := rt.Proc(0)
				for k := 1; k <= keys; k++ {
					m.Insert(p, uint64(k))
				}
				window := make([]Op, 8)
				for i := range window {
					window[i] = Op{Kind: OpInsert + uint64(i%2), Arg: uint64(3 * (i + 1))}
				}
				rt.ScheduleCrash(300)
				if rt.Run(func() { rt.ApplyWindow(p, m, window) }) {
					t.Fatal("the window outran the armed crash")
				}
				rt.Restart()
				before := rt.Heap().AccessCount()
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
			if fastLarge > 128 {
				t.Fatalf("fast RecoverAll made %d accesses, want a small constant", fastLarge)
			}
			// The full scan is the oracle every fast recovery is audited
			// against, so its counts are pinned exactly. They follow the
			// heap layout (a payload word that merely looks like an
			// address may land inside a block, which the conservative
			// closure then keeps) and where in the window access 300
			// lands, so a layout or write-back change moves them.
			want := map[EngineKind][2]uint64{EngineIsb: {2061, 53}, EngineIsbOpt: {2065, 49}}[e.kind]
			fullSmall, scan := recoverCost(1024, pmem.RecoverFull)
			if !scan.Full || scan.Marked != want[0] || scan.Swept != want[1] {
				t.Fatalf("full scan at 1024 keys: %+v, want %d marked and %d swept", scan, want[0], want[1])
			}
			fullLarge, scan := recoverCost(16384, pmem.RecoverFull)
			if !scan.Full || scan.Marked != 32834 || scan.Swept != 0 {
				t.Fatalf("full scan at 16384 keys: %+v, want 32834 marked and 0 swept", scan)
			}
			if fullLarge < 10*fullSmall {
				t.Fatalf("full scan: %d accesses with 1024 keys, %d with 16384 — expected it to follow live size", fullSmall, fullLarge)
			}
			t.Logf("RecoverAll accesses at 1024 / 16384 keys: fast %d / %d, full scan %d / %d", fastSmall, fastLarge, fullSmall, fullLarge)
		})
	}
}
