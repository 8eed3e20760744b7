// kvstore: a small recoverable key-value membership store built on the
// detectably recoverable sharded hash map, hammered by concurrent workers
// while the "machine" keeps crashing. Keys spread over the map's shards, so
// the workers mostly run contention-free.
//
// Workers admit their operations in ApplyWindow windows of 16: one durable
// announcement per window instead of one per operation, deferred
// psyncs, and finds served by the zero-persist read path. Recovery stays
// zero-bookkeeping: after each crash the coordinator (playing "the
// system") makes exactly one call — Runtime.RecoverAll — which resolves
// every process's in-flight work. A worker present in the report
// consumes the completed prefix's durable responses plus the
// recovered in-flight operation, then re-submits the no-effect suffix; a
// worker absent from the report re-submits its whole remainder (it
// provably had no effect). The store's final contents are audited against
// the responses the workers observed, and the run closes with a
// side-by-side measurement of the psync/op drop batching buys.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro"
)

const (
	workers   = 4
	shards    = 16
	opsPerW   = 304 // divisible by batchSize: every window is full
	batchSize = 16
	crashEach = 2500 // memory accesses between scheduled crashes
	keySpace  = 64
)

// randomOp draws the next workload operation: half finds (zero-persist
// fast path), the rest split insert/delete.
func randomOp(rng *rand.Rand) repro.Op {
	k := uint64(rng.Intn(keySpace)) + 1
	switch rng.Intn(4) {
	case 0:
		return repro.Op{Kind: repro.OpInsert, Arg: k}
	case 1:
		return repro.Op{Kind: repro.OpDelete, Arg: k}
	default:
		return repro.Op{Kind: repro.OpFind, Arg: k}
	}
}

// measureSyncDrop replays the same seeded crash-free workload through
// one-at-a-time admission (HashMap.Apply) and through batch=16 windows on
// fresh stores (batched Isb-Opt engine) and returns the measured psyncs per
// operation for each.
func measureSyncDrop() (single, batched float64) {
	run := func(batch int) float64 {
		const ops = 2048
		rt := repro.New(repro.Config{Procs: 1, HeapWords: 1 << 22, Engine: repro.EngineIsbOpt})
		m := rt.NewHashMap(shards)
		p := rt.Proc(0)
		rng := rand.New(rand.NewSource(99))
		rt.Heap().ResetAllStats()
		win := make([]repro.Op, 0, batch)
		for i := 0; i < ops; i++ {
			if batch == 1 {
				m.Apply(p, randomOp(rng))
				continue
			}
			win = append(win, randomOp(rng))
			if len(win) == batch {
				rt.ApplyWindow(p, m, win)
				win = win[:0]
			}
		}
		return float64(rt.Heap().TotalStats().Syncs) / ops
	}
	return run(1), run(batchSize)
}

func main() {
	// Heap sizing. With the leak-forever arena (Reclaim: false, the
	// default) the heap must hold every allocation the run will ever make:
	// each operation attempt burns a 32-word tracking record plus any
	// fresh nodes, so workers×opsPerW ops need on the order of
	// workers*opsPerW*128 words — 1<<23 was the safe arena size for this
	// workload, and doubling the ops means doubling the heap. With the
	// epoch reclaimer the heap only needs the *working set*: live keys +
	// two epochs of not-yet-recycled blocks + the per-process retired
	// rings — a few hundred blocks here — and up to as much again in
	// blocks that crashes abandoned since the last recovery scan, so
	// 1<<18 words (2 MiB) runs the same crash-riddled workload at any op
	// count.
	rt := repro.New(repro.Config{
		Procs: workers, CrashSim: true, HeapWords: 1 << 18, Reclaim: true,
	})
	store := rt.NewHashMap(shards)

	// The crash coordinator — the role "the system" plays in the paper's
	// model — is repro.CrashGroup: the last worker stranded by a crash runs
	// Restart plus exactly one RecoverAll, hands each worker its report
	// entry, and re-arms the next crash while anyone is still working (so a
	// worker retiring early cannot leave the survivors' tail crash-free).
	group := repro.NewCrashGroup(rt, workers, crashEach)

	net := make([]map[uint64]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		net[w] = map[uint64]int{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer group.Leave()
			p := rt.Proc(w)
			rng := rand.New(rand.NewSource(int64(w) + 1))
			tally := func(op repro.Op, resp repro.Resp) {
				if op.Kind == repro.OpFind || !resp.Bool() {
					return
				}
				if op.Kind == repro.OpInsert {
					net[w][op.Arg]++
				} else {
					net[w][op.Arg]--
				}
			}
			for base := 0; base < opsPerW; base += batchSize {
				pending := make([]repro.Op, 0, batchSize)
				for j := 0; j < batchSize && base+j < opsPerW; j++ {
					pending = append(pending, randomOp(rng))
				}
				for len(pending) > 0 {
					// The system-side invocation step, before every
					// submission: durably retire this worker's previous
					// announcement, so that a report after a crash can only
					// be about THIS submission. Without it a crash ahead of
					// the new announcement re-reports the old one — for a
					// re-submitted remainder, the crashed window's own — and
					// its entries can equal the pending operations (worker
					// 3's sixth window holds "delete 19" first and last). The
					// bare begin is eager under either engine, where a
					// window's own begin under Isb-Opt is not: its record
					// rides the window's first barrier. A crash inside Begin
					// submitted nothing: drop its report.
					for !rt.Run(func() { store.Begin(p) }) {
						group.Park()
						group.Report(w)
					}
					batch := pending
					var out []repro.Resp
					if rt.Run(func() { out = rt.ApplyWindow(p, store, batch) }) {
						for i, op := range batch {
							tally(op, out[i])
						}
						pending = nil
						break
					}
					// Crashed mid-window. After recovery, MatchReport hands
					// back the completed prefix's durable responses and the
					// recovered in-flight operation (rejecting a stale
					// report from an earlier, fully answered window); the
					// no-effect suffix loops around for re-submission.
					group.Park()
					rep, hit := group.Report(w)
					if !hit {
						continue // nothing durable: re-submit the remainder
					}
					pending = pending[repro.MatchReport(rep, pending, func(_ int, op repro.Op, resp repro.Resp) {
						tally(op, resp)
					}):]
				}
			}
		}(w)
	}
	wg.Wait()

	// Audit: final membership must equal the net successful updates.
	total := map[uint64]int{}
	for _, m := range net {
		for k, v := range m {
			total[k] += v
		}
	}
	present := map[uint64]bool{}
	for _, k := range store.Keys() {
		present[k] = true
	}
	bad := 0
	for k := uint64(1); k <= keySpace; k++ {
		want := 0
		if present[k] {
			want = 1
		}
		if total[k] != want {
			bad++
			fmt.Printf("MISMATCH key %d: net=%d present=%v\n", k, total[k], present[k])
		}
	}
	fmt.Printf("%d workers × %d ops (batch=%d) over %d shards, %d crashes survived (one RecoverAll each), %d keys stored, %d mismatches\n",
		workers, opsPerW, batchSize, store.NumShards(), group.Crashes(), len(store.Keys()), bad)
	if rs, ok := rt.ReclaimStats(); ok {
		path := "the fast reset"
		last, _ := rt.LastScan()
		if last.Full {
			path = "a full scan"
		}
		fmt.Printf("recovery: %d fast reclaimer resets, %d full scans; the last crash took %s (%d words abandoned, %d accounted as garbage)\n",
			rs.FastRecoveries, rs.FullScans, path, last.Dropped, last.Garbage)
	}
	if bs, rf, ok := rt.EngineCounters(store); ok {
		fmt.Printf("batching: %d psyncs deferred into window boundaries, %d reads on the zero-persist fast path\n", bs, rf)
	}
	if bad > 0 {
		panic("audit failed")
	}
	fmt.Println("audit passed: every response is consistent with the recovered store")
	s1, s16 := measureSyncDrop()
	fmt.Printf("measured admission cost: %.2f psyncs/op one-at-a-time vs %.2f psyncs/op at batch=%d (%.0fx drop)\n",
		s1, s16, batchSize, s1/s16)
}
