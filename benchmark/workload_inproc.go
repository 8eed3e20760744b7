package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro"
)

const (
	inprocKeys = 4096
	// applyBlock is how many consecutive Apply calls one latency sample of
	// map_apply_mixed covers. A single call takes about a microsecond, too
	// short to time without distorting it, and its median would flip
	// between the find and the update mode of a 50/50 mix.
	applyBlock = 64
	// spanEvery is the sampling rate of in-process call spans in a traced
	// run.
	spanEvery = 16
)

// twoProcs runs body on benchProcs goroutines, one per Proc, released
// together, and returns the wall time from release to the last return.
func twoProcs(body func(proc int)) (start, end time.Time) {
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for proc := range benchProcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			body(proc)
		}()
	}
	start = time.Now()
	close(gate)
	wg.Wait()
	return start, time.Now()
}

// prefillMap inserts the prefilled keys through Proc 0.
func prefillMap(rt *repro.Runtime, m *repro.HashMap, prefill []bool) {
	p := rt.Proc(0)
	for k := 1; k < len(prefill); k++ {
		if prefill[k] {
			m.Insert(p, uint64(k))
		}
	}
}

// auditMap checks the map against the union of the issuers' models (their
// partitions are disjoint, so exactly one model owns each key) and the
// structure's own invariants; it returns the number of violations.
func auditMap(m *repro.HashMap, keys int, models []*setModel, extra map[uint64]bool) uint64 {
	var bad uint64
	if msg := m.CheckInvariants(); msg != "" {
		fmt.Fprintln(os.Stderr, "benchmark: map invariant violated:", msg)
		bad++
	}
	got := map[uint64]bool{}
	for _, k := range m.Keys() {
		got[k] = true
	}
	want := 0
	for k := 1; k <= keys; k++ {
		if models[(k-1)%len(models)].present[k] {
			want++
			if !got[uint64(k)] {
				bad++
			}
		}
	}
	for k := range extra {
		want++
		if !got[k] {
			bad++
		}
	}
	if len(got) != want {
		bad++
	}
	return bad
}

// runMapApply is map_apply_mixed: single-op HashMap.Apply on two Procs
// over disjoint halves of 4096 keys, on the leak-forever arena (Reclaim
// off: this workload reads concurrently, see README.md "Known defects").
func runMapApply(cx runCtx, rep int, tr *tracer) repResult {
	perProc := cx.n(500_000, 4*applyBlock) / applyBlock * applyBlock
	prefill := prefillSet(cx.seed, rep, inprocKeys)
	type stream struct {
		ops    []repro.Op
		model  *setModel
		lat    []int64
		failed uint64
		log    *spanLog
	}
	streams := make([]*stream, benchProcs)
	for i := range streams {
		pt := partition{issuer: i, issuers: benchProcs, keys: inprocKeys}
		reqs := genReqs(newRNG(cx.seed, rep, i), pt, mix{kGet: 50, kPut: 25, kDel: 25}, perProc)
		s := &stream{ops: make([]repro.Op, perProc), model: newSetModel(prefill), lat: make([]int64, 0, perProc/applyBlock), log: tr.log()}
		for j, r := range reqs {
			s.ops[j] = repro.Op{Kind: opKind(r.Kind), Arg: r.Key}
		}
		streams[i] = s
	}

	t0 := startSetup()
	rt := repro.New(repro.Config{
		Procs: benchProcs, Engine: benchEngine, HeapWords: cx.n(1<<25, 1<<20),
		PWBLatency: pwbLatency, PSyncLatency: syncLatency,
	})
	m := rt.NewHashMap(16)
	prefillMap(rt, m, prefill)
	res := repResult{setup: time.Since(t0), layer: map[string]float64{}}

	mem0, go0, eng0 := rt.Heap().TotalStats(), goSnap(), engineSnap(rt, m)
	root := tr.log()
	rootID := root.newID()
	start, end := twoProcs(func(proc int) {
		s, p := streams[proc], rt.Proc(proc)
		last := time.Now()
		for i, op := range s.ops {
			want := s.model.applyOp(op.Kind, op.Arg)
			var resp repro.Resp
			if s.log != nil && i%spanEvery == 0 {
				c0 := time.Now()
				resp = m.Apply(p, op)
				s.log.add("HashMap.Apply", "runtime", c0, time.Now(), rootID, s.log.newID())
			} else {
				resp = m.Apply(p, op)
			}
			if resp.Bool() != want {
				s.failed++
			}
			if (i+1)%applyBlock == 0 {
				now := time.Now()
				s.lat = append(s.lat, now.Sub(last).Nanoseconds())
				last = now
			}
		}
	})
	res.elapsed = end.Sub(start)
	root.add("repetition", "benchmark", start, end, 0, rootID)
	res.goStats = goSnap().since(go0)
	res.mem = rt.Heap().TotalStats().Sub(mem0)

	models := make([]*setModel, len(streams))
	for i, s := range streams {
		res.ops += uint64(len(s.ops))
		res.failed += s.failed
		res.lat = append(res.lat, s.lat...)
		models[i] = s.model
	}
	res.failed += auditMap(m, inprocKeys, models, nil)
	engineSnap(rt, m).layerInto(res.layer, eng0, res.ops)
	res.layer["pmem.heap_words_used"] = float64(rt.Heap().Used())
	return res
}

// handoffBase is the first of the values admit_window_txn passes through
// its queues. They sit above the window keys and each is used once, so a
// dequeued value is a key nobody has inserted yet.
const handoffBase = 1 << 20

// runAdmit is admit_window_txn. Every iteration a Proc admits one window
// of 16 updates on its own keys (8 inserts, 8 deletes, no finds: this
// workload runs on the reclaimer, where concurrent reads can hang),
// enqueues a fresh handoff value on its queue, and moves it from the queue
// into the map as a transaction. The last delete of the next window
// removes the key that transaction inserted, so the map does not grow.
//
// Each Proc has its own queue. One queue shared by both loses elements
// (README.md "Known defects"), and a workload may not contain operations
// that fail.
func runAdmit(cx runCtx, rep int, tr *tracer) repResult {
	const window = 16
	iters := cx.n(15_000, 8)
	prefill := prefillSet(cx.seed, rep, inprocKeys)
	type stream struct {
		windows [][]repro.Op // the last op of each is patched with the handoff delete
		model   *setModel
		lat     []int64
		failed  uint64
		handed  uint64 // key the last transaction inserted
		log     *spanLog
	}
	streams := make([]*stream, benchProcs)
	for i := range streams {
		rng := newRNG(cx.seed, rep, i)
		pt := partition{issuer: i, issuers: benchProcs, keys: inprocKeys}
		s := &stream{model: newSetModel(prefill), windows: make([][]repro.Op, iters), lat: make([]int64, 0, iters), log: tr.log()}
		for it := range s.windows {
			w := make([]repro.Op, window)
			for j := range w {
				kind := repro.OpInsert
				if j%2 == 1 {
					kind = repro.OpDelete
				}
				w[j] = repro.Op{Kind: kind, Arg: pt.pick(rng)}
			}
			s.windows[it] = w
		}
		streams[i] = s
	}

	// The heap holds a repetition that reuses nothing: 654 words an
	// iteration on the arena, 19.6M for both Procs, under 2^25. A quiet box
	// ends a repetition with 0.03-0.4M words carved, but a Proc that loses
	// its core while pinned stops the epoch, the other's retired ring (128
	// entries) overflows and its retirements are dropped for good: with the
	// cores contended 8-15M words were carved, and a 2^23-word heap ran out.
	t0 := startSetup()
	rt := repro.New(repro.Config{
		Procs: benchProcs, Engine: benchEngine, Reclaim: true, HeapWords: cx.n(1<<25, 1<<20),
		PWBLatency: pwbLatency, PSyncLatency: syncLatency,
	})
	m := rt.NewHashMap(16)
	var queues [benchProcs]*repro.Queue
	for i := range queues {
		queues[i] = rt.NewQueue()
	}
	prefillMap(rt, m, prefill)
	res := repResult{setup: time.Since(t0), layer: map[string]float64{}}

	engines := func() engineCounters { return engineSnap(rt, m, queues[0], queues[1]) }
	mem0, go0, eng0 := rt.Heap().TotalStats(), goSnap(), engines()
	rec0, _ := rt.ReclaimStats()
	root := tr.log()
	rootID := root.newID()
	start, end := twoProcs(func(proc int) {
		s, p, q := streams[proc], rt.Proc(proc), queues[proc]
		for it, w := range s.windows {
			traced := s.log != nil && it%spanEvery == 0
			iterID := s.log.newID()
			c0 := time.Now()
			if s.handed != 0 {
				w[window-1] = repro.Op{Kind: repro.OpDelete, Arg: s.handed}
			}
			out := rt.ApplyWindow(p, m, w)
			c1 := time.Now()
			for j, op := range w {
				want := op.Arg == s.handed // the handed key is present exactly once
				if op.Arg != s.handed {
					want = s.model.applyOp(op.Kind, op.Arg)
				}
				if out[j].Bool() != want {
					s.failed++
				}
			}
			fresh := handoffBase + uint64(it*benchProcs+proc)
			c2 := time.Now()
			enq := q.Apply(p, repro.Op{Kind: repro.OpEnq, Arg: fresh})
			c3 := time.Now()
			deq, ins := rt.ApplyTxn(p,
				repro.TxnLeg{S: q, Op: repro.Op{Kind: repro.OpDeq}},
				repro.TxnLeg{S: m, Op: repro.Op{Kind: repro.OpInsert}, ArgFromLeg1: true})
			c4 := time.Now()
			if v, ok := deq.Value(); !enq.Bool() || !ok || v != fresh || !ins.Bool() {
				s.failed++
			}
			s.handed = fresh
			// The oracle check between the calls is the benchmark's own
			// time, not the system's.
			s.lat = append(s.lat, (c4.Sub(c0) - c2.Sub(c1)).Nanoseconds())
			if traced {
				s.log.add("iteration", "benchmark", c0, c4, rootID, iterID)
				s.log.add("Runtime.ApplyWindow", "runtime", c0, c1, iterID, s.log.newID())
				s.log.add("Queue.Apply", "runtime", c2, c3, iterID, s.log.newID())
				s.log.add("Runtime.ApplyTxn", "runtime", c3, c4, iterID, s.log.newID())
			}
		}
	})
	res.elapsed = end.Sub(start)
	root.add("repetition", "benchmark", start, end, 0, rootID)
	res.goStats = goSnap().since(go0)
	res.mem = rt.Heap().TotalStats().Sub(mem0)

	models := make([]*setModel, len(streams))
	left := map[uint64]bool{}
	for i, s := range streams {
		res.ops += uint64(len(s.windows)) * (window + 3)
		res.failed += s.failed
		res.lat = append(res.lat, s.lat...)
		models[i] = s.model
		left[s.handed] = true
		if msg := queues[i].CheckInvariants(); msg != "" || len(queues[i].Values()) != 0 {
			fmt.Fprintln(os.Stderr, "benchmark: queue", i, "not empty and sound at the end:", msg)
			res.failed++
		}
	}
	res.failed += auditMap(m, inprocKeys, models, left)
	engines().layerInto(res.layer, eng0, res.ops)
	rec1, _ := rt.ReclaimStats()
	reclaimLayer(res.layer, rec0, rec1, res.ops)
	res.layer["pmem.heap_words_used"] = float64(rt.Heap().Used())
	return res
}
