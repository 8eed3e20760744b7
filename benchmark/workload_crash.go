package main

import (
	"fmt"
	"os"
	"slices"
	"time"

	"repro"
)

const (
	crashKeys   = 32768
	crashShards = 512
	crashWindow = 8
	// Seeded distance, in heap accesses, from arming a crash to its firing.
	crashGapMin, crashGapMax = 2000, 6000
	// argKeyBits splits an operation's Arg: the low bits are the key the
	// map stores (HashMap.SetArgMask), the bits above carry the operation's
	// sequence number. The announcement keeps the whole Arg, so a report
	// left over from an earlier, answered window can never match a pending
	// operation, the way request IDs protect the serve layer.
	argKeyBits = 32
)

// runCrashRecover is crash_recover: one Proc admits windows of 8 ops (a
// quarter finds) on a crash-simulated heap while seeded crashes keep
// firing. Each crash is recovered the way examples/kvstore does it:
// Restart, one RecoverAll, MatchReport for what the report proves durable,
// and the rest of the window resubmitted. One Proc, so the heap access
// sequence, and with it every counter, repeats exactly for a seed.
func runCrashRecover(cx runCtx, rep int, tr *tracer) repResult {
	crashes := cx.n(120, 3)
	rng := newRNG(cx.seed, rep, 0)
	prefill := prefillSet(cx.seed, rep, crashKeys)
	model := newSetModel(prefill)
	pt := partition{issuers: 1, keys: crashKeys}
	log := tr.log()

	t0 := startSetup()
	rt := repro.New(repro.Config{
		Procs: 1, CrashSim: true, Reclaim: true, Engine: benchEngine, HeapWords: 1 << 22,
		PWBLatency: pwbLatency, PSyncLatency: syncLatency,
	})
	m := rt.NewHashMap(crashShards)
	m.SetArgMask(1<<argKeyBits - 1)
	prefillMap(rt, m, prefill)
	res := repResult{setup: time.Since(t0), layer: map[string]float64{}}

	p := rt.Proc(0)
	mem0, go0, eng0 := rt.Heap().TotalStats(), goSnap(), engineSnap(rt, m)
	rec0, _ := rt.ReclaimStats()
	rootID := log.newID()
	var (
		seq                  uint64
		restartNs, recoverNs []float64
		marked, swept        []float64
		recovered            int
		armed                bool
	)
	check := func(op repro.Op, resp repro.Resp) {
		res.ops++
		if resp.Bool() != model.applyOp(op.Kind, op.Arg&(1<<argKeyBits-1)) {
			res.failed++
		}
	}
	start := time.Now()
	for recovered < crashes {
		pending := make([]repro.Op, crashWindow)
		for i := range pending {
			kind := uint8(kGet)
			if c := rng.IntN(8); c >= 2 {
				kind = kPut + uint8(c%2)
			}
			seq++
			pending[i] = repro.Op{Kind: opKind(kind), Arg: seq<<argKeyBits | pt.pick(rng)}
		}
		resubmit := false
		for len(pending) > 0 {
			if !armed {
				rt.ScheduleCrash(uint64(crashGapMin + rng.IntN(crashGapMax-crashGapMin)))
				armed = true
			}
			var out []repro.Resp
			c0 := time.Now()
			ok := rt.Run(func() { out = rt.ApplyWindow(p, m, pending) })
			c1 := time.Now()
			name := "Runtime.Run"
			if resubmit {
				name = "resubmit"
			}
			log.add(name, "runtime", c0, c1, rootID, log.newID())
			if ok {
				for i, op := range pending {
					check(op, out[i])
				}
				break
			}
			armed = false
			recID := log.newID()
			rt.Restart()
			c2 := time.Now()
			reps := rt.RecoverAll()
			c3 := time.Now()
			log.add("recovery", "benchmark", c1, c3, rootID, recID)
			log.add("Runtime.Restart", "pmem", c1, c2, recID, log.newID())
			log.add("Runtime.RecoverAll", "runtime", c2, c3, recID, log.newID())
			res.lat = append(res.lat, c3.Sub(c1).Nanoseconds())
			restartNs = append(restartNs, float64(c2.Sub(c1).Nanoseconds()))
			recoverNs = append(recoverNs, float64(c3.Sub(c2).Nanoseconds()))
			if scan, ok := rt.LastScan(); ok {
				marked = append(marked, float64(scan.Marked))
				swept = append(swept, float64(scan.Swept))
			}
			recovered++
			for _, r := range reps {
				n := repro.MatchReport(r, pending, func(_ int, op repro.Op, resp repro.Resp) { check(op, resp) })
				pending = pending[n:]
			}
			resubmit = true
		}
	}
	end := time.Now()
	rt.CancelCrash()
	res.elapsed = end.Sub(start)
	log.add("repetition", "benchmark", start, end, 0, rootID)
	res.goStats = goSnap().since(go0)
	res.mem = rt.Heap().TotalStats().Sub(mem0)

	// After the last recovery the recovered key set must be the model's.
	if msg := m.CheckInvariants(); msg != "" {
		fmt.Fprintln(os.Stderr, "benchmark: map invariant violated:", msg)
		res.failed++
	}
	var want []uint64
	for k := 1; k <= crashKeys; k++ {
		if model.present[k] {
			want = append(want, uint64(k))
		}
	}
	if !slices.Equal(m.Keys(), want) {
		fmt.Fprintln(os.Stderr, "benchmark: recovered key set differs from the model")
		res.failed++
	}

	engineSnap(rt, m).layerInto(res.layer, eng0, res.ops)
	rec1, _ := rt.ReclaimStats()
	reclaimLayer(res.layer, rec0, rec1, res.ops)
	res.layer["pmem.heap_words_used"] = float64(rt.Heap().Used())
	res.layer["pmem.restart_ms"] = median(restartNs) / 1e6
	res.layer["runtime.recover_all_ms"] = median(recoverNs) / 1e6
	res.layer["reclaim.scan_marked"] = median(marked)
	res.layer["reclaim.scan_swept"] = median(swept)
	return res
}
