package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro"
	"repro/internal/hashmap"
	"repro/internal/isb"
	"repro/internal/list"
	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// The layer ladder pushes one seeded GET/PUT/DEL stream (50/25/25 over
// 4096 keys, 1 Proc, 1 connection, depth 1) through each boundary of the
// stack going up. A row's operation includes the work of the row it names
// in Contains, so their difference is the upper layer's self time.
// Single-threaded, so mallocs/op and syncs/op repeat exactly for a seed.

// ladderRow is one boundary's cost per operation.
type ladderRow struct {
	Name   string `json:"name"`
	Metric string `json:"metric,omitempty"` // per-layer metric the row's ns/op is reported as
	// Contains names the row whose work this row's operation includes, so
	// their difference is this row's own layer; empty on the bottom row.
	Contains  string  `json:"contains,omitempty"`
	NsPerOp   float64 `json:"ns_per_op"`
	MallocsOp float64 `json:"mallocs_per_op"`
	SyncsOp   float64 `json:"syncs_per_op"`
	Ops       int     `json:"ops"`
	Failed    uint64  `json:"failed"`
}

// Row names, bottom to top. There are two chains. Apply stands on the map,
// the list and the raw persistence instructions. The windows and the
// transaction run the same map operations under another persistence
// schedule (write-backs overlap inside a window and syncs are shared), so
// they contain no lower row; the serve rows stand on the window of one,
// which is what a depth-1 connection is admitted as.
const (
	rowPmem     = "pmem: Store+PWB+PSync"
	rowList     = "isb+list: ReadOp/ApplyOp on a 256-key list"
	rowMap      = "hashmap: Map.ReadOp/ApplyOp, 16 shards"
	rowApply    = "runtime: HashMap.Apply"
	rowWindow1  = "runtime: ApplyWindow of 1"
	rowWindow16 = "runtime: ApplyWindow of 16, per op"
	rowTxn      = "runtime: ApplyTxn(delete, insert), per transaction"
	rowServe    = "serve: raw frames over MemListener"
	rowClient   = "client: Client over MemListener"
	rowSession  = "client: Session over MemListener"
	rowTCP      = "wire: Client over loopback TCP"
)

const (
	ladderKeys     = 4096
	ladderListKeys = 256 // one bucket's share of the keys on a 16-shard map
	ladderSegments = 5   // ns/op is the median of this many equal segments
	ladderWindow   = 16
)

// ladderStep runs operation i of the stream and reports whether the
// response matched the row's model.
type ladderStep func(i int) bool

// timeRow drives n steps in ladderSegments timed segments and fills the
// row. syncs reads the row's heap; it is read before and after.
func timeRow(row ladderRow, n int, opsPerStep float64, syncs func() uint64, step ladderStep) ladderRow {
	seg := max(1, n/ladderSegments)
	var nsPerOp []float64
	s0, g0 := syncs(), goSnap()
	for lo := 0; lo < n; lo += seg {
		hi := min(lo+seg, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			if !step(i) {
				row.Failed++
			}
		}
		nsPerOp = append(nsPerOp, float64(time.Since(t0).Nanoseconds())/(float64(hi-lo)*opsPerStep))
	}
	ops := float64(n) * opsPerStep
	row.NsPerOp = median(nsPerOp)
	row.MallocsOp = float64(goSnap().since(g0).mallocs) / ops
	row.SyncsOp = float64(syncs()-s0) / ops
	row.Ops = int(ops)
	return row
}

// ladderHeap is the heap the rows below the Runtime build on.
func ladderHeap() *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Words: 1 << 22, Procs: 1, PWBLatency: pwbLatency, PSyncLatency: syncLatency})
}

func ladderRuntime() *repro.Runtime {
	return repro.New(repro.Config{Procs: 1, Engine: benchEngine, HeapWords: 1 << 22, PWBLatency: pwbLatency, PSyncLatency: syncLatency})
}

// runLadder measures every row on n operations drawn from seed.
func runLadder(seed int64, n int) []ladderRow {
	n = max(n/ladderWindow, 1) * ladderWindow
	reqs := genReqs(newRNG(seed, -1, 0), partition{issuers: 1, keys: ladderKeys}, mix{kGet: 50, kPut: 25, kDel: 25}, n)
	prefill := prefillSet(seed, -1, ladderKeys)
	var rows []ladderRow
	add := func(r ladderRow) {
		rows = append(rows, r)
		runtime.GC() // the row's heap is garbage; keep its collection out of the next row
	}

	// Row 0: what one persisted word costs.
	{
		h := ladderHeap()
		p := h.Proc(0)
		a := p.Alloc(pmem.WordsPerLine)
		add(timeRow(ladderRow{Name: rowPmem}, n, 1,
			func() uint64 { return h.TotalStats().Syncs },
			func(i int) bool {
				p.Store(a, uint64(i))
				p.PWB(a)
				p.PSync()
				return true
			}))
	}

	// Row 1: an engine operation on one bucket list.
	{
		h := ladderHeap()
		p := h.Proc(0)
		l := list.NewWithEngine(h, isb.NewEngineOpt(h))
		small := make([]bool, ladderListKeys+1)
		for k := 1; k <= ladderListKeys; k++ {
			if small[k] = prefill[k]; small[k] {
				l.Insert(p, uint64(k))
			}
		}
		model := newSetModel(small)
		add(timeRow(ladderRow{Name: rowList, Metric: "isb.list_op_ns", Contains: rowPmem}, n, 1,
			func() uint64 { return h.TotalStats().Syncs },
			func(i int) bool {
				kind, key := opKind(reqs[i].Kind), (reqs[i].Key-1)%ladderListKeys+1
				want := model.applyOp(kind, key)
				if kind == repro.OpFind {
					return isb.Bool(l.ReadOp(p, kind, key)) == want
				}
				return isb.Bool(l.ApplyOp(p, kind, key)) == want
			}))
	}

	// Row 2: the sharded map, still below the Runtime (no announcement).
	{
		h := ladderHeap()
		p := h.Proc(0)
		m := hashmap.NewWithEngine(h, isb.NewEngineOpt(h), 16)
		for k := 1; k <= ladderKeys; k++ {
			if prefill[k] {
				m.Insert(p, uint64(k))
			}
		}
		model := newSetModel(prefill)
		add(timeRow(ladderRow{Name: rowMap, Metric: "hashmap.op_ns", Contains: rowList}, n, 1,
			func() uint64 { return h.TotalStats().Syncs },
			func(i int) bool {
				kind, key := opKind(reqs[i].Kind), reqs[i].Key
				want := model.applyOp(kind, key)
				if kind == repro.OpFind {
					return isb.Bool(m.ReadOp(p, kind, key)) == want
				}
				return isb.Bool(m.ApplyOp(p, kind, key)) == want
			}))
	}

	// Rows 3-4: the Runtime's admission paths.
	newMap := func() (*repro.Runtime, *repro.HashMap, *setModel) {
		rt := ladderRuntime()
		m := rt.NewHashMap(16)
		prefillMap(rt, m, prefill)
		return rt, m, newSetModel(prefill)
	}
	{
		rt, m, model := newMap()
		p := rt.Proc(0)
		add(timeRow(ladderRow{Name: rowApply, Metric: "runtime.apply_ns", Contains: rowMap}, n, 1,
			func() uint64 { return rt.Heap().TotalStats().Syncs },
			func(i int) bool {
				op := repro.Op{Kind: opKind(reqs[i].Kind), Arg: reqs[i].Key}
				return m.Apply(p, op).Bool() == model.applyOp(op.Kind, op.Arg)
			}))
	}
	for _, win := range []int{1, ladderWindow} {
		rt, m, model := newMap()
		p := rt.Proc(0)
		ops := make([]repro.Op, win)
		row := ladderRow{Name: rowWindow1, Metric: "runtime.window1_ns"}
		if win > 1 {
			row = ladderRow{Name: rowWindow16, Metric: "runtime.window16_ns"}
		}
		add(timeRow(row, n/win, float64(win),
			func() uint64 { return rt.Heap().TotalStats().Syncs },
			func(i int) bool {
				for j := range ops {
					ops[j] = repro.Op{Kind: opKind(reqs[i*win+j].Kind), Arg: reqs[i*win+j].Key}
				}
				ok := true
				for j, resp := range rt.ApplyWindow(p, m, ops) {
					ok = ok && resp.Bool() == model.applyOp(ops[j].Kind, ops[j].Arg)
				}
				return ok
			}))
	}
	{
		// One two-leg transaction per pair of stream keys (delete the
		// first, insert the second: a MOVE).
		rt, m, model := newMap()
		p := rt.Proc(0)
		add(timeRow(ladderRow{Name: rowTxn, Metric: "runtime.txn_ns"}, n/2, 1,
			func() uint64 { return rt.Heap().TotalStats().Syncs },
			func(i int) bool {
				src, dst := reqs[2*i].Key, reqs[2*i+1].Key
				del, ins := rt.ApplyTxn(p,
					repro.TxnLeg{S: m, Op: repro.Op{Kind: repro.OpDelete, Arg: src}},
					repro.TxnLeg{S: m, Op: repro.Op{Kind: repro.OpInsert, Arg: dst}})
				return del.Bool() == model.remove(src) && ins.Bool() == model.insert(dst)
			}))
	}

	// Rows 5-8: the serve stack, one Proc so every window is a singleton.
	type dialer func() (net.Conn, error)
	serveRow := func(row ladderRow, tcp bool, mk func(dial dialer) (ladderStep, func())) {
		var ln net.Listener
		var dial dialer
		if tcp {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(fmt.Sprintf("benchmark: listen on loopback: %v", err))
			}
			ln, dial = l, func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
		} else {
			l := serve.NewMemListener()
			ln, dial = l, l.Dial
		}
		srv := startServer(serveConfig(1, 1<<22), ln, prefill)
		defer srv.Close()
		step, closeClient := mk(dial)
		defer closeClient()
		add(timeRow(row, n, 1, func() uint64 { return srv.Runtime().Heap().TotalStats().Syncs }, step))
	}
	mustDial := func(dial dialer) net.Conn {
		nc, err := dial()
		if err != nil {
			panic(fmt.Sprintf("benchmark: dial: %v", err))
		}
		return nc
	}
	callerStep := func(c kvCaller) ladderStep {
		model := newSetModel(prefill)
		return func(i int) bool {
			want := model.apply(reqs[i])
			_, val, err := call(c, reqs[i])
			return err == nil && val == want
		}
	}
	serveRow(ladderRow{Name: rowServe, Metric: "serve.mem_rtt_ns", Contains: rowWindow1}, false,
		func(dial dialer) (ladderStep, func()) {
			nc := mustDial(dial)
			model := newSetModel(prefill)
			const base = uint64(1) << serve.SeqBits // client 1's request IDs
			return func(i int) bool {
				want := model.apply(reqs[i])
				// Acknowledge the previous reply the way Client does, so
				// the server's response table stays flat on every row.
				rq := serve.Request{Op: wireOp(reqs[i].Kind), ReqID: base | uint64(i+1), Key: reqs[i].Key}
				if i > 0 {
					rq.Ack = base | uint64(i)
				}
				if err := serve.WriteFrame(nc, serve.EncodeRequest(rq)); err != nil {
					return false
				}
				payload, err := serve.ReadFrame(nc)
				if err != nil {
					return false
				}
				rep, err := serve.DecodeReply(payload)
				return err == nil && rep.Status == serve.StOK && rep.ReqID == rq.ReqID && rep.Val == want
			}, func() { nc.Close() }
		})
	serveRow(ladderRow{Name: rowClient, Metric: "client.mem_rtt_ns", Contains: rowServe}, false,
		func(dial dialer) (ladderStep, func()) {
			c := client.New(mustDial(dial), 1)
			return callerStep(c), c.Close
		})
	serveRow(ladderRow{Name: rowSession, Metric: "client.session_rtt_ns", Contains: rowServe}, false,
		func(dial dialer) (ladderStep, func()) {
			s, err := client.DialSession(client.SessionConfig{ClientID: 1, Dial: dial})
			if err != nil {
				panic(fmt.Sprintf("benchmark: dial session: %v", err))
			}
			return callerStep(s), s.Close
		})
	serveRow(ladderRow{Name: rowTCP, Metric: "wire.tcp_rtt_ns", Contains: rowClient}, true,
		func(dial dialer) (ladderStep, func()) {
			c := client.New(mustDial(dial), 1)
			return callerStep(c), c.Close
		})
	return rows
}

// codecCost times the frame codec alone: encode, WriteFrame, ReadFrame and
// decode of one request and one reply through a bytes.Buffer.
func codecCost(n int) (nsPerReq, mallocsPerReq float64, failed uint64) {
	var buf bytes.Buffer
	g0, t0 := goSnap(), time.Now()
	for i := range n {
		rq := serve.Request{Op: serve.OpPut, ReqID: uint64(i + 1), Key: uint64(i%ladderKeys + 1), Ack: uint64(i)}
		rp := serve.Reply{Status: serve.StOK, ReqID: rq.ReqID, Val: 1}
		buf.Reset()
		if err := serve.WriteFrame(&buf, serve.EncodeRequest(rq)); err != nil {
			failed++
			continue
		}
		payload, err := serve.ReadFrame(&buf)
		if got, derr := serve.DecodeRequest(payload); err != nil || derr != nil || got != rq {
			failed++
		}
		if err := serve.WriteFrame(&buf, serve.EncodeReply(rp)); err != nil {
			failed++
			continue
		}
		payload, err = serve.ReadFrame(&buf)
		if got, derr := serve.DecodeReply(payload); err != nil || derr != nil || got.ReqID != rp.ReqID || got.Val != rp.Val {
			failed++
		}
	}
	elapsed := time.Since(t0)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(goSnap().since(g0).mallocs) / float64(n), failed
}

// ladderLayer renders the ladder as per-layer metrics.
func ladderLayer(rows []ladderRow, into map[string]float64) {
	byMetric := map[string]ladderRow{}
	for _, r := range rows {
		if r.Metric != "" {
			into[r.Metric] = r.NsPerOp
			byMetric[r.Metric] = r
		}
	}
	into["wire.tcp_minus_mem_ns"] = byMetric["wire.tcp_rtt_ns"].NsPerOp - byMetric["client.mem_rtt_ns"].NsPerOp
	// The client layer's own allocations: what Client adds over the
	// benchmark writing the same frames by hand.
	into["client.mallocs_per_req"] = byMetric["client.mem_rtt_ns"].MallocsOp - byMetric["serve.mem_rtt_ns"].MallocsOp
}
