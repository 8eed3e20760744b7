package bench

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/isb"
	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/serve/chaos"
	"repro/internal/serve/client"
)

// ServePoint is one serve-layer cell: the full network front-end (framed
// in-process transport, admission queues, batched ApplyWindow) driven by
// `Conns` pipelining clients, with simulated persistence latencies. The
// batch axis is what the cell argues about: concurrent connections are
// what fills admission windows, so syncs/op at Batch=N must undercut the
// Batch=1 anchor — the serve-layer restatement of the paper's batched
// placement claim, which ServeBatchGate checks under cmd/bench -compare.
type ServePoint struct {
	Name          string  `json:"name"`
	Conns         int     `json:"conns"`
	Procs         int     `json:"procs"`
	Batch         int     `json:"batch"`
	Ops           int     `json:"ops"`
	Seconds       float64 `json:"seconds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	SyncsPerOp    float64 `json:"syncs_per_op"`
	PersistsPerOp float64 `json:"persists_per_op"`
	// Retried counts RETRY (backpressure) replies; BatchFillMean is the
	// mean admitted window size (the batching the connection mix earned).
	Retried       uint64  `json:"retried"`
	BatchFillMean float64 `json:"batch_fill_mean"`
	// Client-observed service latency, aggregated across connections
	// (median of per-conn p50s; worst per-conn p99).
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	// FaultRate is the chaos schedule's expected connection kills per KiB
	// of traffic (0 = fault-free wire, the legacy cells). Fault cells run
	// session clients, so the workload completes exactly once regardless;
	// the counters below price what the survival cost:
	// connection re-establishments, OVERLOAD replies and request-deadline
	// expiries observed across all sessions. Validate requires the
	// fault-free cells to show zero reconnects/timeouts and the faulted
	// cells to show reconnects > 0 (otherwise the axis measured nothing).
	FaultRate  float64 `json:"fault_rate"`
	Reconnects uint64  `json:"reconnects"`
	Sheds      uint64  `json:"sheds"`
	Timeouts   uint64  `json:"timeouts"`
}

// kvClient is the request surface runServe drives: the raw pipelining
// Client on a fault-free wire, the reconnecting Session through chaos.
type kvClient interface {
	Put(key uint64) (bool, error)
	Del(key uint64) (bool, error)
	Get(key uint64) (bool, error)
}

// serveProcs is the fixed admission pool every serve cell runs on: the
// conns axis scales offered load against a constant-size server.
const serveProcs = 2

// runServe measures one serve cell: conns clients, each keeping up to
// `batch` requests in flight over its own connection, for opsPerConn
// requests per client against a crash-free server (the crash path has its
// own conformance sweep; this cell prices the steady-state serve path).
// faultRate > 0 additionally runs the wire through a seeded
// chaos.Listener killing connections mid-frame, and swaps the raw Client
// for the reconnecting Session — the cell then prices the hostile-network
// path: same exactly-once workload, plus redials and resubmits.
func runServe(p Params, conns, batch int, faultRate float64) ServePoint {
	s := serve.New(serve.Config{
		Procs: serveProcs, Shards: 16, Batch: batch, QueueDepth: 4 * batch,
		Engine: repro.EngineIsbOpt, Reclaim: true, HeapWords: 1 << 20,
		PWBLatency: pmem.DefaultPWBLatency, PSyncLatency: pmem.DefaultPSyncLatency,
	})
	defer s.Close()
	ln := serve.NewMemListener()
	var sched *chaos.Schedule
	if faultRate > 0 {
		sched = chaos.NewSchedule(chaos.ScheduleConfig{Seed: p.Seed, KillRate: faultRate})
		go s.Serve(chaos.NewListener(ln, sched))
	} else {
		go s.Serve(ln)
	}

	rt := s.Runtime()
	rt.Heap().ResetAllStats()
	ops := conns * p.OpsPerProc
	var sessions []*client.Session
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		var c kvClient
		if sched != nil {
			sess, err := client.DialSession(client.SessionConfig{
				ClientID:       uint64(w + 1),
				Dial:           func() (net.Conn, error) { return ln.Dial() },
				RequestTimeout: 10 * time.Second,
				Seed:           p.Seed + int64(w),
			})
			if err != nil {
				panic(err)
			}
			sessions = append(sessions, sess)
			c = sess
		} else {
			nc, err := ln.Dial()
			if err != nil {
				panic(err)
			}
			c = client.New(nc, uint64(w+1))
		}
		// Pipelining window = the admission batch: `slots` concurrent
		// request streams per connection, so the server's windows can fill.
		slots := batch
		if slots > 16 {
			slots = 16
		}
		perSlot := p.OpsPerProc / slots
		rest := p.OpsPerProc - perSlot*slots
		for sl := 0; sl < slots; sl++ {
			n := perSlot
			if sl < rest {
				n++
			}
			wg.Add(1)
			go func(w, sl, n int, c kvClient) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(p.Seed*1009 + int64(w)*31 + int64(sl)))
				for i := 0; i < n; i++ {
					k := uint64(rng.Intn(p.KeyRange)) + 1
					var err error
					switch rng.Intn(4) {
					case 0:
						_, err = c.Put(k)
					case 1:
						_, err = c.Del(k)
					default:
						_, err = c.Get(k)
					}
					if err != nil {
						panic(err)
					}
				}
			}(w, sl, n, c)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	var agg client.SessionStats
	for _, sess := range sessions {
		cs := sess.SessionStats()
		agg.Reconnects += cs.Reconnects
		agg.Sheds += cs.Sheds
		agg.Timeouts += cs.Timeouts
		sess.Close()
	}

	snap := s.Snapshot()
	mem := rt.Heap().TotalStats()
	st := isb.Stats{Ops: uint64(ops), Mem: mem}
	name := fmt.Sprintf("serve/conns=%d/procs=%d/batch=%d", conns, serveProcs, batch)
	if faultRate > 0 {
		// Fault cells get their own names so cross-report comparison never
		// matches a hostile-wire cell against a fault-free baseline cell.
		name = fmt.Sprintf("%s/fault=%g", name, faultRate)
	}
	pt := ServePoint{
		Name:          name,
		Conns:         conns,
		Procs:         serveProcs,
		Batch:         batch,
		Ops:           ops,
		Seconds:       elapsed.Seconds(),
		SyncsPerOp:    st.SyncsPerOp(),
		PersistsPerOp: st.PersistsPerOp(),
		Retried:       snap.Retried,
		BatchFillMean: snap.BatchFillMean(),
		FaultRate:     faultRate,
		Reconnects:    agg.Reconnects,
		Sheds:         agg.Sheds,
		Timeouts:      agg.Timeouts,
	}
	if elapsed > 0 {
		pt.OpsPerSec = float64(ops) / elapsed.Seconds()
	}
	var p50s []float64
	for _, cs := range snap.Conns {
		p50s = append(p50s, cs.P50Micros)
		if cs.P99Micros > pt.P99Micros {
			pt.P99Micros = cs.P99Micros
		}
	}
	if len(p50s) > 0 {
		sort.Float64s(p50s)
		pt.P50Micros = p50s[len(p50s)/2]
	}
	return pt
}

// runServeMatrix produces the serve section: conns × batch fault-free
// cells, plus one hostile-wire cell per (conns, positive fault rate) at
// the largest batch size — the configuration the degradation curve
// argues about (rate 0 is already every legacy cell, so it adds nothing).
func runServeMatrix(p Params) []ServePoint {
	maxBatch := 1
	for _, b := range p.ServeBatches {
		if b > maxBatch {
			maxBatch = b
		}
	}
	var out []ServePoint
	for _, conns := range p.ServeConns {
		for _, batch := range p.ServeBatches {
			out = append(out, runServe(p, conns, batch, 0))
		}
		for _, rate := range p.ServeFaultRates {
			if rate > 0 {
				out = append(out, runServe(p, conns, maxBatch, rate))
			}
		}
	}
	return out
}
