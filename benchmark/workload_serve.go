package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// serveSpec is a serve workload: conns TCP clients, each keeping depth
// requests in flight (depth goroutines blocking in Client.DoWithID, so
// acknowledgements ride the requests and the response table stays flat).
// Closed loop: a slot issues its next request when the previous returns.
type serveSpec struct {
	conns, depth int
	reqsPerConn  int // per repetition, at scale 1
	mix          mix
	heapWords    int
}

const serveKeys = 4096

var (
	servePipelined = serveSpec{conns: 2, depth: 16, reqsPerConn: 25_000, mix: mix{kGet: 50, kPut: 25, kDel: 25}, heapWords: 1 << 22}
	servePingpong  = serveSpec{conns: 2, depth: 1, reqsPerConn: 20_000, mix: mix{kGet: 30, kPut: 30, kDel: 30, kMove: 10}, heapWords: 1 << 22}
)

// serveConfig is the server every serve workload and ladder row runs.
// Reclaim stays off (the default, and what cmd/kvserver ships): concurrent
// reads on the reclaimer can hang, see README.md "Known defects".
func serveConfig(procs, heapWords int) serve.Config {
	return serve.Config{
		Procs: procs, Shards: 16, Batch: 16, QueueDepth: 32,
		Engine: benchEngine, HeapWords: heapWords,
		PWBLatency: pwbLatency, PSyncLatency: syncLatency,
	}
}

// startServer builds a server with the prefilled keys in its store and
// serves ln. The store is filled directly, before any connection exists,
// so the workers are parked and Proc 0 is free.
func startServer(cfg serve.Config, ln net.Listener, prefill []bool) *serve.Server {
	srv := serve.New(cfg)
	p := srv.Runtime().Proc(0)
	for k := 1; k < len(prefill); k++ {
		if prefill[k] {
			srv.Store().Insert(p, uint64(k))
		}
	}
	go srv.Serve(ln) // returns once srv.Close closes ln
	return srv
}

// kvCaller is the request surface Client and Session share.
type kvCaller interface {
	NextID() uint64
	DoWithID(op byte, reqID, key uint64) (serve.Reply, error)
	MoveWithID(reqID, src, dst uint64) (deleted, inserted bool, err error)
}

// wireOp maps a request kind onto its serve op code.
func wireOp(kind uint8) byte {
	switch kind {
	case kPut:
		return serve.OpPut
	case kDel:
		return serve.OpDel
	default:
		return serve.OpGet
	}
}

// call issues one request under a fresh ID and returns the ID and the
// reply value in the shape setModel.apply predicts. Any error, and any
// reply that is not OK (RETRY and OVERLOAD are ridden out inside the
// client, so one surfacing here is terminal), comes back as an error.
func call(c kvCaller, r req) (id, val uint64, err error) {
	id = c.NextID()
	if r.Kind == kMove {
		del, ins, err := c.MoveWithID(id, r.Key, r.Key2)
		if del {
			val |= 1
		}
		if ins {
			val |= 2
		}
		return id, val, err
	}
	rep, err := c.DoWithID(wireOp(r.Kind), id, r.Key)
	if err == nil && rep.Status != serve.StOK {
		err = fmt.Errorf("request %d: status %d", id, rep.Status)
	}
	return id, rep.Val, err
}

// issuer is one sequential request stream: a slot of a connection, with
// its own key partition, model and latency log.
type issuer struct {
	c      kvCaller
	reqs   []req
	model  *setModel
	lat    []int64
	failed uint64
	log    *spanLog
}

// drive issues the stream, timing every call and checking every reply
// against the model.
func (is *issuer) drive(parent uint64) {
	for _, r := range is.reqs {
		want := is.model.apply(r)
		t0 := time.Now()
		id, val, err := call(is.c, r)
		t1 := time.Now()
		is.lat = append(is.lat, t1.Sub(t0).Nanoseconds())
		is.log.add("client.Do", "client", t0, t1, parent, id)
		if err != nil || val != want {
			is.failed++
		}
	}
}

func (sp serveSpec) run(cx runCtx, rep int, tr *tracer) repResult {
	issuers := sp.conns * sp.depth
	perIssuer := cx.n(sp.reqsPerConn, 8*sp.depth) / sp.depth
	prefill := prefillSet(cx.seed, rep, serveKeys)
	streams := make([]*issuer, issuers)
	for i := range streams {
		pt := partition{issuer: i, issuers: issuers, keys: serveKeys}
		streams[i] = &issuer{
			reqs:  genReqs(newRNG(cx.seed, rep, i), pt, sp.mix, perIssuer),
			model: newSetModel(prefill),
			lat:   make([]int64, 0, perIssuer),
			log:   tr.log(),
		}
	}

	// Set-up: server, listener, connections.
	t0 := startSetup()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("benchmark: listen on loopback: %v", err))
	}
	srv := startServer(serveConfig(benchProcs, sp.heapWords), ln, prefill)
	defer srv.Close()
	for ci := range sp.conns {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			panic(fmt.Sprintf("benchmark: dial loopback: %v", err))
		}
		c := client.New(nc, uint64(ci+1))
		defer c.Close()
		for s := range sp.depth {
			streams[ci*sp.depth+s].c = c
		}
	}
	res := repResult{setup: time.Since(t0), layer: map[string]float64{}}

	heap := srv.Runtime().Heap()
	snap0, mem0, go0 := srv.Snapshot(), heap.TotalStats(), goSnap()
	eng0 := engineSnap(srv.Runtime(), srv.Store())
	root := tr.log()
	rootID := root.newID()
	var wg sync.WaitGroup
	start := time.Now()
	for _, is := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			is.drive(rootID)
		}()
	}
	wg.Wait()
	end := time.Now()
	res.elapsed = end.Sub(start)
	root.add("repetition", "benchmark", start, end, 0, rootID)
	// Snapshot first: it takes the server's lock, which orders the
	// workers' last counter updates before the reads below.
	snap1 := srv.Snapshot()
	res.goStats = goSnap().since(go0)
	res.mem = heap.TotalStats().Sub(mem0)
	eng1 := engineSnap(srv.Runtime(), srv.Store())

	for _, is := range streams {
		res.ops += uint64(len(is.reqs))
		res.failed += is.failed
		res.lat = append(res.lat, is.lat...)
	}
	if msg := srv.Store().CheckInvariants(); msg != "" {
		fmt.Fprintln(os.Stderr, "benchmark: store invariant violated:", msg)
		res.failed++
	}
	ops := float64(res.ops)
	// A MOVE is admitted alone, as a window of one the server counts
	// under Moves rather than Windows.
	var windows, admitted uint64
	for i, p := range snap1.Procs {
		windows += p.Windows - snap0.Procs[i].Windows + p.Moves - snap0.Procs[i].Moves
		admitted += p.Admitted - snap0.Procs[i].Admitted
	}
	res.layer["serve.batch_fill_mean"] = ratio(float64(admitted), float64(windows))
	res.layer["serve.windows_per_kop"] = ratio(float64(windows), ops/1e3)
	res.layer["serve.retried_share"] = ratio(float64(snap1.Retried-snap0.Retried), ops)
	res.layer["serve.shed_share"] = ratio(float64(snap1.Sheds-snap0.Sheds), ops)
	res.layer["serve.deduped_share"] = ratio(float64(snap1.Deduped-snap0.Deduped), ops)
	res.layer["serve.table_entries"] = float64(snap1.TableEntries)
	var p50s, p99s []float64
	for _, c := range snap1.Conns {
		p50s = append(p50s, c.P50Micros)
		p99s = append(p99s, c.P99Micros)
	}
	res.layer["serve.server_p50_us"] = median(p50s)
	res.layer["serve.server_p99_us"] = median(p99s)
	eng1.layerInto(res.layer, eng0, res.ops)
	latencyLayer(res.layer, res.lat, map[string]float64{"client.p90_us": 0.90, "client.p99_us": 0.99})
	res.layer["pmem.heap_words_used"] = float64(heap.Used())
	return res
}
