package serve_test

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro"
	"repro/internal/crash"
	"repro/internal/serve"
	"repro/internal/serve/chaos"
	"repro/internal/serve/client"
)

// coalesceWindow is the pinned window: 16 pipelined requests on one
// connection, a full Batch, with updates so the window costs psyncs.
const coalesceWindow = 16

func coalesceReq(i int) (op byte, reqID, key uint64) {
	return []byte{serve.OpPut, serve.OpGet, serve.OpDel, serve.OpPut}[i%4], uint64(500 + i), uint64(i%6 + 1)
}

func coalesceConfig(crashSim bool) serve.Config {
	return serve.Config{
		Procs: 1, Shards: 4, Batch: coalesceWindow, QueueDepth: 2 * coalesceWindow,
		Engine: repro.EngineIsbOpt, HeapWords: 1 << 18, CrashSim: crashSim, Gated: true,
	}
}

// coalesceReqs is the window as a pipeline table; its reply values are
// whatever the crash-free run gives.
var coalesceReqs = func() []pipeReq {
	reqs := make([]pipeReq, coalesceWindow)
	for i := range reqs {
		op, id, key := coalesceReq(i)
		reqs[i] = pipeReq{op: op, reqID: id, key: key}
	}
	return reqs
}()

// directWindowSyncs is the psync cost of the same 16 operations admitted
// by Runtime.ApplyWindow with no serve layer above it.
func directWindowSyncs() uint64 {
	cfg := coalesceConfig(false)
	rt := repro.New(repro.Config{Procs: 1, HeapWords: cfg.HeapWords, Engine: cfg.Engine})
	m := rt.NewHashMap(cfg.Shards)
	m.SetArgMask(serve.MaxKey)
	ops := make([]repro.Op, coalesceWindow)
	for i := range ops {
		op, id, key := coalesceReq(i)
		kind := map[byte]uint64{serve.OpPut: repro.OpInsert, serve.OpDel: repro.OpDelete, serve.OpGet: repro.OpFind}[op]
		ops[i] = repro.Op{Kind: kind, Arg: serve.PackArg(id, key)}
	}
	before := rt.Heap().TotalStats().Syncs
	rt.ApplyWindow(rt.Proc(0), m, ops)
	return rt.Heap().TotalStats().Syncs - before
}

// TestWindowCoalescing is the deterministic pin of the window-granular
// serve path, with no wall-clock assertion: a gated server fixes the queue
// contents, so 16 pipelined requests are admitted as exactly one window,
// cost exactly the psyncs of a direct ApplyWindow of the same operations,
// and all 16 replies leave in exactly ONE server-side Write. A MOVE, which
// is a singleton window, is answered in one Write too.
func TestWindowCoalescing(t *testing.T) {
	p := newPipeline(t, coalesceConfig(false), coalesceReqs)
	t.Cleanup(p.close)
	s, c, srvSide := p.s, p.c, p.srvSide
	heap := s.Runtime().Heap()
	before := heap.TotalStats().Syncs
	if _, err := p.run(); err != nil {
		t.Fatal(err)
	}
	syncs := heap.TotalStats().Syncs - before
	st := s.Snapshot()
	if p := st.Procs[0]; p.Windows != 1 || p.BatchFill[coalesceWindow] != 1 {
		t.Fatalf("windows=%d fill[%d]=%d, want one full window", p.Windows, coalesceWindow, p.BatchFill[coalesceWindow])
	}
	if want := directWindowSyncs(); syncs != want || want != 1 {
		t.Fatalf("window cost %d psyncs, direct ApplyWindow %d, want both 1", syncs, want)
	}
	if got := srvSide.Writes(); got != 1 {
		t.Fatalf("server made %d Writes for one window's %d replies, want 1", got, coalesceWindow)
	}

	if _, _, err := c.Move(1, 9); err != nil {
		t.Fatalf("move: %v", err)
	}
	if got := srvSide.Writes(); got != 2 {
		t.Fatalf("server made %d Writes after the MOVE, want 2 (one per window)", got)
	}
	// The writer publishes its counters after the Write returns, which can
	// trail the client's receipt of the reply.
	for st = s.Snapshot(); st.Flushes < 2; st = s.Snapshot() {
		runtime.Gosched()
	}
	if st.Flushes != 2 || st.FramesOut != coalesceWindow+1 || st.Conns[0].Flushes != 2 || st.Conns[0].FramesOut != coalesceWindow+1 {
		t.Fatalf("stats flushes=%d frames_out=%d (conn %d/%d), want 2/%d",
			st.Flushes, st.FramesOut, st.Conns[0].Flushes, st.Conns[0].FramesOut, coalesceWindow+1)
	}
}

// TestServeMoveSyncPrice pins the other admission shape the server uses: a
// MOVE is one ApplyTxn, and under Isb-Opt a transaction is one sync scope —
// its announcement is stored at the first install and rides its barrier, and
// one psync closes the scope — so a MOVE whose two legs both take effect
// costs the server's heap exactly the 1 psync a window that takes effect
// costs (serve_pingpong's syncs/op rests on this count).
func TestServeMoveSyncPrice(t *testing.T) {
	cfg := coalesceConfig(false)
	cfg.Gated = false
	s := serve.New(cfg)
	ln := serve.NewMemListener()
	go s.Serve(ln)
	t.Cleanup(s.Close)
	c := dial(t, ln, 1)
	if fresh, err := c.Put(1); err != nil || !fresh {
		t.Fatalf("put: fresh=%v err=%v", fresh, err)
	}
	heap := s.Runtime().Heap()
	before := heap.TotalStats().Syncs
	deleted, inserted, err := c.Move(1, 9)
	if err != nil || !deleted || !inserted {
		t.Fatalf("move: deleted=%v inserted=%v err=%v, want both legs to take effect", deleted, inserted, err)
	}
	if got := heap.TotalStats().Syncs - before; got != 1 {
		t.Fatalf("one MOVE cost %d psyncs, want 1", got)
	}
	if st := s.Snapshot(); st.Procs[0].Moves != 1 {
		t.Fatalf("admitted %d MOVE windows, want 1", st.Procs[0].Moves)
	}
}

// TestWindowCoalescingAcrossCrash pins the crash path at every access
// offset of the window: the replies of the prefix MatchReport proves durable
// leave as one batch, and the re-admitted suffix as another, so a window
// crashed once costs at most two Writes — exactly one when the report
// answers the whole window or none of it. The replies are the crash-free
// run's.
func TestWindowCoalescingAcrossCrash(t *testing.T) {
	answeredFromReport := false
	crash.SweepTest(t, func() crash.Instance {
		p := newPipeline(t, coalesceConfig(true), coalesceReqs)
		return p.instance(func() string {
			st, writes := p.s.Snapshot(), p.srvSide.Writes()
			if writes < 1 || writes > 2 || (st.FromReport == 0 || st.FromReport == coalesceWindow) && writes != 1 {
				return fmt.Sprintf("%d Writes for a window with %d of its %d replies from the report, want 1, or 2 for a split",
					writes, st.FromReport, coalesceWindow)
			}
			answeredFromReport = answeredFromReport || st.FromReport > 0
			return ""
		}, nil)
	}, nil)
	if !answeredFromReport {
		t.Fatal("no offset answered any reply from a report; the crash path was not exercised")
	}
}

// replyBurst runs one reply burst on loopback TCP — a socket Write is a
// system call that keeps its processor, which is what makes a flusher that
// writes at once miss the callers woken with it; net.Pipe's Write parks the
// writer and would hide that. 16 callers in a closed loop on one connection
// send a first request each; a gated server holds them until all are queued,
// so the 16 replies come back as one burst (one window, one server Write),
// and each woken caller sends its follow-up at once. It returns the socket
// Writes the client made for the 16 follow-ups and the socket reads the
// server took them in.
func replyBurst(t *testing.T) (writes, reads uint64) {
	t.Helper()
	s := serve.New(coalesceConfig(false))
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen on loopback: %v", err)
	}
	go s.Serve(ln)
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial loopback: %v", err)
	}
	cc := chaos.NewConn(nc, chaos.Plan{})
	c := client.New(cc, 1)
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < coalesceWindow; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, _, key := coalesceReq(i)
			for round := 0; round < 2; round++ {
				if _, err := c.Do(op, key); err != nil {
					t.Errorf("caller %d round %d: %v", i, round, err)
					return
				}
			}
		}()
	}
	// Every first request is queued on the server, and so every Write that
	// carried one has been counted.
	for s.Snapshot().Queued < coalesceWindow {
		runtime.Gosched()
	}
	before, in0 := cc.Writes(), s.Snapshot()
	s.Release()
	wg.Wait()
	in1 := s.Snapshot()
	if st := c.SessionStats(); st.Writes != cc.Writes() || st.FramesOut != 2*coalesceWindow || in1.FramesIn != st.FramesOut {
		t.Fatalf("client counted %d Writes carrying %d frames and the server %d frames in; the socket took %d Writes for %d requests",
			st.Writes, st.FramesOut, in1.FramesIn, cc.Writes(), 2*coalesceWindow)
	}
	return cc.Writes() - before, in1.Reads - in0.Reads
}

// TestReplyBurstCoalesces pins the burst-granular send path with counts
// only: the client's flusher yields while the callers the burst woke keep
// sending, so the 16 follow-ups of a 16-reply burst leave in one socket
// Write, where a flusher that yields once sends the first alone and one that
// writes at once issues about one each. The gather depends on the scheduler
// by construction, so the pin runs on one processor and on two, and holds the
// median of nine bursts to the bound: a burst the scheduler happens to split
// cannot fail it, a writer that does not gather the whole burst cannot pass
// it.
func TestReplyBurstCoalesces(t *testing.T) {
	const bursts = 9
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var writes []uint64
			var sumWrites, sumReads uint64
			for range bursts {
				w, r := replyBurst(t)
				writes = append(writes, w)
				sumWrites, sumReads = sumWrites+w, sumReads+r
			}
			t.Logf("Writes for the %d follow-ups of each burst: %v (%.3f per request); the server read them %.2f frames per read",
				coalesceWindow, writes, float64(sumWrites)/(bursts*coalesceWindow), bursts*coalesceWindow/float64(sumReads))
			sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })
			if median := writes[bursts/2]; median != 1 {
				t.Fatalf("the %d follow-ups of a reply burst left in %d Writes (median of %d bursts), want 1",
					coalesceWindow, median, bursts)
			}
		})
	}
}
