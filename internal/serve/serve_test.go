package serve_test

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// startServer builds a server over an in-process listener and returns it
// with a dialer for clients.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.MemListener) {
	t.Helper()
	s := serve.New(cfg)
	ln := serve.NewMemListener()
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln
}

func dial(t *testing.T, ln *serve.MemListener, id uint64) *client.Client {
	t.Helper()
	nc, err := ln.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	c := client.New(nc, id)
	t.Cleanup(c.Close)
	return c
}

// TestServeBasic drives the full frame path end to end: membership
// semantics over the wire plus the stats endpoint.
func TestServeBasic(t *testing.T) {
	_, ln := startServer(t, serve.Config{Procs: 2, Batch: 4, HeapWords: 1 << 18})
	c := dial(t, ln, 1)

	steps := []struct {
		op   string
		key  uint64
		want bool
	}{
		{"put", 7, true}, {"put", 7, false}, {"get", 7, true},
		{"del", 7, true}, {"del", 7, false}, {"get", 7, false},
		{"put", 9, true}, {"get", 9, true},
	}
	for i, st := range steps {
		var got bool
		var err error
		switch st.op {
		case "put":
			got, err = c.Put(st.key)
		case "del":
			got, err = c.Del(st.key)
		default:
			got, err = c.Get(st.key)
		}
		if err != nil {
			t.Fatalf("step %d %s(%d): %v", i, st.op, st.key, err)
		}
		if got != st.want {
			t.Fatalf("step %d %s(%d) = %v, want %v", i, st.op, st.key, got, st.want)
		}
	}

	// Out-of-range requests are rejected, not executed.
	if rep, err := c.DoWithID(serve.OpPut, c.NextID(), 0); err == nil || rep.Status != serve.StErr {
		t.Fatalf("put(0) = status %d, err %v; want StErr", rep.Status, err)
	}

	body, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	if st.Queued != uint64(len(steps)) || st.Admitted != st.Queued {
		t.Fatalf("stats queued=%d admitted=%d, want %d/%d", st.Queued, st.Admitted, len(steps), len(steps))
	}
	// Sequential traffic acknowledges each reply on the next request, so
	// by the stats request (which carries the final watermark) every
	// entry has been evicted — the exactly-once table does not grow.
	if st.TableEntries != 0 {
		t.Fatalf("response table holds %d entries, want 0 (all acked)", st.TableEntries)
	}
	if st.EvictedEntries != uint64(len(steps)) {
		t.Fatalf("evicted %d entries, want %d", st.EvictedEntries, len(steps))
	}
	if st.Crashes != 0 || st.Deduped != 0 {
		t.Fatalf("crash-free run reports crashes=%d deduped=%d", st.Crashes, st.Deduped)
	}
	if fill := st.BatchFillMean(); fill <= 0 {
		t.Fatalf("batch fill mean = %v, want > 0", fill)
	}
	if len(st.Conns) != 1 || st.Conns[0].P99Micros <= 0 {
		t.Fatalf("conn stats = %+v, want one conn with latency quantiles", st.Conns)
	}
}

// TestServeBackpressure pins the RETRY protocol: a gated server with a
// tiny queue bounces the overflow, a resubmit with the same request ID
// completes after release, and a resubmit of an answered ID is served
// from the response table without re-executing.
func TestServeBackpressure(t *testing.T) {
	const depth = 2
	s, ln := startServer(t, serve.Config{Procs: 1, Batch: 4, QueueDepth: depth, Gated: true, HeapWords: 1 << 18})
	c := dial(t, ln, 1)

	// Pipeline depth+3 puts. The gate is closed, so the first `depth` sit
	// in the queue and the rest bounce with RETRY.
	ids := make([]uint64, depth+3)
	chs := make([]<-chan serve.Reply, len(ids))
	for i := range ids {
		ids[i] = uint64(100 + i)
		ch, err := c.Send(serve.Request{Op: serve.OpPut, ReqID: ids[i], Key: uint64(i + 1)})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		chs[i] = ch
	}
	for i := depth; i < len(ids); i++ {
		rep := <-chs[i]
		if rep.Status != serve.StRetry {
			t.Fatalf("overflow request %d = status %d, want StRetry", ids[i], rep.Status)
		}
	}

	s.Release()
	for i := 0; i < depth; i++ {
		if rep := <-chs[i]; rep.Status != serve.StOK || rep.Val != 1 {
			t.Fatalf("queued request %d = status %d val %d, want OK/1", ids[i], rep.Status, rep.Val)
		}
	}
	// Resubmit the bounced requests under their original IDs.
	for i := depth; i < len(ids); i++ {
		rep, err := c.DoWithID(serve.OpPut, ids[i], uint64(i+1))
		if err != nil || rep.Val != 1 {
			t.Fatalf("resubmit %d = val %d, err %v; want 1", ids[i], rep.Val, err)
		}
	}
	// Resubmitting an answered ID replays the recorded answer: the key is
	// now present, so re-execution would flip the result to 0.
	rep, err := c.DoWithID(serve.OpPut, ids[0], 1)
	if err != nil || rep.Val != 1 {
		t.Fatalf("dedup replay of %d = val %d, err %v; want recorded 1", ids[0], rep.Val, err)
	}

	st := s.Snapshot()
	if st.Retried < 3 {
		t.Fatalf("retried = %d, want >= 3", st.Retried)
	}
	if st.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", st.Deduped)
	}
}

// TestServeConcurrentStorm hammers a crash-riddled server from several
// connections and audits the recovered store against the responses every
// client observed — the example's invariant, now over the wire.
func TestServeConcurrentStorm(t *testing.T) {
	const (
		conns    = 4
		opsPerC  = 250
		keySpace = 32
	)
	s, ln := startServer(t, serve.Config{
		Procs: 2, Batch: 8, QueueDepth: 16,
		CrashSim: true, CrashEvery: 1500, HeapWords: 1 << 20,
		Engine: repro.EngineIsbOpt,
	})

	net := make([]map[uint64]int, conns)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		net[w] = map[uint64]int{}
		c := dial(t, ln, uint64(w+1))
		wg.Add(1)
		go func(w int, c *client.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < opsPerC; i++ {
				k := uint64(rng.Intn(keySpace)) + 1
				switch rng.Intn(4) {
				case 0:
					ok, err := c.Put(k)
					if err != nil {
						errs <- err
						return
					}
					if ok {
						net[w][k]++
					}
				case 1:
					ok, err := c.Del(k)
					if err != nil {
						errs <- err
						return
					}
					if ok {
						net[w][k]--
					}
				default:
					if _, err := c.Get(k); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client: %v", err)
	}

	if s.Crashes() == 0 {
		t.Fatalf("storm survived 0 crashes; the harness is not crashing")
	}
	total := map[uint64]int{}
	for _, m := range net {
		for k, v := range m {
			total[k] += v
		}
	}
	present := map[uint64]bool{}
	for _, k := range s.Store().Keys() {
		present[k] = true
	}
	for k := uint64(1); k <= keySpace; k++ {
		want := 0
		if present[k] {
			want = 1
		}
		if total[k] != want {
			t.Errorf("key %d: net updates %d, present %v", k, total[k], present[k])
		}
	}
	st := s.Snapshot()
	if st.Queued != conns*opsPerC {
		t.Fatalf("queued = %d, want %d", st.Queued, conns*opsPerC)
	}
	t.Logf("storm: %d crashes, %d from-report replies, batch fill %.2f",
		st.Crashes, st.FromReport, st.BatchFillMean())
}

// TestServeStatsDuringCrashStorm hammers the stats path (direct Snapshot
// and the in-band OpStats frame) concurrently with a crash storm: stats
// must never interfere with the recovery rendezvous, and a Snapshot must
// complete while a recovery runs. Snapshot reads the crash group and the
// runtime before it takes the server lock, and the group's recovery never
// takes it, so the two locks are never nested; the race detector checks
// the reads that cross a recovery.
func TestServeStatsDuringCrashStorm(t *testing.T) {
	s, ln := startServer(t, serve.Config{
		Procs: 2, Batch: 8, QueueDepth: 16,
		CrashSim: true, CrashEvery: 400, HeapWords: 1 << 20,
		Reclaim: true, // every recovery also writes the scan report Snapshot reads
	})
	c := dial(t, ln, 1)
	sc := dial(t, ln, 2)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Snapshot() // direct snapshot: the tightest possible race
			if _, err := sc.Stats(); err != nil {
				return // connection torn down at test end
			}
		}
	}()

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 400; i++ {
			if _, err := c.Put(uint64(i%32) + 1); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("traffic under stats polling: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("traffic stalled while stats were polled through crash recovery (lock-order deadlock)")
	}
	close(stop)
	pollers.Wait()
	if s.Crashes() == 0 {
		t.Fatal("storm fired no crashes; the race was never exercised")
	}
}

// TestServeSlowReaderDoesNotStallWorkers pins the reply/worker decoupling:
// a connection that pipelines requests but never reads replies overflows
// its bounded outbox and is disconnected, while a well-behaved client on
// the SAME Proc keeps completing operations. Pre-fix, the Proc worker
// blocked inside the stalled connection's reply write, halting every
// connection pinned to it (and, under crashes, the whole recovery
// rendezvous).
func TestServeSlowReaderDoesNotStallWorkers(t *testing.T) {
	_, ln := startServer(t, serve.Config{
		Procs: 1, Batch: 4, QueueDepth: 4, HeapWords: 1 << 18,
	})
	good := dial(t, ln, 1)
	if ok, err := good.Put(1); err != nil || !ok {
		t.Fatalf("warm-up put = %v, %v", ok, err)
	}

	// A raw connection that writes requests and never reads a reply.
	nc, err := ln.Dial()
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer nc.Close()
	var sendErr error
	for i := 0; i < 500 && sendErr == nil; i++ {
		req := serve.Request{Op: serve.OpPut, ReqID: uint64(1000 + i), Key: uint64(i%8) + 1}
		sendErr = serve.WriteFrame(nc, serve.EncodeRequest(req))
	}
	if sendErr == nil {
		t.Fatal("server never disconnected the non-reading connection")
	}

	// The worker is free: the well-behaved neighbour still completes.
	done := make(chan error, 1)
	go func() {
		for k := uint64(10); k < 20; k++ {
			if _, err := good.Put(k); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("well-behaved client after slow-reader teardown: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("worker stalled behind the non-reading connection's replies")
	}
}

// TestServeCloseDuringCrash pins shutdown while a crash is in flight: the
// workers must still run the recovery rendezvous so Close returns and the
// store is auditable.
func TestServeCloseDuringCrash(t *testing.T) {
	s, ln := startServer(t, serve.Config{
		Procs: 2, Batch: 4, CrashSim: true, HeapWords: 1 << 18,
	})
	c := dial(t, ln, 1)
	for k := uint64(1); k <= 4; k++ {
		if _, err := c.Put(k); err != nil {
			t.Fatalf("put(%d): %v", k, err)
		}
	}
	s.Runtime().Heap().Crash()
	for !s.Runtime().Crashing() {
		runtime.Gosched()
	}
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while a crash was in flight")
	}
	if got := len(s.Store().Keys()); got != 4 {
		t.Fatalf("store holds %d keys after close-through-crash, want 4", got)
	}
}
