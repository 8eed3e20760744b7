package client

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/chaos"
)

// startSessionServer builds an in-process server for session tests.
func startSessionServer(t *testing.T, cfg serve.Config) (*serve.Server, *serve.MemListener) {
	t.Helper()
	s := serve.New(cfg)
	ln := serve.NewMemListener()
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln
}

// TestSessionSurvivesConnectionKills drives a workload through a dialer
// whose every connection is killed mid-stream by a seeded chaos schedule:
// the session must redial, resubmit all unsettled IDs, and complete the
// whole workload exactly-once — every PUT of a distinct key reports
// "newly inserted", which a duplicated execution would falsify.
func TestSessionSurvivesConnectionKills(t *testing.T) {
	srv, ln := startSessionServer(t, serve.Config{Procs: 2, Batch: 4, HeapWords: 1 << 18})
	sched := chaos.NewSchedule(chaos.ScheduleConfig{Seed: 11, KillRate: 8}) // mean kill at 128 bytes (~3 frames)
	s, err := DialSession(SessionConfig{
		ClientID: 1,
		Dial: func() (net.Conn, error) {
			nc, err := ln.Dial()
			if err != nil {
				return nil, err
			}
			return sched.Wrap(nc), nil
		},
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial session: %v", err)
	}
	defer s.Close()

	const n = 64
	for k := uint64(1); k <= n; k++ {
		ins, err := s.Put(k)
		if err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		if !ins {
			t.Fatalf("put %d reported already-present: duplicate execution", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		ok, err := s.Get(k)
		if err != nil {
			t.Fatalf("get %d: %v", k, err)
		}
		if !ok {
			t.Fatalf("get %d = absent after put", k)
		}
	}

	st := s.SessionStats()
	if st.Reconnects == 0 || st.Resubmits == 0 {
		t.Fatalf("hostile dialer produced no reconnects/resubmits: %+v", st)
	}
	if st.Dials != st.Reconnects+1 {
		t.Fatalf("dials %d != reconnects %d + 1", st.Dials, st.Reconnects)
	}
	// The server executed each distinct ID exactly once: its store holds
	// exactly the n keys, and resubmitted IDs were deduped, not re-run.
	snap := srv.Snapshot()
	if snap.Disconnects == 0 {
		t.Fatalf("server saw no disconnects under a killing schedule: %+v", snap)
	}
}

// TestSessionDialExhaustionFailsSession pins the redial budget: a dialer
// that never succeeds must fail DialSession after DialAttempts tries, not
// spin forever.
func TestSessionDialExhaustionFailsSession(t *testing.T) {
	dials := 0
	_, err := DialSession(SessionConfig{
		ClientID:     1,
		Dial:         func() (net.Conn, error) { dials++; return nil, errors.New("refused") },
		DialAttempts: 5,
		BackoffBase:  time.Microsecond,
		BackoffCap:   10 * time.Microsecond,
	})
	if err == nil {
		t.Fatal("DialSession succeeded with a failing dialer")
	}
	if dials != 5 {
		t.Fatalf("dialer called %d times, want 5", dials)
	}
}

// TestSessionDeadlineForcesRedial pins the per-request deadline: the
// first connection is a black hole (reads frames, never replies), so the
// request must time out, tear the connection down, and complete after the
// redial lands on the real server.
func TestSessionDeadlineForcesRedial(t *testing.T) {
	_, ln := startSessionServer(t, serve.Config{Procs: 1, Batch: 4, HeapWords: 1 << 18})
	var dials atomic.Int64
	s, err := DialSession(SessionConfig{
		ClientID: 2,
		Dial: func() (net.Conn, error) {
			if dials.Add(1) == 1 {
				a, b := net.Pipe() // black hole: drain writes, never answer
				go func() {
					buf := make([]byte, 1024)
					for {
						if _, err := b.Read(buf); err != nil {
							return
						}
					}
				}()
				return a, nil
			}
			return ln.Dial()
		},
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial session: %v", err)
	}
	defer s.Close()

	ins, err := s.Put(42)
	if err != nil || !ins {
		t.Fatalf("put through black hole = %v, %v; want fresh insert", ins, err)
	}
	st := s.SessionStats()
	if st.Timeouts == 0 {
		t.Fatalf("black-hole conn produced no request timeout: %+v", st)
	}
	if st.Reconnects == 0 || st.Resubmits == 0 {
		t.Fatalf("deadline did not force a redial+resubmit: %+v", st)
	}
}

// TestSessionShedBackoff pins the OVERLOAD leg of the session protocol: a
// gated server (workers parked) with a low shed watermark bounces the
// overflow with StShed, and the session rides it out — same request ID —
// once the gate opens.
func TestSessionShedBackoff(t *testing.T) {
	srv, ln := startSessionServer(t, serve.Config{
		Procs: 1, Batch: 4, QueueDepth: 4, HeapWords: 1 << 18,
		Gated: true, ShedWatermark: 0.5,
	})
	s, err := DialSession(SessionConfig{
		ClientID:       3,
		Dial:           func() (net.Conn, error) { return ln.Dial() },
		RequestTimeout: 5 * time.Second,
		ShedDelay:      200 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("dial session: %v", err)
	}
	defer s.Close()

	// Fill past the watermark: with one conn and QueueDepth 4, the third
	// enqueue attempt sheds (totalQueued 2 >= 0.5*4). Pipelined via
	// goroutines; all must eventually succeed after Release.
	const n = 6
	done := make(chan error, n)
	for k := uint64(1); k <= n; k++ {
		k := k
		go func() {
			ins, err := s.Put(100 + k)
			if err == nil && !ins {
				err = errors.New("duplicate execution")
			}
			done <- err
		}()
	}
	// Wait until the server has actually shed at least once, then open
	// the gate.
	deadline := time.After(5 * time.Second)
	for srv.Snapshot().Sheds == 0 {
		select {
		case <-deadline:
			t.Fatal("server never shed past the watermark")
		case <-time.After(time.Millisecond):
		}
	}
	srv.Release()
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if st := s.SessionStats(); st.Sheds == 0 {
		t.Fatalf("session recorded no sheds: %+v", st)
	}
}

// TestSessionWriteCallSkipsSettledCall pins the snapshot-before-delivery
// leg of the exactly-once protocol: connect() snapshots pending for
// resubmission, and if the dying generation's readLoop delivers a call's
// terminal reply after the snapshot but before the resubmit write, the
// call has settled — its sequence may already ride out as an ack
// watermark, which the server applies BEFORE dedup, so writing the frame
// would evict its own response-table entry and re-execute. writeCall must
// observe the call gone from pending and skip the write.
func TestSessionWriteCallSkipsSettledCall(t *testing.T) {
	cli, peer := net.Pipe()
	defer cli.Close()
	defer peer.Close()
	s := &Client{
		cfg:     SessionConfig{}.withDefaults(),
		done:    make(chan struct{}),
		pending: map[uint64]*sessionCall{},
		settled: map[uint64]struct{}{},
	}
	s.nc, s.gen = cli, 1
	c := &sessionCall{req: serve.Request{Op: serve.OpPut, ReqID: s.base | 1, Key: 7}, ch: make(chan serve.Reply, 1)}
	// The call is NOT registered in s.pending — exactly the state after
	// readLoop delivered its terminal reply (which deletes it atomically)
	// between the connect() snapshot and this resubmit write — and it has
	// settled, so the ack watermark now covers its own sequence.
	s.settle(c.req.ReqID)

	// net.Pipe is unbuffered and nothing reads peer: a (buggy) write
	// blocks forever, a (correct) skip returns immediately.
	res := make(chan bool, 1)
	go func() { res <- s.writeCall(cli, 1, c) }()
	select {
	case ok := <-res:
		if !ok {
			t.Fatal("writeCall reported a dead conn for a skipped call")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writeCall resubmitted a settled call: its frame carries ack >= its own seq and would re-execute on the server")
	}

	// Positive control: the same call registered in pending IS written.
	s.pending[c.req.ReqID] = c
	drained := make(chan serve.Request, 1)
	go func() {
		payload, err := serve.ReadFrame(peer)
		if err != nil {
			return
		}
		req, err := serve.DecodeRequest(payload)
		if err != nil {
			return
		}
		drained <- req
	}()
	go s.writeCall(cli, 1, c)
	select {
	case req := <-drained:
		if req.ReqID != c.req.ReqID {
			t.Fatalf("resubmitted frame carries ReqID %d, want %d", req.ReqID, c.req.ReqID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writeCall skipped a call that is still pending")
	}
}

// TestResubmitFrameLeavesBeforeLaterAcks pins the order in which a
// resubmission and a later ack reach the wire. A redial resubmits call X,
// building its frame while X is pending, so the frame's ack is below X's
// sequence; if the frame joined the writer's batch only after the client's
// lock was released, a late reply from the dying generation's readLoop could
// settle X meanwhile, and the next call Y's frame, acknowledging X, could
// reach the socket first. The server applies an ack before its dedup lookup:
// Y would evict X's table entry and X's resubmission would then run again.
//
// The schedule is fixed on one processor: the resubmission blocks on the
// writer's lock, held by the test, which then releases it and, before the
// resubmission runs again, settles X and sends Y. The frames the connection
// carried are then replayed, after X's first admission, to a server: X must
// be admitted once.
func TestResubmitFrameLeavesBeforeLaterAcks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cli, peer := net.Pipe()
	defer cli.Close()
	defer peer.Close()
	c := &Client{
		cfg:     SessionConfig{}.withDefaults(),
		done:    make(chan struct{}),
		pending: map[uint64]*sessionCall{},
		settled: map[uint64]struct{}{},
	}
	c.nc, c.gen, c.fw = cli, 1, newFrameWriter(cli, &c.wc)
	x := &sessionCall{req: serve.Request{Op: serve.OpPut, ReqID: 1, Key: 7}, ch: make(chan serve.Reply, 1)}
	c.pending[x.req.ReqID] = x
	wire := make(chan serve.Request, 2)
	go func() {
		for {
			payload, err := serve.ReadFrame(peer)
			if err != nil {
				return
			}
			req, err := serve.DecodeRequest(payload)
			if err != nil {
				return
			}
			wire <- req
		}
	}()

	c.fw.mu.Lock()
	go c.writeCall(cli, 1, x)
	for i := 0; i < 10; i++ {
		runtime.Gosched() // the resubmission runs until it blocks on the writer's lock
	}
	c.fw.mu.Unlock()
	// What the dying generation's readLoop and X's caller do, then Y's send.
	c.mu.Lock()
	delete(c.pending, x.req.ReqID)
	c.mu.Unlock()
	c.settle(x.req.ReqID)
	if err := c.send(serve.Request{Op: serve.OpPut, ReqID: 2, Key: 8}, make(chan serve.Reply, 1)); err != nil {
		t.Fatal(err)
	}
	var frames []serve.Request
	for len(frames) < 2 {
		select {
		case req := <-wire:
			frames = append(frames, req)
		case <-time.After(10 * time.Second):
			t.Fatalf("the connection carried %d frames, want 2", len(frames))
		}
	}

	srv, ln := startSessionServer(t, serve.Config{Procs: 1, Batch: 4, HeapWords: 1 << 18})
	nc, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for _, req := range append([]serve.Request{x.req}, frames...) {
		if _, err := nc.Write(serve.AppendRequest(nil, req)); err != nil {
			t.Fatal(err)
		}
		if _, err := serve.ReadFrame(nc); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Snapshot().Admitted; got != 2 {
		t.Fatalf("the server admitted %d requests, want 2 (X once, Y once): the wire carried %+v, so X's resubmission ran again", got, frames)
	}
}
