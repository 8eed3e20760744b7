package client

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/chaos"
)

// frameBytes is one request frame on the wire: length prefix + payload.
const frameBytes = 4 + 33

// gateConn is a net.Conn whose first Write parks until the gate opens, so
// a test can queue callers behind a flush in progress. It records every
// Write's bytes; once the gate opens each Write returns failWith, except
// that the first okWrites of them succeed.
type gateConn struct {
	net.Conn // the read side, deadlines and Close
	entered  chan struct{}
	gate     chan struct{}
	failWith error
	okWrites int

	mu     sync.Mutex
	writes [][]byte
}

func newGateConn(t *testing.T, failWith error) *gateConn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return &gateConn{Conn: a, entered: make(chan struct{}), gate: make(chan struct{}), failWith: failWith}
}

func (g *gateConn) Write(b []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), b...))
	nth := len(g.writes)
	g.mu.Unlock()
	if nth == 1 {
		close(g.entered)
	}
	<-g.gate
	if g.failWith != nil && nth > g.okWrites {
		return 0, g.failWith
	}
	return len(b), nil
}

// sent is one raw Send's outcome.
type sent struct {
	ch  <-chan serve.Reply
	err error
}

// queueBehindFlush starts n Sends on c, one at a time: the first parks
// inside gateConn.Write, and each later one is known to have appended its
// frame to the open batch before the next starts, which fixes the
// submission order. It returns a channel carrying each Send's outcome.
func queueBehindFlush(t *testing.T, c *Client, g *gateConn, n int) <-chan sent {
	t.Helper()
	out := make(chan sent, n)
	send := func(i int) {
		ch, err := c.Send(serve.Request{Op: serve.OpPut, ReqID: uint64(100 + i), Key: uint64(i + 1)})
		out <- sent{ch, err}
	}
	go send(0)
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first Send never reached Write")
	}
	c.mu.Lock()
	fw := c.fw
	c.mu.Unlock()
	for i := 1; i < n; i++ {
		go send(i)
		waitQueued(t, fw, i)
	}
	return out
}

// mustFail requires that a Send the client accepted ends with its channel
// closed — the client failed under it — and never with a reply.
func mustFail(t *testing.T, what string, s sent) {
	t.Helper()
	if s.err != nil {
		t.Fatalf("%s: Send refused with %v, want it accepted and failed by the loss", what, s.err)
	}
	select {
	case rep, ok := <-s.ch:
		if ok {
			t.Fatalf("%s: got reply %+v from a silent peer", what, rep)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still waiting after the stream was torn", what)
	}
}

// waitQueued returns once fw's open batch holds exactly frames frames.
func waitQueued(t *testing.T, fw *frameWriter, frames int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		fw.mu.Lock()
		queued := len(fw.buf)
		fw.mu.Unlock()
		if queued == frames*frameBytes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the open batch never reached %d frames (%d bytes queued)", frames, queued)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCombiningWriterCoalesces pins the combining writer: with the first
// Write parked and 15 more callers queued behind it, opening the gate
// yields exactly 2 Writes — the first caller's own frame, then the other
// 15 in one — carrying 16 intact frames in submission order.
func TestCombiningWriterCoalesces(t *testing.T) {
	for _, k := range constructions {
		t.Run(k.name, func(t *testing.T) {
			const n = 16
			g := newGateConn(t, nil)
			c := mustOpen(t, k.open, g, 1)
			out := queueBehindFlush(t, c, g, n)
			close(g.gate)
			for i := 0; i < n; i++ {
				if s := <-out; s.err != nil {
					t.Fatalf("send: %v", s.err)
				}
			}
			g.mu.Lock()
			defer g.mu.Unlock()
			if len(g.writes) != 2 {
				t.Fatalf("%d Writes for %d frames queued behind one flush, want 2", len(g.writes), n)
			}
			fr := serve.NewFrameReader(bytes.NewReader(bytes.Join(g.writes, nil)))
			for i := 0; i < n; i++ {
				payload, err := fr.Next()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				req, err := serve.DecodeRequest(payload)
				if err != nil || req.ReqID != uint64(100+i) || req.Key != uint64(i+1) || req.Op != serve.OpPut {
					t.Fatalf("frame %d = %+v (err %v), want PUT id %d key %d", i, req, err, 100+i, i+1)
				}
			}
			if _, err := fr.Next(); err == nil {
				t.Fatal("stray bytes after the 16 frames")
			}
			if got := len(g.writes[0]); got != frameBytes {
				t.Fatalf("first Write carried %d bytes, want one frame", got)
			}
		})
	}
}

// TestCombiningWriterFailedFlush pins the error path: a failed Write is
// the loss of the connection (the stream is torn, nothing after it can be
// parsed), so with no redial to be had it fails every call whose frame was
// in it AND every call queued behind it, leaves none of their IDs in
// pending, and fails later calls without writing. The error they get is the
// Write's on a client with no dialer, the refused redial's on one with.
func TestCombiningWriterFailedFlush(t *testing.T) {
	for _, k := range constructions {
		t.Run(k.name, func(t *testing.T) {
			const n = 16
			boom := errors.New("wire torn")
			g := newGateConn(t, boom)
			c := mustOpen(t, k.open, g, 1)
			out := queueBehindFlush(t, c, g, n)
			close(g.gate)
			for i := 0; i < n; i++ {
				mustFail(t, "send", <-out)
			}
			c.mu.Lock()
			left := len(c.pending)
			c.mu.Unlock()
			if left != 0 {
				t.Fatalf("%d request IDs left in pending after a failed flush, want 0", left)
			}
			want := k.lost(boom)
			if err := c.terminalErr(); !errors.Is(err, want) {
				t.Fatalf("client failed with %v, want %v", err, want)
			}
			if _, err := c.Send(serve.Request{Op: serve.OpPut, ReqID: 999, Key: 1}); !errors.Is(err, want) {
				t.Fatalf("send after a failed flush: err = %v, want the sticky error", err)
			}
			g.mu.Lock()
			defer g.mu.Unlock()
			if len(g.writes) != 1 {
				t.Fatalf("%d Writes, want 1: nothing may follow a torn stream", len(g.writes))
			}
		})
	}
}

// TestCombiningWriterGatherJoins pins the gather: frames appended while a
// flusher has yielded for its burst join ITS batch, not the next one. The
// yield is played by the test — it queues 15 more callers, one at a time,
// before the flusher resumes — so the single Write that follows must carry
// all 16 frames, in submission order.
func TestCombiningWriterGatherJoins(t *testing.T) {
	const n = 16
	g := newGateConn(t, nil)
	close(g.gate)
	var wc writeCounts
	fw := newFrameWriter(g, &wc)
	errs := make(chan error, n)
	send := func(i int) {
		errs <- fw.send(serve.Request{Op: serve.OpPut, ReqID: uint64(100 + i), Key: uint64(i + 1)}, true)
	}
	fw.yield = func() { // on the test's goroutine: send(0) below is the flusher
		for i := 1; i < n; i++ {
			go send(i)
			waitQueued(t, fw, i+1)
		}
	}
	send(0)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.writes) != 1 || len(g.writes[0]) != n*frameBytes {
		t.Fatalf("%d Writes, the first of %d bytes; want 1 Write of %d frames", len(g.writes), len(g.writes[0]), n)
	}
	fr := serve.NewFrameReader(bytes.NewReader(g.writes[0]))
	for i := 0; i < n; i++ {
		payload, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req, err := serve.DecodeRequest(payload); err != nil || req.ReqID != uint64(100+i) {
			t.Fatalf("frame %d = %+v (err %v), want id %d", i, req, err, 100+i)
		}
	}
	if w, f := wc.writes.Load(), wc.frames.Load(); w != 1 || f != n {
		t.Fatalf("counted %d Writes carrying %d frames, want 1 and %d", w, f, n)
	}
}

// TestCombiningWriterTornStreamFailsEarlierCalls pins that a failed Write
// is terminal for the whole connection: a call whose frame left in an
// earlier, successful Write must not be left waiting on a peer that will
// never answer (the read side here stays silent, as a half-open peer's
// does, and without a redial no deadline would free it).
func TestCombiningWriterTornStreamFailsEarlierCalls(t *testing.T) {
	for _, k := range constructions {
		t.Run(k.name, func(t *testing.T) {
			boom := errors.New("wire torn")
			g := newGateConn(t, boom)
			g.okWrites = 1
			close(g.gate)
			c := mustOpen(t, k.open, g, 1)
			var first, second sent
			first.ch, first.err = c.Send(serve.Request{Op: serve.OpPut, ReqID: 100, Key: 1})
			second.ch, second.err = c.Send(serve.Request{Op: serve.OpPut, ReqID: 101, Key: 2})
			mustFail(t, "the call whose Write failed", second)
			mustFail(t, "the call written before it", first)
			if _, err := c.Send(serve.Request{Op: serve.OpPut, ReqID: 102, Key: 3}); !errors.Is(err, k.lost(boom)) {
				t.Fatalf("send after the torn stream: err = %v, want the sticky error", err)
			}
		})
	}
}

// TestLoneCallerWritesAtOnce pins the depth-1 path: with nothing else in
// flight a caller never gathers, so 1000 sequential calls are exactly 1000
// socket Writes of one frame each, on one connection.
func TestLoneCallerWritesAtOnce(t *testing.T) {
	const n = 1000
	_, ln := startSessionServer(t, serve.Config{Procs: 1, HeapWords: 1 << 18})
	ops := []byte{serve.OpPut, serve.OpGet, serve.OpDel}
	for i, k := range constructions {
		t.Run(k.name, func(t *testing.T) {
			nc, err := ln.Dial()
			if err != nil {
				t.Fatal(err)
			}
			cc := chaos.NewConn(nc, chaos.Plan{})
			c := mustOpen(t, k.open, cc, uint64(i+1))
			for i := 0; i < n; i++ {
				if _, err := c.Do(ops[i%3], uint64(i%7+1)); err != nil {
					t.Fatalf("do %d: %v", i, err)
				}
			}
			if st := c.SessionStats(); st.Writes != n || st.FramesOut != n || cc.Writes() != n || st.Dials != 1 {
				t.Fatalf("%d sequential calls: %d Writes (%d on the socket) carrying %d frames over %d dials, want %d of one frame each on one connection",
					n, st.Writes, cc.Writes(), st.FramesOut, st.Dials, n)
			}
		})
	}
}
