package client

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// frameBytes is one request frame on the wire: length prefix + payload.
const frameBytes = 4 + 33

// gateConn is a net.Conn whose first Write parks until the gate opens, so
// a test can queue callers behind a flush in progress. It records every
// Write's bytes; once the gate opens each Write returns failWith.
type gateConn struct {
	net.Conn // the read side, deadlines and Close
	entered  chan struct{}
	gate     chan struct{}
	failWith error

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
	first := len(g.writes) == 1
	g.mu.Unlock()
	if first {
		close(g.entered)
	}
	<-g.gate
	if g.failWith != nil {
		return 0, g.failWith
	}
	return len(b), nil
}

// queueBehindFlush starts n Sends on c, one at a time: the first parks
// inside gateConn.Write, and each later one is known to have appended its
// frame to the open batch before the next starts, which fixes the
// submission order. It returns a channel carrying each Send's error.
func queueBehindFlush(t *testing.T, c *Client, g *gateConn, n int) <-chan error {
	t.Helper()
	errs := make(chan error, n)
	send := func(i int) {
		_, err := c.Send(serve.OpPut, uint64(100+i), uint64(i+1))
		errs <- err
	}
	go send(0)
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("first Send never reached Write")
	}
	for i := 1; i < n; i++ {
		go send(i)
		deadline := time.Now().Add(10 * time.Second)
		for {
			c.fw.mu.Lock()
			queued := len(c.fw.buf)
			c.fw.mu.Unlock()
			if queued == i*frameBytes {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("Send %d never queued its frame (%d bytes queued)", i, queued)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return errs
}

// TestCombiningWriterCoalesces pins the combining writer: with the first
// Write parked and 15 more callers queued behind it, opening the gate
// yields exactly 2 Writes — the first caller's own frame, then the other
// 15 in one — carrying 16 intact frames in submission order.
func TestCombiningWriterCoalesces(t *testing.T) {
	const n = 16
	g := newGateConn(t, nil)
	c := New(g, 1)
	errs := queueBehindFlush(t, c, g, n)
	close(g.gate)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("send: %v", err)
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
}

// TestCombiningWriterFailedFlush pins the error path: a failed Write fails
// every call whose frame was in it AND every call queued behind it (the
// stream is torn, nothing after it can be parsed), leaves none of their
// IDs in pending, and fails later calls without writing.
func TestCombiningWriterFailedFlush(t *testing.T) {
	const n = 16
	boom := errors.New("wire torn")
	g := newGateConn(t, boom)
	c := New(g, 1)
	errs := queueBehindFlush(t, c, g, n)
	close(g.gate)
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("send %d: err = %v, want the flush's error", i, err)
		}
	}
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d request IDs left in pending after a failed flush, want 0", left)
	}
	if _, err := c.Send(serve.OpPut, 999, 1); !errors.Is(err, boom) {
		t.Fatalf("send after a failed flush: err = %v, want the sticky error", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.writes) != 1 {
		t.Fatalf("%d Writes, want 1: nothing may follow a torn stream", len(g.writes))
	}
}
