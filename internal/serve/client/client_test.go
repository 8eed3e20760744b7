package client

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// constructions are the two ways to build the one Client, over the same
// connection: New adopts it with nothing to redial; DialSession takes it
// from a dialer that refuses every later dial, so the shared pins see the
// same single connection on both and a lost one ends the same way.
var constructions = []struct {
	name string
	open func(nc net.Conn, id uint64) (*Client, error)
	// lost is what the client fails with when its connection is lost to
	// cause: the cause itself with nothing to redial, the refused redial
	// otherwise.
	lost func(cause error) error
}{
	{"client", func(nc net.Conn, id uint64) (c *Client, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = r.(error)
			}
		}()
		return New(nc, id), nil
	}, func(cause error) error { return cause }},
	{"session", func(nc net.Conn, id uint64) (*Client, error) {
		var dials atomic.Int64
		return DialSession(SessionConfig{ClientID: id, DialAttempts: 1, Dial: func() (net.Conn, error) {
			if dials.Add(1) > 1 {
				return nil, errRefused
			}
			return nc, nil
		}})
	}, func(error) error { return errRefused }},
}

var errRefused = errors.New("refused")

func mustOpen(t *testing.T, open func(net.Conn, uint64) (*Client, error), nc net.Conn, id uint64) *Client {
	t.Helper()
	c, err := open(nc, id)
	if err != nil {
		t.Fatalf("open client %d: %v", id, err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestNewRejectsOversizedClientID pins the clientID width check: an ID
// that does not fit above the sequence bits would alias another client's
// request-ID range, so New must refuse it outright (it panics; DialSession
// returns the error).
func TestNewRejectsOversizedClientID(t *testing.T) {
	for _, k := range constructions {
		t.Run(k.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			mustOpen(t, k.open, a, 1<<(32-IDBits)-1) // largest valid ID is fine
			if c, err := k.open(b, 1<<(32-IDBits)); err == nil {
				c.Close()
				t.Fatal("an oversized clientID was accepted")
			}
		})
	}
}

// TestNextIDGuardsSequenceOverflow pins the sequence-exhaustion guard:
// minting more than 1<<IDBits IDs must panic rather than bleed the
// sequence into the clientID bits (where it would collide with another
// client's IDs and the server's exactly-once table would cross-serve
// cached answers).
func TestNextIDGuardsSequenceOverflow(t *testing.T) {
	for _, k := range constructions {
		t.Run(k.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			c := mustOpen(t, k.open, a, 3)

			c.mu.Lock()
			c.seq = 1<<IDBits - 2
			c.mu.Unlock()

			// The last in-range ID still mints, stays inside this client's
			// range, and within the server's request-ID space.
			id := c.NextID()
			if id>>IDBits != 3 {
				t.Fatalf("NextID = %#x, carries clientID %d, want 3", id, id>>IDBits)
			}
			if id > serve.MaxReqID {
				t.Fatalf("NextID = %#x exceeds serve.MaxReqID %#x", id, serve.MaxReqID)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("NextID past the sequence space did not panic")
				}
			}()
			c.NextID()
		})
	}
}

// echoServer answers every request frame on nc with an OK reply, without
// allocating: one frame reader, one reused output buffer.
func echoServer(nc net.Conn) {
	fr := serve.NewFrameReader(nc)
	var out []byte
	for {
		payload, err := fr.Next()
		if err != nil {
			return
		}
		req, err := serve.DecodeRequest(payload)
		if err != nil {
			return
		}
		out = serve.AppendReply(out[:0], serve.Reply{Status: serve.StOK, ReqID: req.ReqID, Val: 1})
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// TestRequestPathAllocs pins the request path's weight on both
// constructions: against an echo server that allocates nothing, one
// request allocates nothing. The reconnecting client once paid 6 (a call
// record, a reply channel and a deadline timer per request); call records
// are recycled with their reply channels, and the deadline is one ticker per
// client.
func TestRequestPathAllocs(t *testing.T) {
	for _, k := range constructions {
		t.Run(k.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			go echoServer(b)
			c := mustOpen(t, k.open, a, 1)
			do := func() {
				if _, err := c.Do(serve.OpPut, 7); err != nil {
					t.Fatalf("do: %v", err)
				}
			}
			for range 64 { // warm up: map buckets, writer buffers, the channel pool
				do()
			}
			got := testing.AllocsPerRun(2000, do)
			t.Logf("%s: %.0f allocs/request", k.name, got)
			if got > 0 {
				t.Fatalf("%.0f allocs/request, want none", got)
			}
		})
	}
}

// TestDuplicateInFlightIDIsRejected pins that a second call under an ID
// still in flight on the same client is refused instead of taking over the
// first caller's registration: the first caller would then never be
// answered, and a client with nothing to redial has no deadline to free it.
func TestDuplicateInFlightIDIsRejected(t *testing.T) {
	for _, k := range constructions {
		t.Run(k.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer b.Close()
			c := mustOpen(t, k.open, a, 1)
			fr := serve.NewFrameReader(b)
			first := make(chan error, 1)
			go func() {
				_, err := c.DoWithID(serve.OpPut, 77, 1)
				first <- err
			}()
			if _, err := fr.Next(); err != nil { // the first call's frame: it is in flight
				t.Fatalf("server read: %v", err)
			}
			if _, err := c.DoWithID(serve.OpPut, 77, 1); err == nil {
				t.Fatal("a second call under an in-flight ID was accepted")
			}
			if _, err := b.Write(serve.AppendReply(nil, serve.Reply{Status: serve.StOK, ReqID: 77, Val: 1})); err != nil {
				t.Fatalf("server write: %v", err)
			}
			select {
			case err := <-first:
				if err != nil {
					t.Fatalf("first call: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the first caller was orphaned by the duplicate: still waiting after its reply was sent")
			}
		})
	}
}

// TestConnLossWithoutDialerIsTerminal pins what a client built around a
// bare connection derives from having no dialer: when the connection dies
// under 4 calls in flight, all four return the loss, a later call returns
// it without writing, and nothing was redialed.
func TestConnLossWithoutDialerIsTerminal(t *testing.T) {
	const inFlight = 4
	a, b := net.Pipe()
	c := New(a, 1)
	defer c.Close()
	errs := make(chan error, inFlight)
	var wg sync.WaitGroup
	for i := range inFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Put(uint64(i + 1))
			errs <- err
		}()
	}
	fr := serve.NewFrameReader(b)
	for i := range inFlight {
		if _, err := fr.Next(); err != nil {
			t.Fatalf("server read %d: %v", i, err)
		}
	}
	b.Close() // the peer dies with all four frames taken and none answered
	wg.Wait()
	for range inFlight {
		if err := <-errs; err == nil || errors.Is(err, ErrSessionClosed) {
			t.Fatalf("in-flight call returned %v, want the connection's loss", err)
		}
	}
	before := c.SessionStats()
	if _, err := c.Put(9); err == nil {
		t.Fatal("a call after the loss succeeded")
	}
	if st := c.SessionStats(); st.Dials != 1 || st.Reconnects != 0 || st.FramesOut != before.FramesOut || st.FramesOut != inFlight {
		t.Fatalf("after the loss: %+v, want 1 dial, no reconnect and the %d frames written before it", st, inFlight)
	}
}
