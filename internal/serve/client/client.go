// Package client is the wire client for the serve layer: it frames
// requests, matches replies to request IDs (so calls can be pipelined on
// one connection), and drives the RETRY/resubmit protocol — always
// resubmitting with the SAME request ID, which is what makes a resubmit
// after backpressure or a server crash exactly-once.
package client

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/serve"
)

// IDBits is how many low bits of the request-ID space index a client's own
// sequence numbers; the bits above carry the client ID, keeping request
// IDs globally unique across connections (the exactly-once table keys on
// them). It aliases the wire-contract split (serve.SeqBits) because the
// acknowledgement watermark names per-client sequence ranges.
const IDBits = serve.SeqBits

// Client is one connection's client. Safe for concurrent use.
type Client struct {
	nc net.Conn
	fw *frameWriter // combines concurrent callers' request frames
	wc writeCounts  // fw's Writes and the frames they carried

	mu      sync.Mutex
	pending map[uint64]chan serve.Reply
	err     error
	seq     uint64
	base    uint64
	// ackSeq is the highest CONTIGUOUSLY settled sequence number: every
	// request up to it has a terminal reply in the caller's hands and will
	// never be resubmitted, so its table entry is evictable. settled holds
	// out-of-order completions above the watermark until the gap closes.
	ackSeq  uint64
	settled map[uint64]struct{}

	// RetryDelay is the pause before resubmitting after a RETRY reply
	// (default 200µs); ShedDelay is the pause after an OVERLOAD shed,
	// which signals server-wide saturation rather than a per-connection
	// bounce, so it defaults much larger (3ms).
	RetryDelay time.Duration
	ShedDelay  time.Duration
}

// New wraps an established connection. clientID must be unique among
// clients sharing a server and fit in 32-IDBits bits (the bits of the
// request-ID space above the per-client sequence); an oversized ID would
// bleed into other clients' ID ranges — and the server's exactly-once
// table would then serve one client another's cached answers — so New
// panics instead.
func New(nc net.Conn, clientID uint64) *Client {
	if clientID >= 1<<(32-IDBits) {
		panic(fmt.Sprintf("client: clientID %d does not fit in %d bits", clientID, 32-IDBits))
	}
	c := &Client{
		nc:         nc,
		pending:    map[uint64]chan serve.Reply{},
		settled:    map[uint64]struct{}{},
		base:       clientID << IDBits,
		RetryDelay: 200 * time.Microsecond,
		ShedDelay:  3 * time.Millisecond,
	}
	c.fw = newFrameWriter(nc, &c.wc)
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight calls fail.
func (c *Client) Close() { c.nc.Close() }

// WriteStats reports how many socket Writes the client has completed and
// how many request frames they carried: frames/writes is how well its
// concurrent callers coalesce (exactly 1 at depth 1).
func (c *Client) WriteStats() (writes, frames uint64) {
	return c.wc.writes.Load(), c.wc.frames.Load()
}

// readLoop dispatches reply frames to their waiting calls.
func (c *Client) readLoop() {
	fr := serve.NewFrameReader(c.nc)
	for {
		payload, err := fr.Next()
		if err != nil {
			c.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		rep, err := serve.DecodeReply(payload)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[rep.ReqID]
		delete(c.pending, rep.ReqID)
		c.mu.Unlock()
		if ch != nil {
			ch <- rep
		}
	}
}

func (c *Client) fail(err error) {
	c.nc.Close()
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// NextID mints a fresh request ID for this client. The sequence space is
// 1<<IDBits IDs per client; exhausting it panics rather than letting the
// sequence carry into the clientID bits, where a wrapped ID would collide
// with another client's and the server's exactly-once table would answer
// it with that request's cached result.
func (c *Client) NextID() uint64 {
	c.mu.Lock()
	c.seq++
	if c.seq >= 1<<IDBits {
		c.mu.Unlock()
		panic("client: request-ID sequence exhausted (1<<IDBits requests on one client)")
	}
	id := c.base | c.seq
	c.mu.Unlock()
	return id
}

// settle marks reqID's reply as delivered to the caller and advances the
// contiguous acknowledgement watermark. Only IDs minted from this
// client's own sequence space count — caller-chosen foreign IDs are not
// ours to acknowledge.
func (c *Client) settle(reqID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reqID>>IDBits != c.base>>IDBits {
		return
	}
	seq := reqID & serve.MaxSeq
	if seq <= c.ackSeq {
		return
	}
	c.settled[seq] = struct{}{}
	for {
		if _, ok := c.settled[c.ackSeq+1]; !ok {
			return
		}
		c.ackSeq++
		delete(c.settled, c.ackSeq)
	}
}

// sendReq writes one request frame, piggybacking the current
// acknowledgement watermark, and returns the channel its reply will
// arrive on. The frame shares its Write with any others queued at the same
// moment. A failed Write is terminal for the connection, not only for the
// calls whose frames it carried: the stream is torn, so calls whose frames
// left in an earlier Write can no longer be answered either, and a
// half-open peer may never surface an error on the read side. sendReq
// therefore fails the whole client, which closes every pending channel.
func (c *Client) sendReq(req serve.Request) (<-chan serve.Reply, error) {
	ch := make(chan serve.Reply, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if c.ackSeq > 0 {
		req.Ack = c.base | c.ackSeq
	}
	c.pending[req.ReqID] = ch
	gather := len(c.pending) > 1 // other calls in flight: a burst may follow
	c.mu.Unlock()
	if err := c.fw.send(req, gather); err != nil {
		c.fail(err)
		return nil, err
	}
	return ch, nil
}

// Send writes one request frame and returns the channel its reply will
// arrive on. Callers pipelining must eventually receive from it; a closed
// channel means the connection died.
func (c *Client) Send(op byte, reqID, key uint64) (<-chan serve.Reply, error) {
	return c.sendReq(serve.Request{Op: op, ReqID: reqID, Key: key})
}

// doReq runs one request to completion, resubmitting (same ID) through
// RETRY backpressure, and settles the ID's acknowledgement on a terminal
// reply.
func (c *Client) doReq(req serve.Request) (serve.Reply, error) {
	for {
		ch, err := c.sendReq(req)
		if err != nil {
			return serve.Reply{}, err
		}
		rep, ok := <-ch
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return serve.Reply{}, err
		}
		switch rep.Status {
		case serve.StRetry:
			time.Sleep(c.RetryDelay)
		case serve.StShed:
			time.Sleep(c.ShedDelay)
		case serve.StOK:
			c.settle(req.ReqID)
			return rep, nil
		default:
			// Terminal rejection: settled too — the server recorded
			// nothing, and the watermark must not stall on the gap.
			c.settle(req.ReqID)
			return rep, fmt.Errorf("client: server rejected request %d (status %d)", req.ReqID, rep.Status)
		}
	}
}

// DoWithID runs one request to completion under a caller-chosen request
// ID, resubmitting (same ID) through RETRY backpressure. The reply's Val
// is the operation's boolean result; resubmitting an already-answered ID
// returns its recorded answer without re-executing.
func (c *Client) DoWithID(op byte, reqID, key uint64) (serve.Reply, error) {
	return c.doReq(serve.Request{Op: op, ReqID: reqID, Key: key})
}

// Do runs one request under a fresh request ID.
func (c *Client) Do(op byte, key uint64) (serve.Reply, error) {
	return c.DoWithID(op, c.NextID(), key)
}

// Put inserts key; reports whether it was newly inserted.
func (c *Client) Put(key uint64) (bool, error) {
	rep, err := c.Do(serve.OpPut, key)
	return rep.Val != 0, err
}

// Del deletes key; reports whether it was present.
func (c *Client) Del(key uint64) (bool, error) {
	rep, err := c.Do(serve.OpDel, key)
	return rep.Val != 0, err
}

// Get reports membership of key.
func (c *Client) Get(key uint64) (bool, error) {
	rep, err := c.Do(serve.OpGet, key)
	return rep.Val != 0, err
}

// MoveWithID atomically moves membership from src to dst under a
// caller-chosen request ID: one two-leg transaction with a single durable
// commit point on the server. It reports whether src was present
// (deleted) and whether dst was newly inserted; a resubmitted ID replays
// the recorded pair without re-executing.
func (c *Client) MoveWithID(reqID, src, dst uint64) (deleted, inserted bool, err error) {
	rep, err := c.doReq(serve.Request{Op: serve.OpMove, ReqID: reqID, Key: src, Key2: dst})
	return rep.Val&1 != 0, rep.Val&2 != 0, err
}

// Move runs MoveWithID under a fresh request ID.
func (c *Client) Move(src, dst uint64) (deleted, inserted bool, err error) {
	return c.MoveWithID(c.NextID(), src, dst)
}

// Stats fetches the server's stats snapshot as raw JSON.
func (c *Client) Stats() ([]byte, error) {
	rep, err := c.DoWithID(serve.OpStats, c.NextID(), 0)
	if err != nil {
		return nil, err
	}
	return rep.Body, nil
}
