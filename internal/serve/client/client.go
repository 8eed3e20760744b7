// Package client is the wire client for the serve layer: it frames
// requests, matches replies to request IDs (so calls can be pipelined on
// one connection), and drives the RETRY/resubmit protocol — always
// resubmitting with the SAME request ID, which is what makes a resubmit
// after backpressure, a dropped connection or a server crash exactly-once.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// IDBits is how many low bits of the request-ID space index a client's own
// sequence numbers; the bits above carry the client ID, keeping request IDs
// globally unique across connections (the exactly-once table keys on them).
// It aliases the wire-contract split (serve.SeqBits) because the
// acknowledgement watermark names per-client sequence ranges.
const IDBits = serve.SeqBits

// ErrSessionClosed is returned by calls on a Closed client.
var ErrSessionClosed = errors.New("client: session closed")

// retryDelay is the pause, jittered, before resubmitting after a RETRY reply.
const retryDelay = 200 * time.Microsecond

// SessionConfig parameterises a client that dials its own connections.
type SessionConfig struct {
	// ClientID is this client's prefix in the request-ID space (same
	// contract as New: unique per server, fits in 32-IDBits bits).
	ClientID uint64
	// Dial opens a connection to the server; the client calls it for the
	// initial connect and for every redial.
	Dial func() (net.Conn, error)
	// RequestTimeout is the per-attempt reply deadline: a request
	// unanswered for that long (and less than half as long again) declares
	// the connection suspect and rides the redial+resubmit path (default 10s).
	RequestTimeout time.Duration
	// ShedDelay pauses before resubmitting after an OVERLOAD shed, which
	// signals server-wide saturation rather than a per-connection bounce, so
	// it should far exceed a RETRY's 200µs (default 3ms). Both are jittered.
	ShedDelay time.Duration
	// BackoffBase / BackoffCap bound the redial backoff (defaults 500µs /
	// 50ms): attempt d sleeps a jittered [b/2, b], b = min(cap, base<<d).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DialAttempts consecutive dial failures fail the client (default 30).
	DialAttempts int
	// Seed fixes the jitter stream: identical schedules give reproducible
	// backoff sequences.
	Seed int64
}

func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.ShedDelay <= 0 {
		cfg.ShedDelay = 3 * time.Millisecond
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 500 * time.Microsecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 50 * time.Millisecond
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = 30
	}
	return cfg
}

// SessionStats counts the hostile-network events a client absorbed and its
// socket Writes.
type SessionStats struct {
	// Dials counts established connections (the first one included);
	// Reconnects counts re-established ones (Dials - 1).
	Dials      uint64 `json:"dials"`
	Reconnects uint64 `json:"reconnects"`
	// Resubmits counts unsettled requests rewritten after a reconnect
	// (the automatic leg of the exactly-once protocol); Retries and Sheds
	// count RETRY / OVERLOAD replies ridden out; Timeouts counts
	// per-request deadlines that expired and forced a teardown.
	Resubmits uint64 `json:"resubmits"`
	Retries   uint64 `json:"retries"`
	Sheds     uint64 `json:"sheds"`
	Timeouts  uint64 `json:"timeouts"`
	// Writes counts completed socket Writes, FramesOut the request frames
	// they carried, summed over every connection the client has had:
	// FramesOut/Writes is how well concurrent callers coalesce (1 at depth 1).
	Writes    uint64 `json:"writes"`
	FramesOut uint64 `json:"frames_out"`
}

// sessionCall is one in-flight request: its frame (rewritten verbatim on
// every resubmission, same request ID) and the channel its one reply
// arrives on.
type sessionCall struct {
	req  serve.Request
	ch   chan serve.Reply
	tick uint64 // Client.tick when the frame was last built: the deadline's clock
}

// replyChans recycles the reply channels of completed calls. A channel
// goes back only after its one reply has been received: it is empty then,
// and its call left pending when the reply was delivered, so nothing can
// send on it or close it again.
var replyChans = sync.Pool{New: func() any { return make(chan serve.Reply, 1) }}

// Client is the exactly-once client: a pending set, resubmission under the
// same request ID, and a contiguous acknowledgement watermark. Built by
// DialSession it redials a lost connection (capped jittered exponential
// backoff), enforces a per-request deadline, and after every reconnect
// resubmits all unsettled request IDs — so a dropped connection, a torn
// frame, or a server reboot mid-call never loses or duplicates an operation:
// the server answers resurrected IDs from its exactly-once response table.
// Built by New around an established connection it has nothing to redial, so
// losing that connection fails it. Safe for concurrent use.
type Client struct {
	cfg  SessionConfig
	base uint64
	done chan struct{} // closed when the client fails or is Closed

	mu      sync.Mutex
	nc      net.Conn     // current conn; nil while disconnected: a connect is in flight
	fw      *frameWriter // nc's combining writer, replaced with it
	wc      writeCounts  // every connection's writer counts into it
	gen     uint64       // bumps per established conn
	err     error
	pending map[uint64]*sessionCall
	seq     uint64
	// ackSeq is the highest CONTIGUOUSLY settled sequence number: every
	// request up to it has a terminal reply in the caller's hands and will
	// never be resubmitted, so its table entry is evictable. settled holds
	// out-of-order completions above the watermark until the gap closes.
	ackSeq  uint64
	settled map[uint64]struct{}
	tick    uint64 // deadline clock: RequestTimeout/2 periods elapsed (see watch)
	stats   SessionStats
	rng     *rand.Rand
}

// newClient builds a client with no connection. ClientID must fit in the
// 32-IDBits bits of the request-ID space above the per-client sequence: an
// oversized ID would bleed into other clients' ID ranges, and the server's
// exactly-once table would serve one client another's cached answers.
func newClient(cfg SessionConfig) (*Client, error) {
	if cfg.ClientID >= 1<<(32-IDBits) {
		return nil, fmt.Errorf("client: clientID %d does not fit in %d bits", cfg.ClientID, 32-IDBits)
	}
	cfg = cfg.withDefaults()
	return &Client{
		cfg:     cfg,
		base:    cfg.ClientID << IDBits,
		done:    make(chan struct{}),
		pending: map[uint64]*sessionCall{},
		settled: map[uint64]struct{}{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// New wraps an established connection; with no dialer, losing it is
// terminal. clientID must be unique among clients sharing a server; New
// panics on one that does not fit (see newClient).
func New(nc net.Conn, clientID uint64) *Client {
	c, err := newClient(SessionConfig{ClientID: clientID})
	if err != nil {
		panic(err)
	}
	c.adopt(nc)
	return c
}

// DialSession opens a client that owns its connections: it performs the
// initial connect (with a redial's backoff/attempt budget) before returning.
func DialSession(cfg SessionConfig) (*Client, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("client: SessionConfig.Dial is required")
	}
	c, err := newClient(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	go c.watch()
	return c, nil
}

// Close tears the client down; in-flight calls return ErrSessionClosed.
func (c *Client) Close() { c.fail(nil) }

// SessionStats returns a copy of the client's counters.
func (c *Client) SessionStats() SessionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Dials, st.Reconnects = c.gen, c.gen-1 // every generation is one established connection
	st.Writes, st.FramesOut = c.wc.writes.Load(), c.wc.frames.Load()
	return st
}

// fail terminates the client (err == nil means a clean Close): it records
// the error and closes every pending call's channel; later calls find the
// error at registration.
func (c *Client) fail(err error) {
	if err == nil {
		err = ErrSessionClosed
	}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	nc := c.nc
	c.err, c.nc = err, nil
	close(c.done)
	for id, call := range c.pending {
		close(call.ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

func (c *Client) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// pause sleeps a jittered delay in [d/2, d], counting the event it rides
// out in *n (a c.stats field) if n is not nil. Synchronized resubmit or
// redial storms are exactly what an overloaded server does not need.
func (c *Client) pause(d time.Duration, n *uint64) {
	c.mu.Lock()
	if n != nil {
		*n++
	}
	j := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	select {
	case <-time.After(j):
	case <-c.done:
	}
}

// connect dials a connection (initial or redial), backing off capped-
// exponentially between failed attempts, and adopts it. At most one
// connect runs at a time: redials route through dropConn, which starts one
// only when it takes c.nc away.
func (c *Client) connect() error {
	for d := 0; ; d++ {
		if err := c.terminalErr(); err != nil {
			return err
		}
		nc, err := c.cfg.Dial()
		if err == nil {
			c.adopt(nc)
			return nil
		}
		if d+1 >= c.cfg.DialAttempts {
			err = fmt.Errorf("client: session dial failed after %d attempts: %w", d+1, err)
			c.fail(err)
			return err
		}
		b := c.cfg.BackoffBase << uint(d)
		if b <= 0 || b > c.cfg.BackoffCap {
			b = c.cfg.BackoffCap
		}
		c.pause(b, nil)
	}
}

// adopt makes nc the current connection — a new generation — starts its
// readLoop, and resubmits every unsettled call on it.
func (c *Client) adopt(nc net.Conn) {
	c.mu.Lock()
	if c.err != nil { // Closed while the redial was in flight
		c.mu.Unlock()
		nc.Close()
		return
	}
	c.nc, c.fw = nc, newFrameWriter(nc, &c.wc)
	c.gen++
	gen := c.gen
	// Snapshot the unsettled calls, in sequence order, for resubmission; calls
	// registered after this point see c.nc != nil and write themselves.
	calls := make([]*sessionCall, 0, len(c.pending))
	for _, call := range c.pending {
		calls = append(calls, call)
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].req.ReqID < calls[j].req.ReqID })
	c.stats.Resubmits += uint64(len(calls))
	c.mu.Unlock()
	go c.readLoop(nc, gen)
	for _, call := range calls {
		if !c.writeCall(nc, gen, call) {
			break // conn died mid-resubmit; the next connect retries
		}
	}
}

// dropConn declares generation gen's connection dead (no-op if a newer one
// is up or this one was dropped before). Losing a connection takes this one
// path: with a dialer it starts the redial, which resubmits every unsettled
// call; without one there is nothing to dial, so the client fails with cause.
func (c *Client) dropConn(gen uint64, cause error) {
	c.mu.Lock()
	if c.err != nil || gen != c.gen || c.nc == nil {
		c.mu.Unlock()
		return
	}
	nc := c.nc
	c.nc = nil
	c.mu.Unlock()
	nc.Close()
	if c.cfg.Dial == nil {
		c.fail(fmt.Errorf("client: connection lost: %w", cause))
		return
	}
	go c.connect()
}

// readLoop dispatches reply frames for one connection generation; any
// read error tears that generation down.
func (c *Client) readLoop(nc net.Conn, gen uint64) {
	fr := serve.NewFrameReader(nc)
	for {
		var rep serve.Reply
		payload, err := fr.Next()
		if err == nil {
			rep, err = serve.DecodeReply(payload)
		}
		if err != nil {
			c.dropConn(gen, err)
			return
		}
		c.mu.Lock()
		if call := c.pending[rep.ReqID]; call != nil {
			// Unregister ATOMICALLY with delivering the reply: once a
			// terminal answer is in the call's hands, its sequence may
			// settle and ride out as an ack watermark — at which point the
			// server evicts the response-table entry, and a resubmission of
			// this ID (from a reconnect snapshot that still saw it pending)
			// would RE-EXECUTE, not replay. A call out of the map can never
			// be snapshot for resubmission, and its channel takes just this
			// send; a duplicate reply (reconnect races) finds no call.
			delete(c.pending, rep.ReqID)
			call.ch <- rep
		}
		c.mu.Unlock()
	}
}

// writeCall resubmits one call on nc; false means the conn died.
func (c *Client) writeCall(nc net.Conn, gen uint64, call *sessionCall) bool {
	c.mu.Lock()
	if c.pending[call.req.ReqID] != call {
		// The call settled between the resubmit snapshot and this write
		// (its terminal reply was delivered by the dying generation's
		// readLoop after adopt snapshotted pending). Resubmitting now
		// could carry an ack watermark >= the call's own sequence — the
		// server applies acks BEFORE the dedup lookup, so the frame would
		// evict its own response-table entry and RE-EXECUTE. The pending
		// check and the ack read share one critical section: while the
		// call is still pending its reply has not been delivered, so
		// ackSeq is provably below its sequence and the frame we build
		// here can never self-evict, however late it lands.
		c.mu.Unlock()
		return true
	}
	return c.writeLocked(nc, gen, call)
}

// writeLocked finishes the critical section in which its caller found call
// pending: it builds the frame — piggybacking the CURRENT ack watermark —
// restarts the call's deadline and picks the writer, then releases c.mu
// and writes. A failed Write tears the stream, so it is the loss of
// generation gen's connection, not only of the calls whose frames it
// carried; false reports it.
func (c *Client) writeLocked(nc net.Conn, gen uint64, call *sessionCall) bool {
	req := call.req
	if c.ackSeq > 0 {
		req.Ack = c.base | c.ackSeq
	}
	call.tick = c.tick
	fw := c.fw
	gather := len(c.pending) > 1 // other calls in flight: a burst may follow
	c.mu.Unlock()
	if fw == nil || fw.w != nc {
		// nc is not the current connection (a generation already replaced):
		// its frames must not ride the current one's batches.
		fw = newFrameWriter(nc, &c.wc)
	}
	if err := fw.send(req, gather); err != nil {
		c.dropConn(gen, err)
		return false
	}
	return true
}

// send is the single-shot submission under every call: one critical section
// registers req and, if a connection is up, builds its frame — while a
// redial is in flight the registration is enough, adopt resubmits it. The
// first reply of any status arrives on ch and unregisters the ID; if the
// client fails first, ch is closed.
func (c *Client) send(req serve.Request, ch chan serve.Reply) error {
	call := &sessionCall{req: req, ch: ch}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if _, dup := c.pending[req.ReqID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("client: request ID %d is already in flight on this client", req.ReqID)
	}
	c.pending[req.ReqID] = call
	if c.nc == nil {
		c.mu.Unlock()
		return nil
	}
	c.writeLocked(c.nc, c.gen, call)
	return nil
}

// Send submits one raw request, single-shot, and returns the channel its
// reply will arrive on: the first reply of any status (RETRY and OVERLOAD
// included) is delivered and frees the ID; nothing settles it. A closed
// channel means the client failed. On a redialing client a call pending
// when the connection drops is resubmitted like any other.
func (c *Client) Send(req serve.Request) (<-chan serve.Reply, error) {
	ch := make(chan serve.Reply, 1)
	if err := c.send(req, ch); err != nil {
		return nil, err
	}
	return ch, nil
}

// watch enforces the per-request deadline of a client that can redial. It
// counts RequestTimeout/2 periods; a call whose frame was built three counts
// ago has gone unanswered for at least RequestTimeout, so the connection is
// suspect (slow peer, black hole, lost reply): tear it down, and the redial
// resubmits every pending request, restarting its deadline.
func (c *Client) watch() {
	t := time.NewTicker((c.cfg.RequestTimeout + 1) / 2)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		c.tick++
		gen, late := c.gen, false
		for _, call := range c.pending {
			if c.tick-call.tick >= 3 {
				call.tick = c.tick
				c.stats.Timeouts++
				late = true
			}
		}
		c.mu.Unlock()
		if late {
			c.dropConn(gen, errors.New("client: request deadline expired"))
		}
	}
}

// NextID mints a fresh request ID for this client. Exhausting the 1<<IDBits
// sequence space panics rather than carrying into the clientID bits, where
// a wrapped ID would collide with another client's and the server's
// exactly-once table would answer it with that request's cached result.
func (c *Client) NextID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	if c.seq >= 1<<IDBits {
		panic("client: request-ID sequence exhausted (1<<IDBits requests on one client)")
	}
	return c.base | c.seq
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

// doReq runs one request to completion: a loop of single-shot sends that
// rides out RETRY backpressure and OVERLOAD sheds, always under the SAME
// request ID (connection drops and deadlines are absorbed underneath, by
// the redial's resubmission), and settles the ID on a terminal reply.
func (c *Client) doReq(req serve.Request) (serve.Reply, error) {
	for {
		ch := replyChans.Get().(chan serve.Reply)
		if err := c.send(req, ch); err != nil {
			return serve.Reply{}, err
		}
		rep, ok := <-ch
		if !ok {
			return serve.Reply{}, c.terminalErr()
		}
		replyChans.Put(ch)
		switch rep.Status {
		case serve.StRetry:
			c.pause(retryDelay, &c.stats.Retries)
		case serve.StShed:
			c.pause(c.cfg.ShedDelay, &c.stats.Sheds)
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
// ID. The reply's Val is the operation's boolean result; resubmitting an
// already-answered ID returns its recorded answer without re-executing.
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
// commit point on the server. It reports whether src was present (deleted)
// and dst newly inserted; a resubmitted ID replays the recorded pair.
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
	return rep.Body, err
}
