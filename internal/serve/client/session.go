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

// ErrSessionClosed is returned by calls on a Closed session.
var ErrSessionClosed = errors.New("client: session closed")

// SessionConfig parameterises a reconnecting Session.
type SessionConfig struct {
	// ClientID is this session's prefix in the request-ID space (same
	// contract as New: unique per server, fits in 32-IDBits bits).
	ClientID uint64
	// Dial opens a connection to the server; the session calls it for the
	// initial connect and for every redial.
	Dial func() (net.Conn, error)
	// RequestTimeout is the per-attempt reply deadline: a request
	// unanswered past it declares the connection suspect, tears it down,
	// and rides the redial+resubmit path (default 10s).
	RequestTimeout time.Duration
	// RetryDelay pauses before resubmitting after a RETRY reply (default
	// 200µs); ShedDelay after an OVERLOAD shed, which signals server-wide
	// saturation, so it should be much larger (default 3ms). Both are
	// jittered.
	RetryDelay time.Duration
	ShedDelay  time.Duration
	// BackoffBase / BackoffCap bound the capped exponential redial
	// backoff (defaults 500µs / 50ms); each step sleeps a jittered
	// duration in [b/2, b) for b = min(cap, base<<attempt).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DialAttempts is how many consecutive dial failures fail the session
	// (default 30).
	DialAttempts int
	// Seed fixes the jitter stream (default 1): identical schedules give
	// reproducible backoff sequences.
	Seed int64
}

func (cfg SessionConfig) withDefaults() SessionConfig {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.RetryDelay <= 0 {
		cfg.RetryDelay = 200 * time.Microsecond
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
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// SessionStats counts the hostile-network events a session absorbed.
type SessionStats struct {
	// Dials counts established connections (the first connect included);
	// Reconnects counts re-established ones (Dials - 1 while healthy).
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
	// they carried, summed over every connection the session has had:
	// FramesOut/Writes is how well its concurrent callers coalesce.
	Writes    uint64 `json:"writes"`
	FramesOut uint64 `json:"frames_out"`
}

// sessionCall is one in-flight request: its frame (rewritten verbatim on
// every resubmission — same request ID, which is what makes the protocol
// exactly-once) and the channel its replies arrive on.
type sessionCall struct {
	req serve.Request
	ch  chan serve.Reply
}

// Session is a reconnecting client: it dials (and redials, with capped
// jittered exponential backoff) through the configured Dial, enforces a
// per-request deadline, and after every reconnect automatically
// resubmits all unsettled request IDs — so a dropped connection, a torn
// frame, or a server reboot mid-call never loses or duplicates an
// operation: the server answers resurrected IDs from its exactly-once
// response table. Safe for concurrent use.
type Session struct {
	cfg  SessionConfig
	base uint64
	done chan struct{}

	mu         sync.Mutex
	nc         net.Conn     // current conn; nil while disconnected
	fw         *frameWriter // nc's combining writer, replaced with it
	wc         writeCounts  // every connection's writer counts into it
	gen        uint64       // bumps per established conn
	connecting bool
	err        error
	pending    map[uint64]*sessionCall
	seq        uint64
	ackSeq     uint64
	settled    map[uint64]struct{}
	stats      SessionStats
	rng        *rand.Rand
	closeOnce  sync.Once
}

// DialSession opens a session: it performs the initial connect (with the
// same backoff/attempt budget as a redial) before returning.
func DialSession(cfg SessionConfig) (*Session, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("client: SessionConfig.Dial is required")
	}
	if cfg.ClientID >= 1<<(32-IDBits) {
		return nil, fmt.Errorf("client: clientID %d does not fit in %d bits", cfg.ClientID, 32-IDBits)
	}
	cfg = cfg.withDefaults()
	s := &Session{
		cfg:     cfg,
		base:    cfg.ClientID << IDBits,
		done:    make(chan struct{}),
		pending: map[uint64]*sessionCall{},
		settled: map[uint64]struct{}{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	if err := s.connect(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close tears the session down; in-flight calls return ErrSessionClosed.
func (s *Session) Close() {
	s.fail(nil)
}

// SessionStats returns a copy of the session's hostile-network counters.
func (s *Session) SessionStats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Writes, st.FramesOut = s.wc.writes.Load(), s.wc.frames.Load()
	return st
}

// fail terminates the session (err == nil means a clean Close).
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		if s.err == nil {
			s.err = ErrSessionClosed
		}
	}
	nc := s.nc
	s.nc = nil
	s.mu.Unlock()
	s.closeOnce.Do(func() { close(s.done) })
	if nc != nil {
		nc.Close()
	}
}

func (s *Session) terminalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return ErrSessionClosed
}

// backoff sleeps the jittered capped-exponential delay for redial attempt
// d (0-based).
func (s *Session) backoff(d int) {
	b := s.cfg.BackoffBase << uint(d)
	if b <= 0 || b > s.cfg.BackoffCap {
		b = s.cfg.BackoffCap
	}
	s.mu.Lock()
	j := b/2 + time.Duration(s.rng.Int63n(int64(b/2)+1))
	s.mu.Unlock()
	select {
	case <-time.After(j):
	case <-s.done:
	}
}

// sleepJitter pauses for a jittered delay in [d/2, d] before a
// resubmission (RETRY / SHED); synchronized resubmit storms from many
// clients are exactly what an overloaded server does not need.
func (s *Session) sleepJitter(d time.Duration) {
	s.mu.Lock()
	j := d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
	s.mu.Unlock()
	select {
	case <-time.After(j):
	case <-s.done:
	}
}

// connect establishes a connection (initial or redial) and resubmits
// every unsettled request on it. At most one connect runs at a time (the
// connecting flag); callers route through dropConn.
func (s *Session) connect() error {
	for d := 0; ; d++ {
		select {
		case <-s.done:
			return s.terminalErr()
		default:
		}
		nc, err := s.cfg.Dial()
		if err != nil {
			if d+1 >= s.cfg.DialAttempts {
				err = fmt.Errorf("client: session dial failed after %d attempts: %w", d+1, err)
				s.fail(err)
				return err
			}
			s.backoff(d)
			continue
		}
		s.mu.Lock()
		if s.err != nil {
			s.mu.Unlock()
			nc.Close()
			return s.terminalErr()
		}
		s.nc, s.fw = nc, newFrameWriter(nc, &s.wc)
		s.gen++
		gen := s.gen
		s.connecting = false
		s.stats.Dials++
		if gen > 1 {
			s.stats.Reconnects++
		}
		// Snapshot the unsettled calls in sequence order for resubmission.
		// New calls registered after this point observe s.nc != nil and
		// write themselves.
		calls := make([]*sessionCall, 0, len(s.pending))
		for _, c := range s.pending {
			calls = append(calls, c)
		}
		sort.Slice(calls, func(i, j int) bool { return calls[i].req.ReqID < calls[j].req.ReqID })
		s.stats.Resubmits += uint64(len(calls))
		s.mu.Unlock()
		go s.readLoop(nc, gen)
		for _, c := range calls {
			if !s.writeCall(nc, gen, c) {
				break // conn died mid-resubmit; the next connect retries
			}
		}
		return nil
	}
}

// dropConn declares generation gen's connection dead and starts a redial
// (no-op if a newer conn is already up or a connect is in flight).
func (s *Session) dropConn(gen uint64) {
	s.mu.Lock()
	if s.err != nil || gen != s.gen || s.connecting {
		s.mu.Unlock()
		return
	}
	nc := s.nc
	s.nc = nil
	s.connecting = true
	s.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
	go s.connect()
}

// readLoop dispatches reply frames for one connection generation; any
// read error tears that generation down and triggers the redial.
func (s *Session) readLoop(nc net.Conn, gen uint64) {
	fr := serve.NewFrameReader(nc)
	for {
		payload, err := fr.Next()
		if err != nil {
			s.dropConn(gen)
			return
		}
		rep, err := serve.DecodeReply(payload)
		if err != nil {
			s.dropConn(gen)
			return
		}
		s.mu.Lock()
		if c := s.pending[rep.ReqID]; c != nil {
			select {
			case c.ch <- rep:
				if rep.Status != serve.StRetry && rep.Status != serve.StShed {
					// Unregister ATOMICALLY with delivering a terminal
					// reply: once the answer is in the call's hands, its
					// sequence may settle and ride out as an ack watermark
					// — at which point the server evicts the
					// response-table entry, and a resubmission of this ID
					// (from a reconnect snapshot that still saw it
					// pending) would RE-EXECUTE, not replay. A call out of
					// the map can never be snapshot for resubmission. The
					// delete rides the successful send: a reply dropped on
					// a full channel (duplicate from a reconnect race)
					// must keep the call resubmittable.
					delete(s.pending, rep.ReqID)
				}
			default: // duplicate replies (reconnect races) are dropped
			}
		}
		s.mu.Unlock()
	}
}

// writeCall writes one request frame — piggybacking the CURRENT ack
// watermark — on nc; false means the conn died (and the redial has been
// kicked).
func (s *Session) writeCall(nc net.Conn, gen uint64, c *sessionCall) bool {
	req := c.req
	s.mu.Lock()
	if s.pending[req.ReqID] != c {
		// The call settled between the resubmit snapshot and this write
		// (its terminal reply was delivered by the dying generation's
		// readLoop after connect() snapshotted pending). Resubmitting now
		// could carry an ack watermark >= the call's own sequence — the
		// server applies acks BEFORE the dedup lookup, so the frame would
		// evict its own response-table entry and RE-EXECUTE. The pending
		// check and the ack read share one critical section: while the
		// call is still pending its reply has not been delivered, so
		// ackSeq is provably below its sequence and the frame we build
		// here can never self-evict, however late it lands.
		s.mu.Unlock()
		return true
	}
	if s.ackSeq > 0 {
		req.Ack = s.base | s.ackSeq
	}
	fw := s.fw
	gather := len(s.pending) > 1 // other calls in flight: a burst may follow
	s.mu.Unlock()
	if fw == nil || fw.w != nc {
		// nc is not the current connection (a generation already replaced):
		// its frames must not ride the current one's batches.
		fw = newFrameWriter(nc, &s.wc)
	}
	if err := fw.send(req, gather); err != nil {
		s.dropConn(gen)
		return false
	}
	return true
}

// submit writes c on the current connection if one is up; while a redial
// is in flight the pending registration is enough — the connect pass
// resubmits everything.
func (s *Session) submit(c *sessionCall) {
	s.mu.Lock()
	nc, gen := s.nc, s.gen
	s.mu.Unlock()
	if nc != nil {
		s.writeCall(nc, gen, c)
	}
}

// NextID mints a fresh request ID (same contract and overflow guard as
// Client.NextID).
func (s *Session) NextID() uint64 {
	s.mu.Lock()
	s.seq++
	if s.seq >= 1<<IDBits {
		s.mu.Unlock()
		panic("client: request-ID sequence exhausted (1<<IDBits requests on one session)")
	}
	id := s.base | s.seq
	s.mu.Unlock()
	return id
}

// settle marks reqID's reply as delivered and advances the contiguous
// acknowledgement watermark (own-minted IDs only; see Client.settle).
func (s *Session) settle(reqID uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reqID>>IDBits != s.base>>IDBits {
		return
	}
	seq := reqID & serve.MaxSeq
	if seq <= s.ackSeq {
		return
	}
	s.settled[seq] = struct{}{}
	for {
		if _, ok := s.settled[s.ackSeq+1]; !ok {
			return
		}
		s.ackSeq++
		delete(s.settled, s.ackSeq)
	}
}

func (s *Session) bump(f func(*SessionStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// doReq runs one request to completion: register, write, then ride out
// RETRY backpressure, OVERLOAD sheds, connection drops (redial +
// automatic resubmission happen underneath) and per-request deadlines,
// always under the SAME request ID.
func (s *Session) doReq(req serve.Request) (serve.Reply, error) {
	c := &sessionCall{req: req, ch: make(chan serve.Reply, 1)}
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return serve.Reply{}, err
	}
	if _, dup := s.pending[req.ReqID]; dup {
		s.mu.Unlock()
		return serve.Reply{}, fmt.Errorf("client: request ID %d is already in flight on this session", req.ReqID)
	}
	s.pending[req.ReqID] = c
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.pending, req.ReqID)
		s.mu.Unlock()
	}()

	s.submit(c)
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	for {
		select {
		case rep := <-c.ch:
			switch rep.Status {
			case serve.StRetry:
				s.bump(func(st *SessionStats) { st.Retries++ })
				s.sleepJitter(s.cfg.RetryDelay)
				s.submit(c)
			case serve.StShed:
				s.bump(func(st *SessionStats) { st.Sheds++ })
				s.sleepJitter(s.cfg.ShedDelay)
				s.submit(c)
			case serve.StOK:
				s.settle(req.ReqID)
				return rep, nil
			default:
				// Terminal rejection: settled too, so the ack watermark
				// cannot stall on the gap (the server recorded nothing).
				s.settle(req.ReqID)
				return rep, fmt.Errorf("client: server rejected request %d (status %d)", req.ReqID, rep.Status)
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(s.cfg.RequestTimeout)
		case <-timer.C:
			// Reply deadline expired: the connection is suspect (slow peer,
			// black hole, lost reply). Tear it down; the redial resubmits
			// every pending request, this one included.
			s.bump(func(st *SessionStats) { st.Timeouts++ })
			s.mu.Lock()
			gen := s.gen
			s.mu.Unlock()
			s.dropConn(gen)
			timer.Reset(s.cfg.RequestTimeout)
		case <-s.done:
			return serve.Reply{}, s.terminalErr()
		}
	}
}

// DoWithID runs one request to completion under a caller-chosen request
// ID (see Client.DoWithID; resubmitting an answered ID replays its
// recorded answer).
func (s *Session) DoWithID(op byte, reqID, key uint64) (serve.Reply, error) {
	return s.doReq(serve.Request{Op: op, ReqID: reqID, Key: key})
}

// Do runs one request under a fresh request ID.
func (s *Session) Do(op byte, key uint64) (serve.Reply, error) {
	return s.DoWithID(op, s.NextID(), key)
}

// Put inserts key; reports whether it was newly inserted.
func (s *Session) Put(key uint64) (bool, error) {
	rep, err := s.Do(serve.OpPut, key)
	return rep.Val != 0, err
}

// Del deletes key; reports whether it was present.
func (s *Session) Del(key uint64) (bool, error) {
	rep, err := s.Do(serve.OpDel, key)
	return rep.Val != 0, err
}

// Get reports membership of key.
func (s *Session) Get(key uint64) (bool, error) {
	rep, err := s.Do(serve.OpGet, key)
	return rep.Val != 0, err
}

// MoveWithID atomically moves membership from src to dst under a
// caller-chosen request ID (see Client.MoveWithID).
func (s *Session) MoveWithID(reqID, src, dst uint64) (deleted, inserted bool, err error) {
	rep, err := s.doReq(serve.Request{Op: serve.OpMove, ReqID: reqID, Key: src, Key2: dst})
	return rep.Val&1 != 0, rep.Val&2 != 0, err
}

// Move runs MoveWithID under a fresh request ID.
func (s *Session) Move(src, dst uint64) (deleted, inserted bool, err error) {
	return s.MoveWithID(s.NextID(), src, dst)
}

// Stats fetches the server's stats snapshot as raw JSON.
func (s *Session) Stats() ([]byte, error) {
	rep, err := s.DoWithID(serve.OpStats, s.NextID(), 0)
	if err != nil {
		return nil, err
	}
	return rep.Body, nil
}
