package serve

import (
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Config parameterises a Server.
type Config struct {
	// Procs is the fixed admission pool: one worker goroutine per Runtime
	// Proc (default 2). Connections are pinned round-robin to Procs.
	Procs int
	// Shards is the store's shard count (default 16).
	Shards int
	// Batch caps how many queued requests one Proc drains into a single
	// ApplyWindow (default 16, max repro.MaxBatch).
	Batch int
	// QueueDepth bounds each connection's pending queue; a full queue
	// answers RETRY (default 32).
	QueueDepth int
	// CrashSim enables the tracked heap; CrashEvery (accesses between
	// injected crashes) arms the crash storm the harnesses run under.
	CrashSim   bool
	CrashEvery uint64
	// HeapWords / Engine / Reclaim / latencies configure the Runtime as in
	// repro.Config (HeapWords defaults to 1<<22).
	HeapWords                int
	Engine                   repro.EngineKind
	Reclaim                  bool
	PWBLatency, PSyncLatency time.Duration
	// Gated holds every worker before its first admission until Release is
	// called — deterministic-harness plumbing (the crash sweep uses it to
	// fix the queue contents, and so the heap access sequence, per run).
	Gated bool
	// ShedWatermark enables graceful overload shedding: when the aggregate
	// queued-request count across ALL connections reaches this fraction of
	// the aggregate queue capacity (open conns × QueueDepth), new requests
	// are answered OVERLOAD (StShed) instead of queued. Unlike the
	// per-connection RETRY bounce, a shed tells the client the whole server
	// is saturated and to back off for longer. 0 disables (the default);
	// sensible values are in (0, 1].
	ShedWatermark float64
	// IdleTimeout disconnects a connection that sends no frame for this
	// long (0 disables): a dead or wedged peer must not hold a pinned
	// Proc slot and its queue capacity forever. Exactly-once state is
	// untouched — the response table is keyed by request ID, not by
	// connection — so a client redialing after an idle-close still gets
	// its recorded answers.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply flush — one Write carrying every reply
	// queued for the connection, a whole window's worth under load — not
	// each frame (0 disables): a peer that stops draining its socket is
	// disconnected rather than left pinning an outbox. Frames are never
	// split across Writes, so a timeout cannot land between a header and
	// its payload.
	WriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 2
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.Batch > repro.MaxBatch {
		c.Batch = repro.MaxBatch
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.HeapWords == 0 {
		c.HeapWords = 1 << 22
	}
	return c
}

// pendingReq is one queued request with its reply route and enqueue time.
type pendingReq struct {
	c   *conn
	req Request
	enq time.Time
}

// conn is one accepted connection: reply socket, assigned Proc, pending
// queue and counters (queue and metrics are guarded by Server.mu). Replies
// are queued on out and written by the connection's own writer goroutine,
// so a Proc worker never blocks on a slow client's socket.
type conn struct {
	s    *Server
	id   uint64
	nc   net.Conn
	proc int
	q    []pendingReq
	m    connMetrics
	gone bool
	// lim and taken are takeLocked's scratch for the window being composed:
	// the admissible prefix of q (the requests ahead of its first MOVE) and
	// how many of them the window took.
	lim, taken int

	// The outbox: replies awaiting writeLoop, which swaps the whole slice
	// out and writes it with one Write. omu is a leaf lock, taken after
	// Server.mu or alone.
	omu    sync.Mutex
	ocond  sync.Cond // L is &omu; signalled when out fills or closed is set
	out    []Reply   // bounded by Server.outCap
	closed bool      // set by removeConn; retires writeLoop
	// flushes counts writeLoop's successful Writes, framesOut the reply
	// frames they carried.
	flushes, framesOut atomic.Uint64
	// reads counts the socket reads readLoop's frames arrived in, framesIn
	// those frames: the inbound mirror of flushes/framesOut, written only by
	// the reader goroutine.
	reads, framesIn atomic.Uint64
}

// Server multiplexes client connections onto the store's Proc pool. See
// the package comment for the admission, backpressure and crash story.
type Server struct {
	cfg   Config
	rt    *repro.Runtime
	store *repro.HashMap
	group *repro.CrashGroup

	// outCap bounds each connection's outbox, sized so every reply a
	// well-behaved connection can have outstanding (its full queue, a
	// drained window, plus backpressure bounces) fits without ever parking
	// a worker.
	outCap int
	// flushes and framesOut total every connection's writeLoop counters,
	// open and closed.
	flushes, framesOut atomic.Uint64
	// idleClosed and writeTimeouts count the disconnects the idle and write
	// deadlines caused, bumped by the connection's own goroutines without
	// the server lock.
	idleClosed, writeTimeouts atomic.Uint64

	mu        sync.Mutex
	procConns [][]*conn // conns pinned to each proc
	rr        []int     // per-proc round-robin drain cursor
	procM     []ProcStats
	// wake[w] (on mu) wakes proc w's worker; idle[w] is set while it waits
	// with nothing admissible, so a reader signals only a sleeping owner,
	// and once per burst of enqueues.
	wake []sync.Cond
	idle []bool
	// win[w] is the window buffer takeLocked composes into; worker w owns
	// its contents from takeLocked until its next drain.
	win [][]pendingReq
	// done is the response table: request ID -> result of every answered
	// request (boolean for PUT/DEL/GET, both packed leg booleans for
	// MOVE) — what makes a resubmitted request ID exactly-once. Only
	// finishWindow fills it, after a crash too, so an entry is only ever
	// added before its client can acknowledge it. It is bounded by the
	// acknowledgement protocol: each request piggybacks the client's
	// acked-sequence high-watermark (Request.Ack) and applyAckLocked
	// evicts everything at or below it, so under steady resubmit-free
	// traffic the table holds only the unacknowledged tail.
	done      map[uint64]uint64
	acked     map[uint64]uint64   // client prefix -> acked seq watermark
	evicted   uint64              // table entries dropped via acks
	inflight  map[uint64]struct{} // queued or admitted, not yet answered
	closedAgg connMetrics         // folded-in metrics of closed conns
	// closedReads / closedFramesIn fold in closed conns' reads and framesIn.
	closedReads, closedFramesIn uint64
	// totalQueued / nconns feed the shed watermark: aggregate queued
	// requests and open connections across all procs.
	totalQueued int
	nconns      int
	// disconnects counts connections torn down (any cause).
	disconnects uint64
	connSeq     uint64
	released    bool
	closed      bool
	ln          net.Listener
	wg          sync.WaitGroup // workers
}

// New builds the server, its Runtime and store, and starts the Proc
// workers (parked if cfg.Gated).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		rt: repro.New(repro.Config{
			Procs: cfg.Procs, HeapWords: cfg.HeapWords, CrashSim: cfg.CrashSim,
			Engine: cfg.Engine, Reclaim: cfg.Reclaim,
			PWBLatency: cfg.PWBLatency, PSyncLatency: cfg.PSyncLatency,
		}),
		outCap:    2*cfg.QueueDepth + cfg.Batch + 8,
		procConns: make([][]*conn, cfg.Procs),
		rr:        make([]int, cfg.Procs),
		procM:     make([]ProcStats, cfg.Procs),
		wake:      make([]sync.Cond, cfg.Procs),
		idle:      make([]bool, cfg.Procs),
		win:       make([][]pendingReq, cfg.Procs),
		done:      map[uint64]uint64{},
		acked:     map[uint64]uint64{},
		inflight:  map[uint64]struct{}{},
	}
	for w := range s.wake {
		s.wake[w].L = &s.mu
	}
	s.store = s.rt.NewHashMap(cfg.Shards)
	// The store keys on the low KeyBits of the announced Arg; the high
	// bits are the request ID riding the announcement across crashes.
	s.store.SetArgMask(MaxKey)
	for i := range s.procM {
		s.procM[i] = ProcStats{Proc: i, BatchFill: make([]uint64, cfg.Batch+1)}
	}
	every := uint64(0)
	if cfg.CrashSim {
		every = cfg.CrashEvery
	}
	s.group = repro.NewCrashGroup(s.rt, cfg.Procs, every)
	for w := 0; w < cfg.Procs; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	return s
}

// Runtime exposes the server's runtime (bench and harness plumbing).
func (s *Server) Runtime() *repro.Runtime { return s.rt }

// Store exposes the underlying map (post-run audits at quiescence).
func (s *Server) Store() *repro.HashMap { return s.store }

// Crashes reports how many store crashes the server has recovered from.
func (s *Server) Crashes() int { return s.group.Crashes() }

// wakeAll wakes every Proc's worker: the crash rendezvous, Release and
// Close each need all of them to look up. It takes mu so that a worker
// which checked for the condition just before it changed has reached its
// Wait, and cannot miss the signal.
func (s *Server) wakeAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w := range s.wake {
		s.wake[w].Signal()
	}
}

// Release opens the admission gate of a Config.Gated server.
func (s *Server) Release() {
	s.mu.Lock()
	s.released = true
	s.mu.Unlock()
	s.wakeAll()
}

// Serve accepts connections on ln until the listener or server closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return net.ErrClosed
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed = s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.addConn(nc)
	}
}

// Close shuts the server down: stops accepting, closes every connection,
// and joins the workers (recovering first if a crash is in progress, so
// the store is auditable at quiescence).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	var conns []*conn
	for _, pc := range s.procConns {
		conns = append(conns, pc...)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		if c.nc != nil {
			c.nc.Close()
		}
	}
	s.wakeAll()
	s.wg.Wait()
}

// addConn pins nc to a Proc and starts its reader and writer.
func (s *Server) addConn(nc net.Conn) *conn {
	s.mu.Lock()
	s.connSeq++
	c := &conn{s: s, id: s.connSeq, nc: nc, proc: int(s.connSeq-1) % s.cfg.Procs}
	c.ocond.L = &c.omu
	s.procConns[c.proc] = append(s.procConns[c.proc], c)
	s.nconns++
	s.mu.Unlock()
	go c.readLoop()
	go c.writeLoop()
	return c
}

// removeConn drops c: its queued-but-unadmitted requests are discarded
// (their IDs leave the inflight set, so a resubmission on a fresh
// connection is admitted rather than bounced) and its counters fold into
// the closed-connection aggregate.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.gone {
		return
	}
	c.gone = true
	pc := s.procConns[c.proc]
	for i, cc := range pc {
		if cc == c {
			s.procConns[c.proc] = append(pc[:i], pc[i+1:]...)
			break
		}
	}
	for _, pr := range c.q {
		delete(s.inflight, pr.req.ReqID)
	}
	s.totalQueued -= len(c.q)
	s.nconns--
	s.disconnects++
	c.q = nil
	c.omu.Lock()
	c.closed = true
	c.omu.Unlock()
	c.ocond.Signal()
	s.closedAgg.queued += c.m.queued
	s.closedAgg.admitted += c.m.admitted
	s.closedAgg.retried += c.m.retried
	s.closedAgg.deduped += c.m.deduped
	s.closedAgg.fromReport += c.m.fromReport
	s.closedAgg.shed += c.m.shed
	s.closedReads += c.reads.Load()
	s.closedFramesIn += c.framesIn.Load()
}

// readLoop decodes frames off one connection and routes them; one read
// delivers every frame of a pipelined burst. With Config.IdleTimeout set,
// each frame must arrive within it or the connection is closed as idle.
func (c *conn) readLoop() {
	defer c.s.removeConn(c)
	defer c.nc.Close()
	idle := c.s.cfg.IdleTimeout
	fr := NewFrameReader(c.nc)
	queued := false // requests enqueued since the worker was last woken
	for {
		fill := !fr.Buffered() // Next has to read from the socket
		if idle > 0 && fill {
			c.nc.SetReadDeadline(time.Now().Add(idle))
		}
		payload, err := fr.Next()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.s.idleClosed.Add(1)
			}
			return
		}
		if fill {
			c.reads.Add(1)
		}
		c.framesIn.Add(1)
		req, err := DecodeRequest(payload)
		if err != nil {
			c.sendReply(Reply{Status: StErr})
			continue
		}
		queued = c.s.handle(c, req) || queued
		if queued && !fr.Buffered() {
			// The burst is in the queue: wake the worker once, for all of
			// it, so a window is not closed over the burst's first frame.
			c.s.wakeWorker(c.proc)
			queued = false
		}
	}
}

// pushLocked appends one reply to the outbox; false means the outbox is
// full and the reply was dropped. Requires c.omu.
func (c *conn) pushLocked(r Reply) bool {
	if len(c.out) >= c.s.outCap {
		return false
	}
	c.out = append(c.out, r)
	return true
}

// wakeWriter wakes writeLoop after pushes; ok is the conjunction of their
// results. A client that stops reading fills the outbox and is
// disconnected here instead of stalling the caller: crash recovery needs
// every active worker to park, so one blocking write on a Proc worker
// would halt the whole server behind one stalled socket.
func (c *conn) wakeWriter(ok bool) {
	c.ocond.Signal()
	if !ok && c.nc != nil {
		c.nc.Close() // slow consumer: tear down, reader runs removeConn
	}
}

// sendReply enqueues one reply on the connection's outbox — never blocks.
func (c *conn) sendReply(r Reply) {
	c.omu.Lock()
	ok := c.pushLocked(r)
	c.omu.Unlock()
	c.wakeWriter(ok)
}

// writeLoop is the connection's single writer, so neither the reader nor
// the Proc workers ever block on the socket. Each pass swaps the whole
// outbox out, encodes it into one buffer and hands it to the socket in ONE
// Write: a window's replies cost one syscall, not two per frame. It retires
// when removeConn sets closed; write errors close the socket and surface
// as the reader's teardown.
func (c *conn) writeLoop() {
	wt := c.s.cfg.WriteTimeout
	var batch []Reply
	buf := make([]byte, 0, frameBufSize)
	for {
		c.omu.Lock()
		for len(c.out) == 0 && !c.closed {
			c.ocond.Wait()
		}
		if c.closed {
			c.omu.Unlock()
			return
		}
		batch, c.out = c.out, batch[:0]
		c.omu.Unlock()
		buf = buf[:0]
		for i := range batch {
			buf = AppendReply(buf, batch[i])
			batch[i].Body = nil // a stats body is garbage once encoded
		}
		if wt > 0 {
			c.nc.SetWriteDeadline(time.Now().Add(wt))
		}
		if _, err := c.nc.Write(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				c.s.writeTimeouts.Add(1)
			}
			c.nc.Close()
			continue
		}
		n := uint64(len(batch))
		c.flushes.Add(1)
		c.framesOut.Add(n)
		c.s.flushes.Add(1)
		c.s.framesOut.Add(n)
	}
}

// maxAckWalk caps how many sequence numbers one acknowledgement may evict
// in a single walk: a legitimate watermark advances by the handful of
// requests since the last one, while a hostile frame could otherwise name
// a MaxSeq-wide range and stall the admission lock for the whole walk. A
// watermark further ahead is walked maxAckWalk at a time, one stretch per
// frame from that client, so no entry below it is skipped.
const maxAckWalk = 1 << 16

// applyAckLocked evicts the response-table entries an acknowledgement
// watermark proves the client has received (its replies are in hand, so
// their IDs can never be resubmitted). Requires s.mu.
func (s *Server) applyAckLocked(ack uint64) {
	if ack == 0 {
		return
	}
	cl, seq := SplitID(ack)
	old := s.acked[cl]
	if seq <= old {
		return
	}
	seq = min(seq, old+maxAckWalk)
	for sq := old + 1; sq <= seq; sq++ {
		if _, ok := s.done[cl<<SeqBits|sq]; ok {
			delete(s.done, cl<<SeqBits|sq)
			s.evicted++
		}
	}
	s.acked[cl] = seq
}

// validOp reports whether a data request is in range for its op.
func validOp(req Request) bool {
	switch req.Op {
	case OpPut, OpDel, OpGet:
		if req.Key2 != 0 {
			return false
		}
	case OpMove:
		if req.Key2 < 1 || req.Key2 > MaxKey {
			return false
		}
	default:
		return false
	}
	return req.Key >= 1 && req.Key <= MaxKey && req.ReqID <= MaxReqID
}

// wakeWorker signals proc w's worker if it is asleep.
func (s *Server) wakeWorker(w int) {
	s.mu.Lock()
	wake := s.idle[w]
	s.idle[w] = false
	s.mu.Unlock()
	if wake {
		s.wake[w].Signal()
	}
}

// handle admits one decoded request: stats snapshot, response-table hit,
// backpressure, or enqueue (reported as true; the caller then owes the
// worker a wakeWorker once its burst is in). Every accepted frame's Ack is
// applied first, so the response table shrinks even on requests that bounce.
func (s *Server) handle(c *conn, req Request) (queued bool) {
	if req.Op == OpStats {
		s.mu.Lock()
		s.applyAckLocked(req.Ack)
		s.mu.Unlock()
		body, err := json.Marshal(s.Snapshot())
		if err != nil || replyWire+len(body) > MaxFrame {
			c.sendReply(Reply{Status: StErr, ReqID: req.ReqID})
			return
		}
		c.sendReply(Reply{Status: StOK, ReqID: req.ReqID, Body: body})
		return
	}
	if !validOp(req) {
		c.sendReply(Reply{Status: StErr, ReqID: req.ReqID})
		return
	}
	s.mu.Lock()
	s.applyAckLocked(req.Ack)
	if val, ok := s.done[req.ReqID]; ok {
		// A resubmitted request ID: answer from the response table — never
		// re-execute.
		c.m.deduped++
		s.mu.Unlock()
		c.sendReply(Reply{Status: StOK, ReqID: req.ReqID, Val: val})
		return
	}
	if wm := s.cfg.ShedWatermark; wm > 0 &&
		float64(s.totalQueued) >= wm*float64(s.nconns*s.cfg.QueueDepth) {
		// Aggregate saturation: shed. Placed after the dedup check so that
		// resubmits of already-answered IDs are still served from the table
		// even while the server is drowning.
		c.m.shed++
		s.mu.Unlock()
		c.sendReply(Reply{Status: StShed, ReqID: req.ReqID})
		return
	}
	if _, busy := s.inflight[req.ReqID]; busy {
		c.m.retried++
		s.mu.Unlock()
		c.sendReply(Reply{Status: StRetry, ReqID: req.ReqID})
		return
	}
	if len(c.q) >= s.cfg.QueueDepth {
		c.m.retried++
		s.mu.Unlock()
		c.sendReply(Reply{Status: StRetry, ReqID: req.ReqID})
		return
	}
	c.q = append(c.q, pendingReq{c: c, req: req, enq: time.Now()})
	s.inflight[req.ReqID] = struct{}{}
	s.totalQueued++
	c.m.queued++
	s.mu.Unlock()
	return true
}

// worker is one Proc's admission loop: drain a window, serve it, repeat.
func (s *Server) worker(w int) {
	defer s.wg.Done()
	defer s.group.Leave()
	p := s.rt.Proc(w)
	n := max(s.cfg.Batch, 2) // a MOVE admits two legs
	sc := &winScratch{
		ops:   make([]repro.Op, 0, n),
		resps: make([]repro.Resp, n),
		vals:  make([]uint64, n),
	}
	for {
		batch := s.drain(w)
		if batch == nil {
			return
		}
		s.serveWindow(p, w, batch, sc)
	}
}

// drain blocks until worker w has admissible requests (or the server
// closes — nil), parking through any crash rendezvous it is notified of.
func (s *Server) drain(w int) []pendingReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if s.rt.Crashing() {
			s.mu.Unlock()
			s.group.Park()
			s.mu.Lock()
			continue
		}
		if !s.cfg.Gated || s.released {
			if batch := s.takeLocked(w); len(batch) > 0 {
				return batch
			}
		}
		s.idle[w] = true
		s.wake[w].Wait()
		s.idle[w] = false
	}
}

// popLocked removes the first k requests of c's queue in place.
func (s *Server) popLocked(c *conn, k int) {
	c.q = c.q[:copy(c.q, c.q[k:])]
	c.m.admitted += uint64(k)
	s.totalQueued -= k
}

// takeLocked drains up to cfg.Batch requests for proc w, one request per
// connection per pass (round-robin fairness: a connection with a deep
// queue cannot starve its neighbours), starting each window at a rotating
// cursor. The returned window aliases s.win[w].
//
// MOVE requests never share a window: an announced vector is either a
// window or an atomic transaction, never a mix, so each
// connection contributes only the prefix of its queue ahead of its first
// MOVE, and when every admissible queue is blocked on a MOVE, exactly one
// MOVE is admitted as a singleton window.
func (s *Server) takeLocked(w int) []pendingReq {
	conns := s.procConns[w]
	n := len(conns)
	if n == 0 {
		return nil
	}
	for _, c := range conns {
		c.lim, c.taken = len(c.q), 0
		for i := range c.q {
			if c.q[i].req.Op == OpMove {
				c.lim = i
				break
			}
		}
	}
	out := s.win[w][:0]
	start := s.rr[w]
	for depth := 0; len(out) < s.cfg.Batch; depth++ {
		took := false
		for i := 0; i < n && len(out) < s.cfg.Batch; i++ {
			c := conns[(start+i)%n]
			if depth < c.lim {
				out = append(out, c.q[depth])
				c.taken = depth + 1
				took = true
			}
		}
		if !took {
			break
		}
	}
	pm := &s.procM[w]
	if len(out) == 0 {
		// Every nonempty queue leads with a MOVE; admit one alone.
		for i := 0; i < n; i++ {
			c := conns[(start+i)%n]
			if len(c.q) == 0 {
				continue
			}
			out = append(out, c.q[0])
			s.popLocked(c, 1)
			pm.Moves++
			break
		}
		if len(out) == 0 {
			return nil
		}
	} else {
		// Pop the admitted prefixes.
		for _, c := range conns {
			if c.taken > 0 {
				s.popLocked(c, c.taken)
			}
		}
		pm.Windows++
		pm.BatchFill[len(out)]++
	}
	pm.Admitted += uint64(len(out))
	s.rr[w] = (start + 1) % n // advance the fairness cursor
	s.win[w] = out
	return out
}

// reqOp maps a request onto the store's operation protocol: the request ID
// rides the announcement Arg's high bits (see PackArg), the key its low
// bits.
func reqOp(r Request) repro.Op {
	kind := repro.OpFind
	switch r.Op {
	case OpPut:
		kind = repro.OpInsert
	case OpDel:
		kind = repro.OpDelete
	}
	return repro.Op{Kind: kind, Arg: PackArg(r.ReqID, r.Key)}
}

// winScratch is a worker's reusable per-admission buffers: the operations
// admitted, their responses and the reply values.
type winScratch struct {
	ops   []repro.Op
	resps []repro.Resp
	vals  []uint64
}

// boolVal is the reply value of a boolean response.
func boolVal(r repro.Resp) uint64 {
	if r.Bool() {
		return 1
	}
	return 0
}

// moveVal packs a MOVE's two leg results into one reply value: bit 0 is
// the delete's (source present), bit 1 the insert's (destination fresh).
func moveVal(del, ins repro.Resp) uint64 {
	return boolVal(del) | boolVal(ins)<<1
}

// serveWindow runs one admission to completion across any number of
// crashes: a window of PUT/DEL/GET requests through ApplyWindow, or a lone
// MOVE, whose delete and insert legs run as one ApplyTxn (one durable commit
// point between them). On a crash it parks through the group rendezvous
// (reboot = Restart + one RecoverAll, run by the last parker), answers what
// the report proves durable via repro.MatchReport — a window's completed
// prefix; a MOVE's two legs or nothing, recovery having rolled a committed
// transaction's second leg forward — and re-admits the rest. The request ID
// riding every announced Arg makes a stale report unmatchable.
func (s *Server) serveWindow(p *repro.Proc, w int, pending []pendingReq, sc *winScratch) {
	move := pending[0].req.Op == OpMove
	ops := sc.ops[:0]
	if move {
		req := pending[0].req
		ops = append(ops, repro.Op{Kind: repro.OpDelete, Arg: PackArg(req.ReqID, req.Key)},
			repro.Op{Kind: repro.OpInsert, Arg: PackArg(req.ReqID, req.Key2)})
	} else {
		for i := range pending {
			ops = append(ops, reqOp(pending[i].req))
		}
	}
	resps, vals := sc.resps, sc.vals
	for len(ops) > 0 {
		n := len(ops) // operations resolved
		admitted := s.rt.Run(func() {
			if move {
				resps[0], resps[1] = s.rt.ApplyTxn(p, repro.TxnLeg{S: s.store, Op: ops[0]}, repro.TxnLeg{S: s.store, Op: ops[1]})
			} else {
				copy(resps, s.rt.ApplyWindow(p, s.store, ops))
			}
		})
		if !admitted {
			// Wake idle workers so they join the rendezvous, then park. No
			// report, or nothing matched: the admission provably performed no
			// tracked writes and is re-admitted wholesale.
			s.wakeAll()
			s.group.Park()
			n = 0
			if rep, ok := s.group.Report(w); ok {
				n = repro.MatchReport(rep, ops, func(i int, _ repro.Op, r repro.Resp) { resps[i] = r })
			}
		}
		k := n // requests answered
		if move {
			k = n / 2
			vals[0] = moveVal(resps[0], resps[1])
		} else {
			for i := range k {
				vals[i] = boolVal(resps[i])
			}
		}
		if k > 0 {
			s.finishWindow(w, pending[:k], vals, !admitted)
		}
		pending, ops, resps, vals = pending[k:], ops[n:], resps[n:], vals[k:]
	}
}

// finishWindow answers reqs — a whole window, or the durable prefix a
// report proves after a crash — with vals: it records them in the response
// table under ONE s.mu hold, then hands each connection its replies as one
// batch, so a window costs one outbox lock hold, one writer wake-up and one
// socket Write per connection. It clears reqs' conn pointers as it goes.
func (s *Server) finishWindow(w int, reqs []pendingReq, vals []uint64, fromReport bool) {
	now := time.Now()
	s.mu.Lock()
	for i := range reqs {
		pr := &reqs[i]
		s.done[pr.req.ReqID] = vals[i]
		delete(s.inflight, pr.req.ReqID)
		m := &pr.c.m
		if pr.c.gone {
			// removeConn already folded this connection's counters into the
			// closed aggregate; route the late completion there too, or the
			// update would vanish from Snapshot totals.
			m = &s.closedAgg
		}
		m.lat.observe(now.Sub(pr.enq))
		if fromReport {
			m.fromReport++
		}
	}
	if fromReport {
		s.procM[w].FromReport += uint64(len(reqs))
	}
	s.mu.Unlock()
	for i := range reqs {
		c := reqs[i].c
		if c == nil {
			continue // went out with an earlier request of its connection
		}
		ok := true
		c.omu.Lock()
		for j := i; j < len(reqs); j++ {
			if reqs[j].c == c {
				ok = c.pushLocked(Reply{Status: StOK, ReqID: reqs[j].req.ReqID, Val: vals[j]}) && ok
				reqs[j].c = nil
			}
		}
		c.omu.Unlock()
		c.wakeWriter(ok)
	}
}

// Snapshot assembles the stats the OpStats endpoint serves. It reads the
// crash state from its owners, the crash group and the runtime, before it
// takes s.mu: no path holds the group's lock and the server's together.
func (s *Server) Snapshot() Stats {
	crashes := s.group.Crashes()
	scan, _ := s.rt.LastScan()
	rs, _ := s.rt.ReclaimStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Crashes:        crashes,
		FastRecoveries: rs.FastRecoveries,
		FullScans:      rs.FullScans,
		LastDropped:    scan.Dropped,
		LastGarbage:    scan.Garbage,
		TableEntries:   len(s.done),
		EvictedEntries: s.evicted,
		Queued:         s.closedAgg.queued,
		Admitted:       s.closedAgg.admitted,
		Retried:        s.closedAgg.retried,
		Deduped:        s.closedAgg.deduped,
		FromReport:     s.closedAgg.fromReport,
		Sheds:          s.closedAgg.shed,
		Disconnects:    s.disconnects,
		IdleClosed:     s.idleClosed.Load(),
		WriteTimeouts:  s.writeTimeouts.Load(),
		Flushes:        s.flushes.Load(),
		FramesOut:      s.framesOut.Load(),
		Reads:          s.closedReads,
		FramesIn:       s.closedFramesIn,
	}
	for _, pc := range s.procConns {
		for _, c := range pc {
			cs := c.m.snapshot(c.id, c.proc)
			cs.Flushes, cs.FramesOut = c.flushes.Load(), c.framesOut.Load()
			cs.Reads, cs.FramesIn = c.reads.Load(), c.framesIn.Load()
			st.Reads += cs.Reads
			st.FramesIn += cs.FramesIn
			st.Conns = append(st.Conns, cs)
			st.Queued += cs.Queued
			st.Admitted += cs.Admitted
			st.Retried += cs.Retried
			st.Deduped += cs.Deduped
			st.FromReport += cs.FromReport
			st.Sheds += cs.Shed
		}
	}
	for i := range s.procM {
		pm := s.procM[i]
		pm.BatchFill = append([]uint64(nil), pm.BatchFill...)
		st.Procs = append(st.Procs, pm)
	}
	return st
}
