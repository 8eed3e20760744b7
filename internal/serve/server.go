package serve

import (
	"encoding/json"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// Config parameterises a Server.
type Config struct {
	// Procs is the fixed admission pool: one worker per Runtime Proc
	// (default 2), serving the clients c (SplitID) with c % Procs == Proc.
	Procs int
	// Shards is the store's shard count (default 16).
	Shards int
	// Batch caps how many queued requests one Proc drains into a single
	// ApplyWindow (default 16, max repro.MaxBatch).
	Batch int
	// QueueDepth bounds each connection's pending queue at a worker; a full
	// queue answers RETRY (default 32).
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
	// A gated worker still queues, bounces and answers from the table.
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
	// long (0 disables): a dead or wedged peer must not hold its queues and
	// their capacity forever. Exactly-once state is untouched — the
	// response table is keyed by request ID, not by connection — so a
	// client redialing after an idle-close still gets its recorded answers.
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

// pendingReq is one decoded request with its reply route and arrival time.
type pendingReq struct {
	c   *conn
	req Request
	enq time.Time
}

// conn is one accepted connection: reply socket, its queue at each worker,
// outbox and counters. Replies are queued on out and written by the
// connection's own writer goroutine, so a worker never blocks on a slow
// client's socket.
type conn struct {
	s     *Server
	id    uint64
	nc    net.Conn
	proc  atomic.Int32 // ConnStats.Proc
	lanes []*lane      // lanes[w] is worker w's alone
	counts
	lat latHist // request latency, arrival to answer

	// The outbox: replies awaiting writeLoop, which swaps the whole slice
	// out and writes it with one Write. omu is a leaf lock.
	omu    sync.Mutex
	ocond  sync.Cond // L is &omu; signalled when out fills or closed is set
	out    []Reply   // bounded by Server.outCap
	closed bool      // set by removeConn; retires writeLoop
	// flushes counts writeLoop's successful Writes, framesOut the reply
	// frames they carried; reads and framesIn are readLoop's mirror.
	flushes, framesOut, reads, framesIn atomic.Uint64
}

// lane is one connection's queue at one worker. lim and taken are take's
// scratch: the admissible prefix of q and how many of them the window took.
type lane struct {
	c          *conn
	q          []pendingReq
	lim, taken int
}

// worker is one Proc's admission loop and the sole owner of what its
// admissions touch: its lanes, its clients' share of the response table and
// ack watermarks, and its counters. Others reach it through the inbox.
type worker struct {
	s  *Server
	id int
	// wake (capacity 1) is the inbox signal: a request, a departure, Release,
	// Close or another worker's crash. A send never blocks.
	wake  chan struct{}
	mu    sync.Mutex
	space sync.Cond    // L is &mu; broadcast when the inbox is emptied
	inbox []pendingReq // on mu

	// The worker goroutine's alone from here on.
	lanes []*lane
	rr    int // round-robin cursor over lanes
	win   []pendingReq
	// done is this worker's share of the response table: request ID ->
	// result (packed leg booleans for MOVE) of every answered request, what
	// makes a resubmitted ID exactly-once. Only finish fills it, so an entry
	// is added before its client can acknowledge it, and applyAck evicts
	// what the client's watermark (Request.Ack) proves received: the table
	// holds the unacknowledged tail.
	done  map[uint64]uint64
	acked map[uint64]uint64 // client prefix -> acked seq watermark
	m     procMetrics
}

// Server multiplexes client connections onto the store's Proc pool. See
// the package comment for the admission, backpressure and crash story.
type Server struct {
	cfg     Config
	rt      *repro.Runtime
	store   *repro.HashMap
	group   *repro.CrashGroup
	workers []*worker

	// outCap bounds each connection's outbox: every reply a well-behaved
	// connection can have outstanding (its full queue, a drained window,
	// backpressure bounces) fits without ever parking a worker.
	outCap int
	// queued (requests in every lane) and nconns feed the shed watermark.
	queued, nconns atomic.Int64
	// Totals over every connection, open and closed: its Writes, reads and
	// frames, and disconnects, of which idleClosed and writeTimeouts the
	// idle and write deadlines caused.
	flushes, framesOut, reads, framesIn    atomic.Uint64
	disconnects, idleClosed, writeTimeouts atomic.Uint64
	released, closed                       atomic.Bool

	// mu guards the connection registry and the listener; no request takes
	// it. closed is set under it, so addConn and Close agree.
	mu      sync.Mutex
	conns   []*conn
	connSeq uint64
	ln      net.Listener
	wg      sync.WaitGroup // workers
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
		outCap: 2*cfg.QueueDepth + cfg.Batch + 8,
	}
	s.released.Store(!cfg.Gated)
	s.store = s.rt.NewHashMap(cfg.Shards)
	// The store keys on the low KeyBits of the announced Arg; the high
	// bits are the request ID riding the announcement across crashes.
	s.store.SetArgMask(MaxKey)
	every := uint64(0)
	if cfg.CrashSim {
		every = cfg.CrashEvery
	}
	s.group = repro.NewCrashGroup(s.rt, cfg.Procs, every)
	for w := range cfg.Procs {
		s.workers = append(s.workers, newWorker(s, w))
	}
	s.wg.Add(cfg.Procs)
	for _, w := range s.workers {
		go w.run()
	}
	return s
}

// newWorker builds s's worker id; New starts its loop.
func newWorker(s *Server, id int) *worker {
	w := &worker{
		s: s, id: id, wake: make(chan struct{}, 1),
		done: map[uint64]uint64{}, acked: map[uint64]uint64{},
	}
	w.space.L = &w.mu
	w.m.batchFill = make([]atomic.Uint64, s.cfg.Batch+1)
	return w
}

// Runtime exposes the server's runtime (bench and harness plumbing).
func (s *Server) Runtime() *repro.Runtime { return s.rt }

// Store exposes the underlying map (post-run audits at quiescence).
func (s *Server) Store() *repro.HashMap { return s.store }

// Crashes reports how many store crashes the server has recovered from.
func (s *Server) Crashes() int { return s.group.Crashes() }

// route is the index of the worker that owns reqID's client.
func (s *Server) route(reqID uint64) int {
	client, _ := SplitID(reqID)
	return int(client % uint64(len(s.workers)))
}

// signal wakes the worker, now or at its next sleep.
func (w *worker) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Release opens the admission gate of a Config.Gated server.
func (s *Server) Release() {
	s.released.Store(true)
	for _, w := range s.workers {
		w.signal()
	}
}

// Serve accepts connections on ln until the listener or server closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.closed.Load() {
		return net.ErrClosed
	}
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
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
	if s.closed.Load() {
		s.mu.Unlock()
		return
	}
	s.closed.Store(true)
	for _, c := range s.conns {
		c.nc.Close()
	}
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, w := range s.workers {
		w.mu.Lock() // a reader that saw the server open is waiting by now
		w.space.Broadcast()
		w.mu.Unlock()
		w.signal()
	}
	s.wg.Wait()
}

// addConn registers nc and starts its reader and writer, or, once Close
// has run, closes it at once.
func (s *Server) addConn(nc net.Conn) {
	c := &conn{s: s, nc: nc, lanes: make([]*lane, len(s.workers))}
	c.ocond.L = &c.omu
	c.proc.Store(-1)
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.connSeq++
	c.id = s.connSeq
	s.conns = append(s.conns, c)
	s.mu.Unlock()
	s.nconns.Add(1)
	go c.readLoop()
	go c.writeLoop()
}

// removeConn drops c: it counts the disconnect, closes the socket, retires
// the writer and posts opGone to every worker, behind c's requests. The
// count comes before the close, so a client that reads EOF finds it.
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	s.conns = slices.DeleteFunc(s.conns, func(cc *conn) bool { return cc == c })
	s.mu.Unlock()
	s.nconns.Add(-1)
	s.disconnects.Add(1)
	c.nc.Close()
	c.omu.Lock()
	c.closed = true
	c.omu.Unlock()
	c.ocond.Signal()
	for _, w := range s.workers {
		w.post(pendingReq{c: c, req: Request{Op: opGone}})
	}
}

// readLoop decodes frames off one connection and posts each to the worker
// that owns its client; one read delivers every frame of a pipelined burst.
// With Config.IdleTimeout set, each frame must arrive within it or the
// connection is closed as idle.
func (c *conn) readLoop() {
	defer c.s.removeConn(c)
	idle := c.s.cfg.IdleTimeout
	fr := NewFrameReader(c.nc)
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
			c.s.reads.Add(1)
		}
		c.framesIn.Add(1)
		c.s.framesIn.Add(1)
		req, err := DecodeRequest(payload)
		if err != nil || req.Op != OpStats && !validOp(req) {
			c.sendReply(Reply{Status: StErr, ReqID: req.ReqID})
			continue
		}
		w := c.s.route(req.ReqID)
		c.proc.CompareAndSwap(-1, int32(w))
		c.s.workers[w].post(pendingReq{c: c, req: req, enq: time.Now()})
	}
}

// post appends pr to the inbox and wakes the worker. While the inbox holds
// a queue's worth, the reader waits for the worker to empty it, so a flood
// backs up into the socket, not the heap.
func (w *worker) post(pr pendingReq) {
	w.mu.Lock()
	for len(w.inbox) >= w.s.cfg.QueueDepth && !w.s.closed.Load() {
		w.space.Wait()
	}
	w.inbox = append(w.inbox, pr)
	w.mu.Unlock()
	w.signal()
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
	if !ok {
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

// Markers that never reach the wire: opGone, a reader's last post to a
// worker, says its connection is gone; stStats is a STATS reply, acked by
// the owner, whose snapshot writeLoop takes, so no worker assembles one.
const opGone, stStats byte = 0, 0xff

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
		for _, r := range batch {
			if r.Status == stStats {
				body, err := json.Marshal(c.s.Snapshot())
				r.Status, r.Body = StOK, body
				if err != nil || replyWire+len(body) > MaxFrame {
					r.Status, r.Body = StErr, nil
				}
			}
			buf = AppendReply(buf, r)
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
// a MaxSeq-wide range and stall its worker for the whole walk. A watermark
// further ahead is walked maxAckWalk at a time, one stretch per frame from
// that client, so no entry below it is skipped.
const maxAckWalk = 1 << 16

// applyAck evicts the response-table entries an acknowledgement watermark
// proves the client has received (its replies are in hand, so their IDs
// can never be resubmitted). They live at the client's owner; another
// worker has none and ignores the watermark.
func (w *worker) applyAck(ack uint64) {
	if ack == 0 || w.s.route(ack) != w.id {
		return
	}
	cl, seq := SplitID(ack)
	old := w.acked[cl]
	if seq <= old {
		return
	}
	seq = min(seq, old+maxAckWalk)
	for sq := old + 1; sq <= seq; sq++ {
		if _, ok := w.done[cl<<SeqBits|sq]; ok {
			delete(w.done, cl<<SeqBits|sq)
			w.m.evicted.Add(1)
		}
	}
	w.acked[cl] = seq
	w.m.table.Store(int64(len(w.done)))
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

// run is the worker's loop: empty the inbox, serve a window, repeat.
func (w *worker) run() {
	s := w.s
	defer s.wg.Done()
	defer s.group.Leave()
	p := s.rt.Proc(w.id)
	n := max(s.cfg.Batch, 2) // a MOVE admits two legs
	sc := &winScratch{
		ops:   make([]repro.Op, 0, n),
		resps: make([]repro.Resp, n),
		vals:  make([]uint64, n),
	}
	var in []pendingReq // the inbox taken, swapped back emptied
	gathered := false
	for !s.closed.Load() {
		if s.rt.Crashing() {
			s.group.Park()
			continue
		}
		w.mu.Lock()
		in, w.inbox = w.inbox, in[:0]
		w.space.Broadcast()
		w.mu.Unlock()
		for _, pr := range in {
			w.accept(pr)
		}
		clear(in)
		if len(in) > 0 && !gathered {
			// Yield once before composing: requests the last replies set off join.
			gathered = true
			runtime.Gosched()
			continue
		}
		gathered = false
		if s.released.Load() {
			if win := w.take(); len(win) > 0 {
				w.serveWindow(p, win, sc)
				continue
			}
		}
		if len(in) == 0 {
			<-w.wake // nothing came in and nothing is admissible
		}
	}
}

// accept takes one request off the inbox. Its acknowledgement is applied
// first, so the response table shrinks even on requests that bounce; then
// it is answered from the table, shed, bounced with RETRY when its lane is
// full, or queued there.
func (w *worker) accept(pr pendingReq) {
	s, c, id := w.s, pr.c, pr.req.ReqID
	if pr.req.Op == opGone {
		w.drop(c)
		return
	}
	w.applyAck(pr.req.Ack)
	if pr.req.Op == OpStats {
		c.sendReply(Reply{Status: stStats, ReqID: id})
		return
	}
	if val, ok := w.done[id]; ok {
		w.dedup(c, id, val)
		return
	}
	if wm := s.cfg.ShedWatermark; wm > 0 &&
		float64(s.queued.Load()) >= wm*float64(s.nconns.Load()*int64(s.cfg.QueueDepth)) {
		// Aggregate saturation: shed. After the dedup check, so resubmits of
		// answered IDs are still served from the table while drowning.
		c.shed.Add(1)
		w.m.shed.Add(1)
		c.sendReply(Reply{Status: StShed, ReqID: id})
		return
	}
	l := c.lanes[w.id]
	if l == nil {
		l = &lane{c: c}
		c.lanes[w.id] = l
		w.lanes = append(w.lanes, l)
	}
	if len(l.q) >= s.cfg.QueueDepth {
		c.retried.Add(1)
		w.m.retried.Add(1)
		c.sendReply(Reply{Status: StRetry, ReqID: id})
		return
	}
	l.q = append(l.q, pr)
	s.queued.Add(1)
	c.queued.Add(1)
	w.m.queued.Add(1)
}

// dedup answers a resubmitted request ID from the table, never re-executed.
func (w *worker) dedup(c *conn, id, val uint64) {
	c.deduped.Add(1)
	w.m.deduped.Add(1)
	c.sendReply(Reply{Status: StOK, ReqID: id, Val: val})
}

// drop discards c's lane and its unadmitted requests; a resubmission on a
// fresh connection is queued afresh.
func (w *worker) drop(c *conn) {
	if l := c.lanes[w.id]; l != nil {
		c.lanes[w.id] = nil
		w.lanes = slices.DeleteFunc(w.lanes, func(x *lane) bool { return x == l })
		w.s.queued.Add(-int64(len(l.q)))
	}
}

// pop removes the first k requests of l's queue in place.
func (w *worker) pop(l *lane, k int) {
	l.q = l.q[:copy(l.q, l.q[k:])]
	w.s.queued.Add(-int64(k))
}

// take composes the next window: up to cfg.Batch requests, one per lane
// per pass (round-robin fairness: a connection with a deep queue cannot
// starve its neighbours), starting each window at a rotating cursor. The
// returned window aliases w.win.
//
// MOVE requests never share a window: an announced vector is either a
// window or an atomic transaction, never a mix, so each lane contributes
// only the prefix of its queue ahead of its first MOVE, and when every
// admissible queue is blocked on a MOVE, exactly one MOVE is admitted as a
// singleton window. The worker serves one window at a time, so a queued
// duplicate of an answered request is answered from the table here, and
// one of a request in this window waits for the next.
func (w *worker) take() []pendingReq {
	lanes := w.lanes
	n := len(lanes)
	if n == 0 {
		return nil
	}
	for _, l := range lanes {
		l.lim, l.taken = len(l.q), 0
		for i := range l.q {
			if l.q[i].req.Op == OpMove {
				l.lim = i
				break
			}
		}
	}
	out := w.win[:0]
	// use answers pr from the table if it was answered since it queued.
	use := func(l *lane, pr pendingReq) {
		if val, ok := w.done[pr.req.ReqID]; ok {
			w.dedup(l.c, pr.req.ReqID, val)
		} else {
			out = append(out, pr)
			l.c.admitted.Add(1)
			w.m.admitted.Add(1)
		}
	}
	batch, start := w.s.cfg.Batch, w.rr
	for depth := 0; len(out) < batch; depth++ {
		took := false
		for i := 0; i < n && len(out) < batch; i++ {
			l := lanes[(start+i)%n]
			if depth >= l.lim {
				continue
			}
			if id := l.q[depth].req.ReqID; slices.ContainsFunc(out, func(pr pendingReq) bool { return pr.req.ReqID == id }) {
				l.lim = depth // a duplicate waits for this window's answer
				continue
			}
			use(l, l.q[depth])
			l.taken = depth + 1
			took = true
		}
		if !took {
			break
		}
	}
	for _, l := range lanes {
		if l.taken > 0 {
			w.pop(l, l.taken)
		}
	}
	if len(out) > 0 {
		w.m.windows.Add(1)
		w.m.batchFill[len(out)].Add(1)
	} else {
		// Every nonempty queue leads with a MOVE; admit one alone.
		for i := 0; i < n && len(out) == 0; i++ {
			for l := lanes[(start+i)%n]; len(l.q) > 0 && len(out) == 0; w.pop(l, 1) {
				use(l, l.q[0])
			}
		}
		if len(out) == 0 {
			return nil
		}
		w.m.moves.Add(1)
	}
	w.rr = (start + 1) % n // advance the fairness cursor
	w.win = out
	return out
}

// reqOp maps a request onto the store's operation protocol: the request ID
// rides the announcement Arg's high bits (see PackArg), the key its low.
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
func (w *worker) serveWindow(p *repro.Proc, pending []pendingReq, sc *winScratch) {
	s := w.s
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
			for _, o := range s.workers {
				o.signal()
			}
			s.group.Park()
			n = 0
			if rep, ok := s.group.Report(w.id); ok {
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
			w.finish(pending[:k], vals, !admitted)
		}
		pending, ops, resps, vals = pending[k:], ops[n:], resps[n:], vals[k:]
	}
}

// finish answers reqs — a whole window, or the durable prefix a report
// proves after a crash — with vals: it records them in the response table,
// then hands each connection its replies as one batch, so a window costs
// one outbox lock hold, one writer wake-up and one socket Write per
// connection. It clears reqs' conn pointers as it goes.
func (w *worker) finish(reqs []pendingReq, vals []uint64, fromReport bool) {
	now := time.Now()
	for i := range reqs {
		pr := &reqs[i]
		w.done[pr.req.ReqID] = vals[i]
		pr.c.lat.observe(now.Sub(pr.enq))
		if fromReport {
			pr.c.fromReport.Add(1)
			w.m.fromReport.Add(1)
		}
	}
	w.m.table.Store(int64(len(w.done)))
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

// Snapshot assembles the stats the OpStats endpoint serves, reading each
// owner's state in turn: it never holds two locks at once.
func (s *Server) Snapshot() Stats {
	crashes := s.group.Crashes()
	scan, _ := s.rt.LastScan()
	rs, _ := s.rt.ReclaimStats()
	st := Stats{
		Crashes:        crashes,
		FastRecoveries: rs.FastRecoveries,
		FullScans:      rs.FullScans,
		LastDropped:    scan.Dropped,
		LastGarbage:    scan.Garbage,
		Disconnects:    s.disconnects.Load(),
		IdleClosed:     s.idleClosed.Load(),
		WriteTimeouts:  s.writeTimeouts.Load(),
		Flushes:        s.flushes.Load(),
		FramesOut:      s.framesOut.Load(),
		Reads:          s.reads.Load(),
		FramesIn:       s.framesIn.Load(),
	}
	for _, w := range s.workers {
		m := &w.m
		ps := ProcStats{Proc: w.id, Windows: m.windows.Load(), Admitted: m.admitted.Load(),
			Moves: m.moves.Load(), FromReport: m.fromReport.Load()}
		for i := range m.batchFill {
			ps.BatchFill = append(ps.BatchFill, m.batchFill[i].Load())
		}
		st.Procs = append(st.Procs, ps)
		st.TableEntries += int(m.table.Load())
		st.EvictedEntries += m.evicted.Load()
		st.Queued += m.queued.Load()
		st.Admitted += m.admitted.Load()
		st.Retried += m.retried.Load()
		st.Deduped += m.deduped.Load()
		st.FromReport += m.fromReport.Load()
		st.Sheds += m.shed.Load()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		st.Conns = append(st.Conns, c.stats())
	}
	return st
}

// stats is the connection's ConnStats.
func (c *conn) stats() ConnStats {
	return ConnStats{
		ID: c.id, Proc: int(c.proc.Load()),
		Queued: c.queued.Load(), Admitted: c.admitted.Load(), Retried: c.retried.Load(),
		Deduped: c.deduped.Load(), FromReport: c.fromReport.Load(), Shed: c.shed.Load(),
		Flushes: c.flushes.Load(), FramesOut: c.framesOut.Load(), Reads: c.reads.Load(), FramesIn: c.framesIn.Load(),
		P50Micros: c.lat.quantile(0.50), P99Micros: c.lat.quantile(0.99),
	}
}
