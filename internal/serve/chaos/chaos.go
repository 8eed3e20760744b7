// Package chaos is the hostile-network harness for the serve layer: a
// deterministic fault-injecting net.Conn / net.Listener wrapper, the
// wire-layer analogue of the pmem crash armer. A Plan names exactly where
// a connection fails — kill after the Nth written byte, kill after the
// Nth delivered byte, dribble writes in short chunks, delay delivery — so
// a failure observed once can be replayed byte-for-byte, and a sweep can
// kill the wire at EVERY byte offset of a fixed workload (see the wire
// sweep in this package's tests). A Schedule draws Plans from a seeded
// generator so whole storms are reproducible too.
//
// Kill semantics mirror a crashed peer or a mid-stream RST: the bytes
// before the offset are delivered (a torn frame, not a clean boundary),
// the underlying connection is closed — so the REMOTE side observes the
// drop as a read/write error as well — and every later operation on the
// wrapped side fails with ErrKilled.
package chaos

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrKilled is returned by a Conn whose fault plan has fired.
var ErrKilled = errors.New("chaos: connection killed by fault plan")

// Plan is one connection's deterministic fault schedule. The zero Plan is
// a transparent wrapper (useful for byte accounting via BytesWritten /
// BytesRead).
type Plan struct {
	// KillWriteAt kills the connection when the Nth byte is about to be
	// written through it: bytes 1..N-1 are forwarded, the Nth and
	// everything after are discarded, and the underlying conn is closed.
	// 0 disables.
	KillWriteAt uint64
	// KillReadAt kills the connection when the Nth byte has been delivered
	// to Read: bytes 1..N-1 are delivered, then reads fail and the
	// underlying conn closes. 0 disables.
	KillReadAt uint64
	// MaxChunk caps how many bytes one Write forwards per underlying write
	// (short writes: the peer's reader sees frame bytes dribble in across
	// io.ReadFull calls). 0 disables.
	MaxChunk int
	// ReadDelay / WriteDelay pause before each underlying read / write
	// chunk (slow-peer emulation). 0 disables.
	ReadDelay, WriteDelay time.Duration
}

// Conn is a net.Conn wrapped with a fault Plan. It also counts bytes in
// both directions, which is how the wire sweep fixes its offset space, and
// Write/Read calls, which is how the coalescing pins count socket writes.
// Calls in the same direction are serialized (rio/wio below): the kill
// offsets promise EXACTLY k-1 bytes delivered, and two concurrent
// readers each granted the remaining budget would together overshoot it.
type Conn struct {
	nc   net.Conn
	plan Plan

	rio sync.Mutex // serializes Read calls (exact KillReadAt accounting)
	wio sync.Mutex // serializes Write calls (exact KillWriteAt accounting)

	mu     sync.Mutex
	rOff   uint64
	wOff   uint64
	reads  uint64
	writes uint64
	killed bool
}

// NewConn wraps nc with plan.
func NewConn(nc net.Conn, plan Plan) *Conn {
	return &Conn{nc: nc, plan: plan}
}

// BytesWritten reports bytes forwarded to the underlying connection.
func (c *Conn) BytesWritten() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wOff
}

// BytesRead reports bytes delivered to Read.
func (c *Conn) BytesRead() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rOff
}

// Writes reports how many Write calls the connection has taken (each
// would be one socket write on an unwrapped connection).
func (c *Conn) Writes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// Reads reports how many Read calls the connection has taken.
func (c *Conn) Reads() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// Killed reports whether the fault plan has fired.
func (c *Conn) Killed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// kill marks the connection dead and closes the underlying conn so the
// peer observes the drop too.
func (c *Conn) kill() {
	c.killed = true
	c.nc.Close()
}

// Write forwards b in MaxChunk-sized pieces, killing the connection at
// the planned write offset: the bytes before it are forwarded (the peer
// receives a torn frame), the rest are discarded. Returns the number of
// bytes actually forwarded, with ErrKilled once the plan fires.
func (c *Conn) Write(b []byte) (int, error) {
	c.wio.Lock()
	defer c.wio.Unlock()
	c.mu.Lock()
	c.writes++
	killed := c.killed
	c.mu.Unlock()
	if len(b) == 0 {
		if killed {
			return 0, ErrKilled
		}
		return 0, nil
	}
	total := 0
	for total < len(b) {
		if c.plan.WriteDelay > 0 {
			time.Sleep(c.plan.WriteDelay)
		}
		chunk := len(b) - total
		if c.plan.MaxChunk > 0 && chunk > c.plan.MaxChunk {
			chunk = c.plan.MaxChunk
		}
		c.mu.Lock()
		if c.killed {
			c.mu.Unlock()
			return total, ErrKilled
		}
		killAfter := -1 // bytes of this chunk to forward before killing
		if k := c.plan.KillWriteAt; k > 0 && c.wOff+uint64(chunk) >= k {
			killAfter = int(k - 1 - c.wOff)
			chunk = killAfter
		}
		c.mu.Unlock()
		n := 0
		var err error
		if chunk > 0 {
			n, err = c.nc.Write(b[total : total+chunk])
		}
		c.mu.Lock()
		c.wOff += uint64(n)
		if killAfter >= 0 {
			c.kill()
			c.mu.Unlock()
			return total + n, ErrKilled
		}
		c.mu.Unlock()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Read delivers bytes from the underlying connection, killing at the
// planned read offset: bytes before it are delivered (possibly alongside
// ErrKilled, torn mid-frame), nothing after.
func (c *Conn) Read(b []byte) (int, error) {
	c.rio.Lock()
	defer c.rio.Unlock()
	if c.plan.ReadDelay > 0 {
		time.Sleep(c.plan.ReadDelay)
	}
	c.mu.Lock()
	c.reads++
	if c.killed {
		c.mu.Unlock()
		return 0, ErrKilled
	}
	limit := len(b)
	killing := false
	if k := c.plan.KillReadAt; k > 0 {
		left := int(k - 1 - c.rOff) // deliverable bytes before the kill
		if left <= 0 {
			c.kill()
			c.mu.Unlock()
			return 0, ErrKilled
		}
		if limit >= left {
			limit = left
			killing = true
		}
	}
	c.mu.Unlock()
	n, err := c.nc.Read(b[:limit])
	c.mu.Lock()
	c.rOff += uint64(n)
	if killing && n == limit {
		c.kill()
		err = ErrKilled
	}
	c.mu.Unlock()
	return n, err
}

// Close tears the connection down (independent of the plan).
func (c *Conn) Close() error {
	c.mu.Lock()
	c.killed = true
	c.mu.Unlock()
	return c.nc.Close()
}

// The remaining net.Conn surface delegates to the wrapped connection.

func (c *Conn) LocalAddr() net.Addr                { return c.nc.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr               { return c.nc.RemoteAddr() }
func (c *Conn) SetDeadline(t time.Time) error      { return c.nc.SetDeadline(t) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.nc.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// ScheduleConfig parameterises a seeded Plan generator.
type ScheduleConfig struct {
	// Seed fixes the fault draw sequence (default 1); two schedules with
	// the same seed hand identical Plans to the same accept/dial order.
	Seed int64
	// KillRate is the expected kills per KiB of traffic: each wrapped
	// connection draws a kill offset from an exponential with mean
	// 1024/KillRate bytes, in a direction chosen by the same stream.
	// 0 disables kills.
	KillRate float64
	// MaxChunk / MaxDelay bound the short-write chunking and the random
	// per-operation delivery delay handed to each Plan (0 disables each).
	MaxChunk int
	MaxDelay time.Duration
}

// Schedule deterministically assigns a fault Plan to every connection it
// wraps.
type Schedule struct {
	cfg ScheduleConfig

	mu    sync.Mutex
	rng   *rand.Rand
	conns uint64
	kills uint64
}

// NewSchedule builds a seeded schedule.
func NewSchedule(cfg ScheduleConfig) *Schedule {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Schedule{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Plan draws the next connection's fault plan from the seeded stream.
func (s *Schedule) Plan() Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conns++
	var p Plan
	if s.cfg.KillRate > 0 {
		off := uint64(s.rng.ExpFloat64()*1024/s.cfg.KillRate) + 1
		if s.rng.Intn(2) == 0 {
			p.KillWriteAt = off
		} else {
			p.KillReadAt = off
		}
		s.kills++
	}
	p.MaxChunk = s.cfg.MaxChunk
	if s.cfg.MaxDelay > 0 {
		p.ReadDelay = time.Duration(s.rng.Int63n(int64(s.cfg.MaxDelay)))
		p.WriteDelay = time.Duration(s.rng.Int63n(int64(s.cfg.MaxDelay)))
	}
	return p
}

// Wrap assigns nc the next drawn plan.
func (s *Schedule) Wrap(nc net.Conn) *Conn { return NewConn(nc, s.Plan()) }

// Stats reports connections wrapped and kills planned so far.
func (s *Schedule) Stats() (conns, kills uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conns, s.kills
}

// Listener wraps every accepted connection with a plan drawn from the
// schedule: the hostile path a server can be run through end to end
// (cmd/kvserver -selftest -chaos).
type Listener struct {
	net.Listener
	sched *Schedule
}

// NewListener wraps ln.
func NewListener(ln net.Listener, sched *Schedule) *Listener {
	return &Listener{Listener: ln, sched: sched}
}

// Accept wraps the next accepted connection.
func (l *Listener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.sched.Wrap(nc), nil
}
