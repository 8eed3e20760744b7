package serve

import (
	"testing"
	"time"
)

// TestLatHistQuantiles pins the latency histogram's resolution: over runs
// of known samples, the p50 and p99 it reads back are at most 25% above the
// true ones (whole octaves read 64 for a p99 of 40), and observing allocates
// nothing.
func TestLatHistQuantiles(t *testing.T) {
	for _, run := range [][2]uint64{{1, 1000}, {20, 40}, {300, 5000}, {90, 130}} {
		var h latHist
		for us := run[0]; us <= run[1]; us++ {
			h.observe(time.Duration(us) * time.Microsecond)
		}
		for _, q := range []float64{0.50, 0.99} {
			exact := float64(run[0] + uint64(q*float64(run[1]-run[0]+1)))
			if got := h.quantile(q); got < exact || got > 1.25*exact {
				t.Errorf("samples %d..%dµs: p%.0f reads %.0f, exact %.0f", run[0], run[1], 100*q, got, exact)
			}
		}
	}
	var h latHist
	if n := testing.AllocsPerRun(100, func() { h.observe(37 * time.Microsecond) }); n != 0 {
		t.Errorf("observe allocates %.0f times", n)
	}
}

// TestTakeLockedFairness pins the round-robin admission composition: one
// request per connection per pass, so a connection with a deep queue
// cannot crowd its neighbours out of a window.
func TestTakeLockedFairness(t *testing.T) {
	s := New(Config{Procs: 1, Batch: 4, QueueDepth: 64, Gated: true})
	defer s.Close()

	c1 := &conn{s: s, id: 1, proc: 0}
	c2 := &conn{s: s, id: 2, proc: 0}
	s.mu.Lock()
	s.procConns[0] = []*conn{c1, c2}
	for i := 0; i < 10; i++ {
		c1.q = append(c1.q, pendingReq{c: c1, req: Request{Op: OpGet, ReqID: uint64(100 + i), Key: 1}, enq: time.Now()})
	}
	for i := 0; i < 3; i++ {
		c2.q = append(c2.q, pendingReq{c: c2, req: Request{Op: OpGet, ReqID: uint64(200 + i), Key: 1}, enq: time.Now()})
	}

	batch := s.takeLocked(0)
	if len(batch) != 4 {
		s.mu.Unlock()
		t.Fatalf("window drained %d requests, want 4", len(batch))
	}
	// Depth-major round robin: c1[0], c2[0], c1[1], c2[1].
	want := []uint64{100, 200, 101, 201}
	for i, pr := range batch {
		if pr.req.ReqID != want[i] {
			s.mu.Unlock()
			t.Fatalf("slot %d admitted request %d, want %d", i, pr.req.ReqID, want[i])
		}
	}
	if len(c1.q) != 8 || len(c2.q) != 1 {
		s.mu.Unlock()
		t.Fatalf("residual queues %d/%d, want 8/1", len(c1.q), len(c2.q))
	}

	// The cursor rotates: the next window opens its first pass at c2.
	batch = s.takeLocked(0)
	if got := batch[0].req.ReqID; got != 202 {
		s.mu.Unlock()
		t.Fatalf("second window opened with request %d, want 202 (cursor rotation)", got)
	}
	// c2 is drained after its last request; the remainder comes from c1.
	if len(batch) != 4 || batch[1].req.ReqID != 102 || batch[3].req.ReqID != 104 {
		s.mu.Unlock()
		t.Fatalf("second window = %v, want [202 102 103 104]", reqIDs(batch))
	}
	if pm := s.procM[0]; pm.Windows != 2 || pm.Admitted != 8 || pm.BatchFill[4] != 2 {
		s.mu.Unlock()
		t.Fatalf("proc stats windows=%d admitted=%d fill[4]=%d, want 2/8/2", pm.Windows, pm.Admitted, pm.BatchFill[4])
	}
	// Detach the synthetic conns (no sockets) before Close tears down.
	s.procConns[0] = nil
	s.mu.Unlock()
}

func reqIDs(batch []pendingReq) []uint64 {
	ids := make([]uint64, len(batch))
	for i, pr := range batch {
		ids[i] = pr.req.ReqID
	}
	return ids
}
