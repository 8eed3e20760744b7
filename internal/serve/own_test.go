package serve_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// reqID is client's request ID with sequence number seq.
func reqID(client, seq uint64) uint64 { return client<<serve.SeqBits | seq }

// procAdmitted reads how many requests each Proc has admitted.
func procAdmitted(s *serve.Server) []uint64 {
	var out []uint64
	for _, p := range s.Snapshot().Procs {
		out = append(out, p.Admitted)
	}
	return out
}

// TestServeRoutesByClient pins request ownership: a request is admitted by
// the Proc that owns its client (client % Procs), so on two Procs client 1
// is served by Proc 1 and client 2 by Proc 0, and client 1 redialing is
// served by Proc 1 again, where its recorded answers are.
func TestServeRoutesByClient(t *testing.T) {
	s, ln := startServer(t, serve.Config{Procs: 2, Batch: 4, HeapWords: 1 << 18})
	steps := []struct {
		client, seq, key uint64
		want             []uint64
	}{
		{1, 1, 10, []uint64{0, 1}},
		{2, 1, 20, []uint64{1, 1}},
		{1, 2, 11, []uint64{1, 2}}, // on a fresh connection of client 1
	}
	for i, st := range steps {
		c := dial(t, ln, st.client)
		if rep, err := c.DoWithID(serve.OpPut, reqID(st.client, st.seq), st.key); err != nil || rep.Val != 1 {
			t.Fatalf("step %d: put = val %d, err %v; want a fresh insert", i, rep.Val, err)
		}
		c.Close()
		if got := procAdmitted(s); !slices.Equal(got, st.want) {
			t.Fatalf("step %d (client %d): Procs admitted %v, want %v", i, st.client, got, st.want)
		}
	}
}

// TestServeRedialMidWindow is the exactly-once guarantee for a resubmit
// that races its original: client 1's request is queued on one connection,
// and the same ID is resubmitted on a second connection of client 1 before
// the original's window finishes — crash-free, and with the window crashed
// partway and answered across the reboot. The owner serves one window at a
// time, so the duplicate waits in its lane and is answered from the
// response table: one admission, two identical answers, one store change.
func TestServeRedialMidWindow(t *testing.T) {
	for _, crashAt := range []uint64{0, 1, 6} {
		t.Run(fmt.Sprintf("crash=%d", crashAt), func(t *testing.T) {
			s, ln := startServer(t, serve.Config{
				Procs: 2, Batch: 4, HeapWords: 1 << 18, Gated: true, CrashSim: crashAt > 0,
			})
			req := serve.Request{Op: serve.OpPut, ReqID: reqID(1, 1), Key: 7}
			var replies []<-chan serve.Reply
			for i := range 2 {
				ch, err := dial(t, ln, 1).Send(req)
				if err != nil {
					t.Fatalf("send on connection %d: %v", i, err)
				}
				replies = append(replies, ch)
				// Both copies wait in client 1's lanes before the gate opens.
				for s.Snapshot().Queued < uint64(i+1) {
					runtime.Gosched()
				}
			}
			if crashAt > 0 {
				s.Runtime().ScheduleCrash(crashAt)
			}
			s.Release()
			for i, ch := range replies {
				if rep, err := await(ch); err != nil || rep.Status != serve.StOK || rep.Val != 1 {
					t.Fatalf("connection %d: reply %+v, err %v; want OK/1 (a re-execution answers 0)", i, rep, err)
				}
			}
			st := s.Snapshot()
			if st.Admitted != 1 || st.Deduped != 1 || st.Procs[1].Admitted != 1 {
				t.Fatalf("admitted %d (Proc 1: %d), deduped %d; want 1, 1, 1", st.Admitted, st.Procs[1].Admitted, st.Deduped)
			}
			if want := min(crashAt, 1); uint64(st.Crashes) != want {
				t.Fatalf("%d crashes, want %d", st.Crashes, want)
			}
			s.Close()
			if got := s.Store().Keys(); !slices.Equal(got, []uint64{7}) {
				t.Fatalf("store holds %v, want [7]", got)
			}
		})
	}
}

// handoffListener's Close hands one connection to the Accept it unblocks:
// a connection that arrives while the server is closing.
type handoffListener struct {
	accepting chan struct{} // closed by the first Accept
	conns     chan net.Conn
	peer      net.Conn // the handed-off connection's client end
	acc, once sync.Once
}

func (l *handoffListener) Accept() (net.Conn, error) {
	l.acc.Do(func() { close(l.accepting) })
	if nc, ok := <-l.conns; ok {
		return nc, nil
	}
	return nil, net.ErrClosed
}

func (l *handoffListener) Close() error {
	l.once.Do(func() {
		srv, peer := net.Pipe()
		l.peer = peer
		l.conns <- srv
		close(l.conns)
	})
	return nil
}

func (l *handoffListener) Addr() net.Addr { return &net.UnixAddr{Name: "handoff", Net: "unix"} }

// TestServeClosesConnAcceptedDuringClose pins that a connection Accept
// returns after Close has begun is closed at once, not served by a reader
// and writer that nothing will ever stop or answer.
func TestServeClosesConnAcceptedDuringClose(t *testing.T) {
	s := serve.New(serve.Config{Procs: 1, HeapWords: 1 << 16})
	ln := &handoffListener{accepting: make(chan struct{}), conns: make(chan net.Conn)}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	<-ln.accepting
	s.Close()
	// Serve registers each accepted connection before it accepts again, so
	// once it returns the handed-off connection has been dealt with.
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	ln.peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := ln.peer.Read(make([]byte, 1)); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("a connection accepted while the server closed is still open")
	}
}
