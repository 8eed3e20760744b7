package chaos_test

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/crash"
	"repro/internal/serve"
	"repro/internal/serve/chaos"
	"repro/internal/serve/client"
)

// The wire sweep is the serve layer's flagship conformance test: a fixed
// workload is driven through a redialing client whose FIRST connection is
// killed at EVERY byte offset of every frame in both directions —
// optionally composed with a mid-workload server crash — and each run
// must produce the fault-free responses, leave the store in the fault-free
// final state, and admit every request exactly once (zero duplicate
// executions). It runs on crash.Sweep with byte offsets as the fault
// index: detectability extended over torn frames and dropped connections.

// wireOp is one workload step; moves carry key2 and answer
// deleted | inserted<<1.
type wireOp struct {
	op        byte
	key, key2 uint64
	want      uint64
}

// wireOps exercises every op kind, including a MOVE transaction and
// membership flips whose answers a duplicated execution would falsify.
var wireOps = []wireOp{
	{serve.OpPut, 5, 0, 1},
	{serve.OpPut, 6, 0, 1},
	{serve.OpGet, 5, 0, 1},
	{serve.OpMove, 5, 7, 3},
	{serve.OpDel, 6, 0, 1},
	{serve.OpPut, 8, 0, 1},
	{serve.OpGet, 6, 0, 0},
	{serve.OpGet, 7, 0, 1},
}

// wireKeys is the store the workload leaves.
var wireKeys = []uint64{7, 8}

func wireConfig(eng repro.EngineKind, crashSim bool) serve.Config {
	return serve.Config{
		Procs: 2, Batch: 4, HeapWords: 1 << 16,
		Engine: eng, CrashSim: crashSim,
	}
}

// wireInstance is one run of the workload on a fresh server through a
// redialing client. Its first connection carries the fault plan — a cut of
// the client's read stream, or else of its write stream, at the byte the
// sweep picks — and every redial is clean. crashAt > 0 arms one server crash
// that many heap accesses into the workload, which the server recovers from
// itself. Run ends with client and server closed, so the audit reads a
// quiescent store.
func wireInstance(eng repro.EngineKind, crashSim bool, crashAt uint64, read bool) crash.Instance {
	srv := serve.New(wireConfig(eng, crashSim))
	ln := serve.NewMemListener()
	go srv.Serve(ln)
	var (
		plan     chaos.Plan
		first    *chaos.Conn
		admitted uint64
		keys     []uint64
		crashes  int
	)
	dial := func() (net.Conn, error) {
		nc, err := ln.Dial()
		if err != nil || first != nil {
			return nc, err
		}
		first = chaos.NewConn(nc, plan)
		return first, nil
	}
	return crash.Instance{
		Heap: srv.Runtime().Heap(),
		Prepare: func() {
			if crashAt > 0 {
				srv.Runtime().ScheduleCrash(crashAt)
			}
		},
		Run: func() ([]uint64, error) {
			s, err := client.DialSession(client.SessionConfig{ClientID: 1, Dial: dial, RequestTimeout: 5 * time.Second})
			if err != nil {
				return nil, fmt.Errorf("dial session: %v", err)
			}
			defer s.Close()
			vals := make([]uint64, len(wireOps))
			for i, op := range wireOps {
				if op.op == serve.OpMove {
					del, ins, err := s.Move(op.key, op.key2)
					if err != nil {
						return nil, fmt.Errorf("step %d move(%d,%d): %v", i, op.key, op.key2, err)
					}
					if del {
						vals[i] |= 1
					}
					if ins {
						vals[i] |= 2
					}
					continue
				}
				rep, err := s.Do(op.op, op.key)
				if err != nil {
					return nil, fmt.Errorf("step %d op %d(%d): %v", i, op.op, op.key, err)
				}
				vals[i] = rep.Val
			}
			admitted = srv.Snapshot().Admitted
			s.Close()
			srv.Close() // quiesce (joining any in-progress recovery) before the audit
			keys, crashes = srv.Store().Keys(), srv.Crashes()
			return vals, nil
		},
		Verify: func() string {
			if admitted != uint64(len(wireOps)) || !slices.Equal(keys, wireKeys) {
				return fmt.Sprintf("%d admissions for %d requests (duplicate or lost execution); store holds %v, want %v",
					admitted, len(wireOps), keys, wireKeys)
			}
			if crashes > 1 || (crashes == 1) != (crashAt > 0) {
				return fmt.Sprintf("the server crashed %d times with a crash armed at access %d", crashes, crashAt)
			}
			return ""
		},
		Kill: func(off uint64) func() uint64 {
			if read {
				plan.KillReadAt = off
				return func() uint64 { return first.BytesRead() }
			}
			plan.KillWriteAt = off
			return func() uint64 { return first.BytesWritten() }
		},
		Close: srv.Close,
	}
}

// midWorkload is the heap access halfway through the workload's crash-free
// run on a crash-simulating server: where the crash cells compose their
// server crash.
func midWorkload(t *testing.T, eng repro.EngineKind) uint64 {
	in := wireInstance(eng, true, 0, false)
	start := in.Heap.AccessCount()
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	return (in.Heap.AccessCount() - start) / 2
}

// TestWireSweep kills the first connection at every byte offset of the
// workload's write and read streams, for both engines, with and without a
// composed mid-workload server crash. Every instance must be
// indistinguishable — responses, final store, admission count — from the
// fault-free run.
func TestWireSweep(t *testing.T) {
	for _, eng := range []repro.EngineKind{repro.EngineIsb, repro.EngineIsbOpt} {
		for _, withCrash := range []bool{false, true} {
			t.Run(fmt.Sprintf("engine=%d/crash=%v", eng, withCrash), func(t *testing.T) {
				t.Parallel()
				var crashAt uint64
				if withCrash {
					crashAt = midWorkload(t, eng)
				}
				for _, stream := range []string{"kill-write", "kill-read"} {
					t.Run(stream, func(t *testing.T) {
						crash.SweepTest(t, func() crash.Instance {
							return wireInstance(eng, withCrash, crashAt, stream == "kill-read")
						}, wireWant())
					})
				}
			})
		}
	}
}

// wireWant is the workload's reply column.
func wireWant() []uint64 {
	out := make([]uint64, len(wireOps))
	for i, op := range wireOps {
		out[i] = op.want
	}
	return out
}
