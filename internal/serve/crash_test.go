package serve_test

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/serve/chaos"
	"repro/internal/serve/client"
)

// pipeReq is one request of a fixed pipeline and, where the table pins it,
// the value its reply carries in a crash-free run.
type pipeReq struct {
	op        byte
	reqID     uint64
	key, key2 uint64
	want      uint64
}

func (r pipeReq) request() serve.Request {
	return serve.Request{Op: r.op, ReqID: r.reqID, Key: r.key, Key2: r.key2}
}

// The sweep's fixed window: six requests on one connection, small enough
// to admit as a single ApplyWindow (Batch=8) so the access sequence is
// deterministic, with responses that exercise both boolean outcomes.
var sweepReqs = []pipeReq{
	{serve.OpPut, 101, 1, 0, 1},
	{serve.OpPut, 102, 2, 0, 1},
	{serve.OpPut, 103, 1, 0, 0},
	{serve.OpDel, 104, 1, 0, 1},
	{serve.OpGet, 105, 1, 0, 0},
	{serve.OpPut, 106, 3, 0, 1},
}

var sweepKeys = map[uint64]bool{2: true, 3: true}

func sweepConfig(eng repro.EngineKind) serve.Config {
	return serve.Config{
		Procs: 2, Shards: 4, Batch: 8, QueueDepth: 16,
		CrashSim: true, HeapWords: 1 << 16, Engine: eng, Gated: true,
	}
}

var sweepEngines = []struct {
	name string
	kind repro.EngineKind
}{{"isb", repro.EngineIsb}, {"isb-opt", repro.EngineIsbOpt}}

func recvReply(t *testing.T, ch <-chan serve.Reply, what string) serve.Reply {
	t.Helper()
	select {
	case rep, ok := <-ch:
		if !ok {
			t.Fatalf("%s: connection died", what)
		}
		return rep
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: no reply", what)
		return serve.Reply{}
	}
}

// countingListener wraps every accepted (server-side) connection in a
// transparent chaos.Conn, whose Writes counter is then the number of
// socket writes the server made on it.
type countingListener struct {
	*serve.MemListener
	accepted chan *chaos.Conn
}

func (l countingListener) Accept() (net.Conn, error) {
	nc, err := l.MemListener.Accept()
	if err != nil {
		return nil, err
	}
	cc := chaos.NewConn(nc, chaos.Plan{})
	l.accepted <- cc
	return cc, nil
}

// instance is one run of a fixed pipeline on a fresh gated server: the
// server (still open; the caller closes it), the client, the server side
// of its connection, the reply values in table order, and the psyncs and
// heap accesses between opening the gate and the last reply.
type instance struct {
	s           *serve.Server
	c           *client.Client
	srvSide     *chaos.Conn
	vals        []uint64
	syncs, span uint64
}

// gatedInstance queues reqs, pipelined on one connection, on a fresh gated
// server, opens the gate — with a crash scheduled off accesses in, if
// off > 0 — and collects the replies. The gate fixes the queue contents,
// so the admission sequence (MOVE admits alone) and with it the access
// sequence are deterministic.
func gatedInstance(t *testing.T, cfg serve.Config, reqs []pipeReq, off uint64) *instance {
	t.Helper()
	in := &instance{s: serve.New(cfg)}
	ln := countingListener{serve.NewMemListener(), make(chan *chaos.Conn, 1)}
	go in.s.Serve(ln)
	t.Cleanup(in.s.Close)
	in.c = dial(t, ln.MemListener, 1)
	in.srvSide = <-ln.accepted

	chs := make([]<-chan serve.Reply, len(reqs))
	for i, r := range reqs {
		ch, err := in.c.Send(r.request())
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		chs[i] = ch
	}
	for in.s.Snapshot().Queued < uint64(len(reqs)) {
		runtime.Gosched()
	}
	heap := in.s.Runtime().Heap()
	syncs0, acc0 := heap.TotalStats().Syncs, heap.AccessCount()
	if off > 0 {
		in.s.Runtime().ScheduleCrash(off)
	}
	in.s.Release()

	in.vals = make([]uint64, len(reqs))
	for i, ch := range chs {
		rep := recvReply(t, ch, "pipeline reply")
		if rep.Status != serve.StOK || rep.ReqID != reqs[i].reqID {
			t.Fatalf("request %d: status %d reqID %d, want OK/%d", i, rep.Status, rep.ReqID, reqs[i].reqID)
		}
		in.vals[i] = rep.Val
	}
	in.syncs, in.span = heap.TotalStats().Syncs-syncs0, heap.AccessCount()-acc0
	return in
}

// crashSweep is the one loop under the serve crash sweeps. A crash-free
// reference run of the pipeline fixes the replies and the access span;
// then each offset that offsets names from the span gets a fresh gated
// server running the same pipeline with a crash scheduled there, which
// must crash exactly once and answer exactly as the reference did.
// reference and check add each test's own assertions.
func crashSweep(t *testing.T, cfg serve.Config, reqs []pipeReq, offsets func(span uint64) []uint64,
	reference func(ref *instance), check func(label string, in *instance)) {
	t.Helper()
	ref := gatedInstance(t, cfg, reqs, 0)
	if got := ref.s.Crashes(); got != 0 {
		t.Fatalf("reference run crashed %d times", got)
	}
	reference(ref)
	ref.s.Close()
	if ref.span == 0 {
		t.Fatal("reference run performed no tracked accesses")
	}
	offs := offsets(ref.span)
	t.Logf("sweeping %d of %d access offsets", len(offs), ref.span)
	for _, off := range offs {
		in := gatedInstance(t, cfg, reqs, off)
		label := fmt.Sprintf("offset %d", off)
		for i := range ref.vals {
			if in.vals[i] != ref.vals[i] {
				t.Fatalf("%s: request %d (id %d) answered %d, want %d", label, i, reqs[i].reqID, in.vals[i], ref.vals[i])
			}
		}
		if got := in.s.Crashes(); got != 1 {
			t.Fatalf("%s: %d crashes, want exactly 1", label, got)
		}
		check(label, in)
		in.s.Close()
	}
}

// everyOffset walks the whole span.
func everyOffset(span uint64) []uint64 {
	offs := make([]uint64, span)
	for i := range offs {
		offs[i] = uint64(i + 1)
	}
	return offs
}

// checkPipelineState requires the table's reply values and exactly the
// crash-free keys in the store.
func checkPipelineState(t *testing.T, in *instance, reqs []pipeReq, keys map[uint64]bool, label string) {
	t.Helper()
	for i, r := range reqs {
		if in.vals[i] != r.want {
			t.Fatalf("%s: request %d (id %d) answered %d, want %d", label, i, r.reqID, in.vals[i], r.want)
		}
	}
	got := in.s.Store().Keys()
	if len(got) != len(keys) {
		t.Fatalf("%s: store holds %v, want keys of %v", label, got, keys)
	}
	for _, k := range got {
		if !keys[k] {
			t.Fatalf("%s: store holds stray key %d", label, k)
		}
	}
}

// TestServeCrashSweep kills and reboots the store at EVERY access offset
// of the serve path's admission window, for both engine placements. At
// each offset the client must observe exactly the crash-free responses,
// the recovered store must hold exactly the crash-free keys, and a
// duplicate resubmit must be answered from the response table without
// perturbing either.
func TestServeCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is exhaustive; skipped in -short")
	}
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			crashSweep(t, sweepConfig(eng.kind), sweepReqs, everyOffset,
				func(ref *instance) { checkPipelineState(t, ref, sweepReqs, sweepKeys, "reference") },
				func(label string, in *instance) {
					checkPipelineState(t, in, sweepReqs, sweepKeys, label)
					// Duplicate resubmits: one whose re-execution would flip
					// the answer (106: key 3 now present) and one whose
					// re-execution would corrupt the store (104: deleting the
					// re-inserted key 1... which must not exist to re-delete).
					for _, i := range []int{5, 3} {
						r := sweepReqs[i]
						rep, err := in.c.DoWithID(r.op, r.reqID, r.key)
						if err != nil || rep.Val != r.want {
							t.Fatalf("%s: resubmit of id %d answered %d (err %v), want recorded %d",
								label, r.reqID, rep.Val, err, r.want)
						}
					}
					checkPipelineState(t, in, sweepReqs, sweepKeys, label+" after resubmit")
					if st := in.s.Snapshot(); st.Deduped != 2 {
						t.Fatalf("%s: deduped = %d, want 2", label, st.Deduped)
					}
				})
		})
	}
}

// TestServeExactlyOnceResubmit is the dedicated exactly-once pin: after a
// mid-window crash, every request ID is resubmitted twice and must be
// answered from the response table — identical responses, store
// untouched, no re-execution.
func TestServeExactlyOnceResubmit(t *testing.T) {
	// A handful of offsets spread across the span (the full sweep lives
	// in TestServeCrashSweep).
	spread := func(span uint64) (offs []uint64) {
		for _, off := range []uint64{1, span / 4, span / 2, 3 * span / 4, span} {
			if off > 0 {
				offs = append(offs, off)
			}
		}
		return offs
	}
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			crashSweep(t, sweepConfig(eng.kind), sweepReqs, spread,
				func(ref *instance) { checkPipelineState(t, ref, sweepReqs, sweepKeys, "reference") },
				func(label string, in *instance) {
					checkPipelineState(t, in, sweepReqs, sweepKeys, label)
					for round := 0; round < 2; round++ {
						for _, r := range sweepReqs {
							rep, err := in.c.DoWithID(r.op, r.reqID, r.key)
							if err != nil || rep.Val != r.want {
								t.Fatalf("%s: resubmit round %d of id %d answered %d (err %v), want %d",
									label, round, r.reqID, rep.Val, err, r.want)
							}
						}
					}
					checkPipelineState(t, in, sweepReqs, sweepKeys, label+" after resubmits")
					st := in.s.Snapshot()
					if st.Deduped != uint64(2*len(sweepReqs)) {
						t.Fatalf("%s: deduped = %d, want %d", label, st.Deduped, 2*len(sweepReqs))
					}
					// Every reply past the crash-free prefix was either served
					// from the report or re-executed as provably-no-effect;
					// either way the admission counters stay exact.
					if st.Queued != uint64(len(sweepReqs)) {
						t.Fatalf("%s: queued = %d, want %d (resubmits must not re-enqueue)", label, st.Queued, len(sweepReqs))
					}
				})
		})
	}
}
