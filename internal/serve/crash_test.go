package serve_test

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/crash"
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

// wants is the table's reply column.
func wants(reqs []pipeReq) []uint64 {
	out := make([]uint64, len(reqs))
	for i, r := range reqs {
		out[i] = r.want
	}
	return out
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

var sweepKeys = []uint64{2, 3}

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

// await takes one reply off ch.
func await(ch <-chan serve.Reply) (serve.Reply, error) {
	select {
	case rep, ok := <-ch:
		if !ok {
			return rep, errors.New("connection died")
		}
		return rep, nil
	case <-time.After(20 * time.Second):
		return serve.Reply{}, errors.New("no reply")
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

// pipeline is a fixed pipeline queued on a fresh gated server: the server,
// the client, the server side of its connection, and the channels the
// replies will arrive on.
type pipeline struct {
	s       *serve.Server
	c       *client.Client
	srvSide *chaos.Conn
	reqs    []pipeReq
	replies []<-chan serve.Reply
}

// newPipeline sends reqs, pipelined on one connection, to a fresh gated
// server and waits until all of them are queued. The gate fixes the queue
// contents, so the admission sequence (MOVE admits alone) and with it the
// access sequence are deterministic.
func newPipeline(t *testing.T, cfg serve.Config, reqs []pipeReq) *pipeline {
	t.Helper()
	p := &pipeline{s: serve.New(cfg), reqs: reqs}
	ln := countingListener{serve.NewMemListener(), make(chan *chaos.Conn, 1)}
	go p.s.Serve(ln)
	nc, err := ln.Dial()
	if err != nil {
		p.s.Close()
		t.Fatalf("dial: %v", err)
	}
	p.c = client.New(nc, 1)
	p.srvSide = <-ln.accepted
	for i, r := range reqs {
		ch, err := p.c.Send(r.request())
		if err != nil {
			p.close()
			t.Fatalf("send %d: %v", i, err)
		}
		p.replies = append(p.replies, ch)
	}
	for p.s.Snapshot().Queued < uint64(len(reqs)) {
		runtime.Gosched()
	}
	return p
}

// run opens the gate and collects the reply values in table order.
func (p *pipeline) run() ([]uint64, error) {
	p.s.Release()
	vals := make([]uint64, len(p.reqs))
	for i, ch := range p.replies {
		rep, err := await(ch)
		if err == nil && (rep.Status != serve.StOK || rep.ReqID != p.reqs[i].reqID) {
			err = fmt.Errorf("status %d reqID %d, want OK/%d", rep.Status, rep.ReqID, p.reqs[i].reqID)
		}
		if err != nil {
			return nil, fmt.Errorf("request %d: %v", i, err)
		}
		vals[i] = rep.Val
	}
	return vals, nil
}

func (p *pipeline) close() {
	p.c.Close()
	p.s.Close()
}

// instance is the pipeline as crash.Sweep drives it: the crash the sweep
// arms between queueing and the gate is the server's to recover (it reboots
// the store on its own goroutines), and run still collects every reply.
func (p *pipeline) instance(verify, after func() string) crash.Instance {
	return crash.Instance{Heap: p.s.Runtime().Heap(), Run: p.run, Verify: verify, After: after, Close: p.close}
}

// holds reports "" exactly when the store holds keys and nothing else.
func (p *pipeline) holds(keys []uint64) string {
	if got := p.s.Store().Keys(); !slices.Equal(got, keys) {
		return fmt.Sprintf("store holds %v, want %v", got, keys)
	}
	return ""
}

// resubmitted is the exactly-once pass after a crash: every request of
// again is sent rounds more times under its own ID and must be answered from
// the response table with its recorded value — never re-executed (the store
// check that follows it) and never queued again.
func (p *pipeline) resubmitted(again []pipeReq, rounds int) string {
	for round := range rounds {
		for _, r := range again {
			ch, err := p.c.Send(r.request())
			if err != nil {
				return fmt.Sprintf("resubmit %d of id %d: %v", round, r.reqID, err)
			}
			if rep, err := await(ch); err != nil || rep.Status != serve.StOK || rep.Val != r.want {
				return fmt.Sprintf("resubmit %d of id %d answered status %d val %d (err %v), want OK/%d",
					round, r.reqID, rep.Status, rep.Val, err, r.want)
			}
		}
	}
	if st := p.s.Snapshot(); st.Deduped != uint64(rounds*len(again)) || st.Queued != uint64(len(p.reqs)) {
		return fmt.Sprintf("%d deduped, %d queued; want %d, %d", st.Deduped, st.Queued, rounds*len(again), len(p.reqs))
	}
	return ""
}

// TestServeCrashSweep kills and reboots the store at EVERY access offset
// of the serve path's admission window, for both engine placements. At
// each offset the client must observe exactly the crash-free responses and
// the recovered store must hold exactly the crash-free keys; then every
// request ID is resubmitted twice and must be answered from the response
// table — identical responses, store untouched, no re-execution.
func TestServeCrashSweep(t *testing.T) {
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			crash.SweepTest(t, func() crash.Instance {
				p := newPipeline(t, sweepConfig(eng.kind), sweepReqs)
				return p.instance(func() string { return p.holds(sweepKeys) },
					func() string { return p.resubmitted(sweepReqs, 2) })
			}, wants(sweepReqs))
		})
	}
}

// TestServeExactlyOnceResubmit pins exactly-once on the crash-free path,
// where the response table is filled by completion rather than by a
// recovery report — the one run of the window that TestServeCrashSweep's
// After pass never resubmits. Every request ID is resubmitted twice and
// must be answered from the table: identical responses, store untouched,
// nothing queued again.
func TestServeExactlyOnceResubmit(t *testing.T) {
	for _, eng := range sweepEngines {
		t.Run(eng.name, func(t *testing.T) {
			p := newPipeline(t, sweepConfig(eng.kind), sweepReqs)
			defer p.close()
			vals, err := p.run()
			if err != nil {
				t.Fatal(err)
			}
			if want := wants(sweepReqs); !slices.Equal(vals, want) {
				t.Fatalf("responses %v, want %v", vals, want)
			}
			if msg := p.holds(sweepKeys); msg != "" {
				t.Fatal(msg)
			}
			if msg := p.resubmitted(sweepReqs, 2); msg != "" {
				t.Fatal(msg)
			}
			if msg := p.holds(sweepKeys); msg != "" {
				t.Fatalf("after resubmits: %s", msg)
			}
			if got := p.s.Crashes(); got != 0 {
				t.Fatalf("%d crashes, want 0", got)
			}
		})
	}
}
