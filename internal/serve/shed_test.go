package serve_test

import (
	"testing"
	"time"

	"repro/internal/serve"
)

// TestServeShedWatermark pins the OVERLOAD protocol: with the workers
// gated, enqueues past the aggregate watermark are answered StShed (not
// StRetry, not queued), nothing is recorded for a shed ID, and after the
// gate opens the same ID resubmits and executes normally.
func TestServeShedWatermark(t *testing.T) {
	srv, ln := startServer(t, serve.Config{
		Procs: 1, Batch: 4, QueueDepth: 4, HeapWords: 1 << 18,
		Gated: true, ShedWatermark: 0.5,
	})
	c := dial(t, ln, 1)

	// With one connection and QueueDepth 4, the shed threshold is
	// totalQueued >= 2. Pipeline two enqueues, then a third: it must shed.
	id1, id2, id3 := c.NextID(), c.NextID(), c.NextID()
	ch1, err1 := c.Send(serve.Request{Op: serve.OpPut, ReqID: id1, Key: 11})
	ch2, err2 := c.Send(serve.Request{Op: serve.OpPut, ReqID: id2, Key: 12})
	if err1 != nil || err2 != nil {
		t.Fatalf("sends: %v, %v", err1, err2)
	}
	// The first two are queued asynchronously; wait until the server
	// really holds both before probing the watermark.
	deadline := time.After(5 * time.Second)
	for srv.Snapshot().Queued < 2 {
		select {
		case <-deadline:
			t.Fatal("enqueues never landed")
		case <-time.After(time.Millisecond):
		}
	}
	ch3, err := c.Send(serve.Request{Op: serve.OpPut, ReqID: id3, Key: 13})
	if err != nil {
		t.Fatalf("send 3: %v", err)
	}
	rep := <-ch3
	if rep.Status != serve.StShed {
		t.Fatalf("third enqueue = status %d, want StShed", rep.Status)
	}
	if got := srv.Snapshot().Sheds; got == 0 {
		t.Fatalf("Sheds = %d, want > 0", got)
	}

	srv.Release()
	if rep := <-ch1; rep.Status != serve.StOK || rep.Val != 1 {
		t.Fatalf("queued put 1 = %+v", rep)
	}
	if rep := <-ch2; rep.Status != serve.StOK || rep.Val != 1 {
		t.Fatalf("queued put 2 = %+v", rep)
	}
	// The shed ID stayed fresh: resubmitting it executes (fresh insert),
	// not a table replay of some bounced state.
	rep, err = c.DoWithID(serve.OpPut, id3, 13)
	if err != nil || rep.Val != 1 {
		t.Fatalf("resubmitted shed ID = %+v, %v; want fresh insert", rep, err)
	}
}

// TestServeShedDisabledByDefault pins that a zero watermark never sheds:
// the queue-full path still answers RETRY exactly as before.
func TestServeShedDisabledByDefault(t *testing.T) {
	srv, ln := startServer(t, serve.Config{
		Procs: 1, Batch: 4, QueueDepth: 2, HeapWords: 1 << 18, Gated: true,
	})
	c := dial(t, ln, 1)
	var chs []<-chan serve.Reply
	for i := 0; i < 2; i++ {
		ch, err := c.Send(serve.Request{Op: serve.OpPut, ReqID: c.NextID(), Key: uint64(21 + i)})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		chs = append(chs, ch)
	}
	deadline := time.After(5 * time.Second)
	for srv.Snapshot().Queued < 2 {
		select {
		case <-deadline:
			t.Fatal("enqueues never landed")
		case <-time.After(time.Millisecond):
		}
	}
	ch, err := c.Send(serve.Request{Op: serve.OpPut, ReqID: c.NextID(), Key: 23})
	if err != nil {
		t.Fatalf("overflow send: %v", err)
	}
	if rep := <-ch; rep.Status != serve.StRetry {
		t.Fatalf("overflow with no watermark = status %d, want StRetry", rep.Status)
	}
	srv.Release()
	for _, ch := range chs {
		<-ch
	}
}

// TestServeIdleTimeout pins the idle reaper: a connection that goes quiet
// past Config.IdleTimeout is disconnected (and counted), while its
// exactly-once table entries survive for a reconnecting client.
func TestServeIdleTimeout(t *testing.T) {
	srv, ln := startServer(t, serve.Config{
		Procs: 1, Batch: 4, HeapWords: 1 << 18, IdleTimeout: 50 * time.Millisecond,
	})
	nc, err := ln.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	id := uint64(1)<<24 | 1 // client 1, seq 1
	if err := serve.WriteFrame(nc, serve.EncodeRequest(serve.Request{Op: serve.OpPut, ReqID: id, Key: 31})); err != nil {
		t.Fatalf("write: %v", err)
	}
	payload, err := serve.ReadFrame(nc)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	rep, err := serve.DecodeReply(payload)
	if err != nil || rep.Status != serve.StOK || rep.Val != 1 {
		t.Fatalf("put reply = %+v, %v", rep, err)
	}

	// Go quiet: the server must hang up on us.
	if _, err := serve.ReadFrame(nc); err == nil {
		t.Fatal("idle connection was never closed")
	}
	snap := srv.Snapshot()
	if snap.IdleClosed == 0 || snap.Disconnects == 0 {
		t.Fatalf("idle close not counted: %+v", snap)
	}

	// A reconnect replays the answered ID from the table — the idle close
	// evicted the connection, not the exactly-once state.
	c := dial(t, ln, 1)
	rep, err = c.DoWithID(serve.OpPut, id, 31)
	if err != nil || rep.Val != 1 {
		t.Fatalf("resubmit after idle close = %+v, %v; want table replay of fresh-insert", rep, err)
	}
	if srv.Snapshot().Deduped == 0 {
		t.Fatal("resubmitted ID was re-executed, not deduped")
	}
}
