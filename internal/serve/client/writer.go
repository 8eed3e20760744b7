package client

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/serve"
)

// writeCounts counts the successful socket Writes of every connection a
// Client has had, and the request frames they carried.
type writeCounts struct {
	writes, frames atomic.Uint64
}

// frameWriter combines the request frames of concurrent callers into
// shared socket Writes. A caller appends its encoded frame to the open
// batch under the lock. The first caller to find the batch without a
// flusher becomes its flusher; the callers that append behind it wait for
// the Write's result, and frames that arrive while the Write runs form the
// next batch, which one of their own callers flushes as soon as that Write
// ends. A caller never writes a batch that does not carry its own frame,
// and frames leave in the order callers appended them.
//
// The unit the flusher writes is the reply burst, not the request. Replies
// arrive a window at a time, so one read on the connection wakes many
// callers at once, and each sends its next request. A flusher that wrote
// immediately would hold its processor through the Write while the callers
// woken with it had yet to run, and every one of them would then write a
// frame of its own. So a flusher whose caller saw other calls of the
// connection in flight (gather) first claims the batch — arrivals join it
// instead of starting the next — yields the processor once, and only then
// swaps the buffer out and writes what the burst's other callers appended
// meanwhile. The wait is bounded by that one runtime.Gosched: there is no
// timer and no sleep, and with nothing else runnable the yield returns at
// once. A lone caller (nothing else in flight) never yields: it writes at
// once, so depth-1 latency is a plain Write's.
//
// A failed Write tears the byte stream, so it is terminal: it fails every
// call whose frame was in the batch, every call queued behind it, and every
// later call.
type frameWriter struct {
	w      io.Writer
	counts *writeCounts
	// yield is the flusher's one wait for its burst: runtime.Gosched, except
	// in the test that plays the burst's arrivals itself.
	yield func()

	mu sync.Mutex
	// conds[k&1] (on mu) parks batch k's callers; at most two batches —
	// the one being written and the open one — exist at a time.
	conds      [2]sync.Cond
	buf, spare []byte // the open batch, and the buffer it swaps with
	frames     uint64 // frames in buf
	// flushed counts the batches finished, written or failed. It is the
	// number of the open batch, or while a Write runs (state fwWriting) of
	// the batch in it, the open batch being the next.
	flushed uint64
	state   fwState
	err     error  // the first failed Write
	failed  uint64 // the batch that Write carried
}

// fwState says what the flusher, if there is one, is doing.
type fwState uint8

const (
	fwIdle      fwState = iota // no flusher: the open batch is the next appender's
	fwGathering                // the open batch has a flusher, which has yielded for the burst
	fwWriting                  // the flusher's batch is swapped out and in a Write
)

func newFrameWriter(w io.Writer, counts *writeCounts) *frameWriter {
	fw := &frameWriter{w: w, counts: counts, yield: runtime.Gosched}
	fw.conds[0].L, fw.conds[1].L = &fw.mu, &fw.mu
	return fw
}

// send writes req's frame and returns once the Write that carried it has
// completed, with that Write's error. gather reports that other calls of
// the connection are in flight, so a reply burst may be about to bring their
// next requests.
func (fw *frameWriter) send(req serve.Request, gather bool) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err != nil {
		return fw.err
	}
	fw.buf = serve.AppendRequest(fw.buf, req)
	fw.frames++
	k := fw.flushed // the open batch's number
	if fw.state == fwWriting {
		k++
	}
	for fw.state != fwIdle {
		fw.conds[k&1].Wait()
		if fw.flushed > k {
			if fw.err != nil && k >= fw.failed {
				return fw.err
			}
			return nil
		}
	}
	// No flusher, so batch k is still the open one: flush it.
	if gather {
		fw.state = fwGathering
		fw.mu.Unlock()
		fw.yield()
		fw.mu.Lock()
	}
	out, n := fw.buf, fw.frames
	fw.buf, fw.frames, fw.state = fw.spare[:0], 0, fwWriting
	fw.mu.Unlock()
	_, err := fw.w.Write(out)
	fw.mu.Lock()
	fw.spare, fw.state, fw.flushed = out[:0], fwIdle, k+1
	fw.conds[k&1].Broadcast()
	if err != nil {
		// Fail batch k and whatever queued behind it.
		fw.err, fw.failed = err, k
		fw.buf, fw.frames, fw.flushed = fw.buf[:0], 0, k+2
		fw.conds[(k+1)&1].Broadcast()
		return err
	}
	fw.counts.writes.Add(1)
	fw.counts.frames.Add(n)
	if len(fw.buf) > 0 {
		fw.conds[(k+1)&1].Signal() // promote one queued caller to flusher
	}
	return nil
}
