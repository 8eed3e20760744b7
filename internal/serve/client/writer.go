package client

import (
	"io"
	"sync"

	"repro/internal/serve"
)

// frameWriter combines the request frames of concurrent callers into
// shared socket Writes. A caller appends its encoded frame to the open
// batch under the lock; the first caller to find no flush in progress
// writes the whole batch with one Write, the callers that queued behind it
// wait for that Write's result, and frames that arrive meanwhile form the
// next batch, which one of their own callers writes as soon as the flush
// ends. There is no timer: a lone caller writes at once, so depth-1 latency
// is a plain Write's, and a caller never writes a batch that does not carry
// its own frame. Frames leave in the order callers appended them.
//
// A failed Write tears the byte stream, so it is terminal: it fails every
// call whose frame was in the batch, every call queued behind it, and every
// later call.
type frameWriter struct {
	w io.Writer

	mu sync.Mutex
	// conds[k&1] (on mu) parks batch k's callers; at most two batches —
	// the one in flight and the open one — exist at a time.
	conds      [2]sync.Cond
	buf, spare []byte // the open batch, and the buffer it swaps with
	// flushed counts the batches finished, written or failed; it is the
	// number of the batch in flight if flushing, else of the open batch.
	flushed  uint64
	flushing bool
	err      error  // the first failed Write
	failed   uint64 // the batch that Write carried
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{w: w}
	fw.conds[0].L, fw.conds[1].L = &fw.mu, &fw.mu
	return fw
}

// send writes req's frame and returns once the Write that carried it has
// completed, with that Write's error.
func (fw *frameWriter) send(req serve.Request) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.err != nil {
		return fw.err
	}
	fw.buf = serve.AppendRequest(fw.buf, req)
	k := fw.flushed // the open batch's number
	if fw.flushing {
		k++
	}
	for fw.flushing {
		fw.conds[k&1].Wait()
		if fw.flushed > k {
			if fw.err != nil && k >= fw.failed {
				return fw.err
			}
			return nil
		}
	}
	// No flush in progress, so batch k is still the open one: write it.
	out := fw.buf
	fw.buf, fw.flushing = fw.spare[:0], true
	fw.mu.Unlock()
	_, err := fw.w.Write(out)
	fw.mu.Lock()
	fw.spare, fw.flushing, fw.flushed = out[:0], false, k+1
	fw.conds[k&1].Broadcast()
	if err != nil {
		// Fail batch k and whatever queued behind it.
		fw.err, fw.failed = err, k
		fw.buf, fw.flushed = fw.buf[:0], k+2
		fw.conds[(k+1)&1].Broadcast()
	} else if len(fw.buf) > 0 {
		fw.conds[(k+1)&1].Signal() // promote one queued caller to flusher
	}
	return err
}
