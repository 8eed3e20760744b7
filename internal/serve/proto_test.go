package serve_test

import (
	"io"
	"testing"

	"repro/internal/serve"
)

// sliceReader serves b once, without allocating.
type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestCodecZeroAllocs pins the serve path's codec at zero Go allocations
// per frame in steady state: append-encoding a request and a reply into a
// caller-owned buffer, and reading both back through a FrameReader and
// decoding them, allocate nothing. (A stats reply's Body is the one
// deliberate copy; fixed-size replies carry none.)
func TestCodecZeroAllocs(t *testing.T) {
	req := serve.Request{Op: serve.OpMove, ReqID: 1<<24 | 7, Key: 5, Key2: 9, Ack: 1<<24 | 6}
	rep := serve.Reply{Status: serve.StOK, ReqID: req.ReqID, Val: 3}
	var src sliceReader
	fr := serve.NewFrameReader(&src)
	buf := make([]byte, 0, 128)
	var bad string
	n := testing.AllocsPerRun(100, func() {
		buf = serve.AppendReply(serve.AppendRequest(buf[:0], req), rep)
		src.b = buf
		payload, err := fr.Next()
		if err != nil {
			bad = "request frame: " + err.Error()
			return
		}
		if got, err := serve.DecodeRequest(payload); err != nil || got != req {
			bad = "request did not round-trip"
		}
		if payload, err = fr.Next(); err != nil {
			bad = "reply frame: " + err.Error()
			return
		}
		if got, err := serve.DecodeReply(payload); err != nil || got.ReqID != rep.ReqID || got.Val != rep.Val || got.Body != nil {
			bad = "reply did not round-trip"
		}
	})
	if bad != "" {
		t.Fatal(bad)
	}
	if n != 0 {
		t.Fatalf("append-encode + buffered decode of a request and a reply: %.1f allocations, want 0", n)
	}
}
