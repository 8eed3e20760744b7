package serve_test

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/serve"
)

// FuzzProto fuzzes the frame codec: DecodeRequest/DecodeReply must never
// panic on arbitrary bytes and must round-trip exactly through their
// encoders whenever they accept, and ReadFrame must reject or read —
// never panic — whatever the bytes claim about their length prefix. The
// seed corpus doubles as a codec smoke test under plain `go test`.
func FuzzProto(f *testing.F) {
	f.Add([]byte{})
	f.Add(serve.EncodeRequest(serve.Request{Op: serve.OpPut, ReqID: 42, Key: 7}))
	f.Add(serve.EncodeRequest(serve.Request{Op: serve.OpMove, ReqID: 1<<32 - 1, Key: 5, Key2: 9, Ack: 41}))
	f.Add(serve.EncodeReply(serve.Reply{Status: serve.StOK, ReqID: 42, Val: 3}))
	f.Add(serve.EncodeReply(serve.Reply{Status: serve.StErr, ReqID: 1, Val: 0, Body: []byte(`{"x":1}`)}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := serve.DecodeRequest(data); err == nil {
			if enc := serve.EncodeRequest(req); !bytes.Equal(enc, data) {
				t.Fatalf("request round-trip: decode(%x) -> %+v -> encode %x", data, req, enc)
			}
		}
		if rep, err := serve.DecodeReply(data); err == nil {
			if enc := serve.EncodeReply(rep); !bytes.Equal(enc, data) {
				t.Fatalf("reply round-trip: decode(%x) -> %+v -> encode %x", data, rep, enc)
			}
		}
		// ReadFrame on arbitrary bytes: any outcome but a panic, and the
		// buffered FrameReader must reach the same one.
		payload, err := serve.ReadFrame(bytes.NewReader(data))
		buffered, berr := serve.NewFrameReader(bytes.NewReader(data)).Next()
		if (err == nil) != (berr == nil) || (err == nil && !bytes.Equal(payload, buffered)) {
			t.Fatalf("ReadFrame(%x) = %x, %v but FrameReader = %x, %v", data, payload, err, buffered, berr)
		}
		if err == nil {
			// A frame it accepts must re-frame to the same bytes consumed.
			var buf bytes.Buffer
			if werr := serve.WriteFrame(&buf, payload); werr != nil {
				t.Fatalf("WriteFrame rejected a payload ReadFrame produced: %v", werr)
			}
			if got := buf.Bytes(); !bytes.Equal(got, data[:len(got)]) {
				t.Fatalf("frame round-trip: read %x from %x, rewrote %x", payload, data, got)
			}
		}
	})
}

// FuzzFrameStream fuzzes ReadFrame and the buffered FrameReader over torn
// and interleaved frame boundaries: a stream of valid frames truncated at
// an arbitrary byte offset (the wire sweep's fault model, byte for byte).
// Neither reader may panic, each must deliver every complete frame intact,
// and each must distinguish a torn frame (io.ErrUnexpectedEOF: the stream
// died mid-frame) from the clean between-frames io.EOF a closing peer
// produces — the distinction the session layer's resubmit logic keys on.
// The FrameReader must agree with ReadFrame on the raw bytes frame for
// frame, whether the stream arrives in one Read or a byte at a time.
func FuzzFrameStream(f *testing.F) {
	f.Add(uint8(1), uint16(0), []byte{})
	f.Add(uint8(3), uint16(10), []byte("abcdef"))
	f.Add(uint8(2), uint16(41), serve.EncodeRequest(serve.Request{Op: serve.OpPut, ReqID: 9, Key: 5}))
	f.Add(uint8(5), uint16(1), []byte{0})

	f.Fuzz(func(t *testing.T, nframes uint8, cut uint16, payload []byte) {
		if len(payload) > 256 {
			payload = payload[:256]
		}
		n := int(nframes%8) + 1
		var stream bytes.Buffer
		for i := 0; i < n; i++ {
			// Interleave two frame shapes so boundaries vary.
			p := payload
			if i%2 == 1 {
				p = serve.EncodeReply(serve.Reply{Status: serve.StOK, ReqID: uint64(i), Val: 1})
			}
			if err := serve.WriteFrame(&stream, p); err != nil {
				t.Fatalf("WriteFrame: %v", err)
			}
		}
		whole := stream.Bytes()
		off := int(cut) % (len(whole) + 1)
		torn := whole[:off]

		// drain reads frames until the first error and returns both.
		drain := func(next func() ([]byte, error)) (frames [][]byte, err error) {
			for {
				got, err := next()
				if err != nil {
					return frames, err
				}
				frames = append(frames, append([]byte(nil), got...))
				if len(frames) > n {
					t.Fatalf("read %d frames from a stream of %d", len(frames), n)
				}
			}
		}

		r := bytes.NewReader(torn)
		want, err := drain(func() ([]byte, error) { return serve.ReadFrame(r) })
		// The error must classify the cut exactly: a cut on a frame
		// boundary is a clean EOF; a cut inside a frame is
		// io.ErrUnexpectedEOF. (A cut inside the 4-byte header of a
		// zero-total-read is still "unexpected" only if bytes remain.)
		wantErr := io.ErrUnexpectedEOF
		if boundaryOffsets(whole, n)[off] {
			wantErr = io.EOF
		}
		if err != wantErr {
			t.Fatalf("cut at %d: ReadFrame err = %v, want %v", off, err, wantErr)
		}

		for name, src := range map[string]io.Reader{
			"whole":        bytes.NewReader(torn),
			"byte-by-byte": iotest.OneByteReader(bytes.NewReader(torn)),
		} {
			fr := serve.NewFrameReader(src)
			got, err := drain(fr.Next)
			if err != wantErr {
				t.Fatalf("cut at %d: FrameReader (%s) err = %v, want %v", off, name, err, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("cut at %d: FrameReader (%s) read %d frames, ReadFrame %d", off, name, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("cut at %d: FrameReader (%s) frame %d = %x, ReadFrame %x", off, name, i, got[i], want[i])
				}
			}
		}
	})
}

// boundaryOffsets marks the byte offsets of sequence of frames in a
// stream that fall exactly BETWEEN frames (including 0 and the end).
func boundaryOffsets(whole []byte, n int) map[int]bool {
	m := map[int]bool{0: true}
	r := bytes.NewReader(whole)
	for i := 0; i < n; i++ {
		p, err := serve.ReadFrame(r)
		if err != nil {
			break
		}
		m[len(whole)-r.Len()] = true
		_ = p
	}
	return m
}
