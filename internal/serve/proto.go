// Package serve is the network front-end over the detectably recoverable
// store: a KV server speaking length-prefixed binary frames that
// multiplexes many client connections onto the Runtime's fixed Proc pool.
//
// Each connection is pinned to one Proc; a Proc drains up to Config.Batch
// queued requests — round-robin across its connections for fairness — into
// one Runtime.ApplyWindow, so concurrent connections amortize psyncs
// exactly as the batch admission protocol measures. A full per-connection
// queue answers with an explicit RETRY frame (backpressure; the client
// resubmits), and every request carries a client-chosen 32-bit request ID
// that rides the durable announcement's Arg (see PackArg and
// repro.HashMap.SetArgMask): after a crash, reboot is Restart plus ONE
// RecoverAll, pending requests are answered from the report's legs by the
// worker that admitted them, and a resubmitted request ID is answered from
// the server's response table instead of re-executed — client-visible
// exactly-once.
//
// The admission window is the unit of work above the Runtime too. Frames
// are append-encoded into caller-owned buffers (AppendRequest, AppendReply)
// and read through a buffered FrameReader, so one read delivers a pipelined
// burst and a frame is never split across Writes. A finished window is
// recorded under one hold of the server lock and each connection's replies
// leave in one Write; the client's combining writer does the same for the
// requests of concurrent callers. WriteFrame, ReadFrame and the
// Encode/Decode pairs remain for callers that move one frame at a time; the
// bytes on the wire are the same either way.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Request op codes.
const (
	// OpPut inserts Key; the reply's Val is 1 if the key was absent.
	OpPut byte = 1
	// OpDel deletes Key; the reply's Val is 1 if the key was present.
	OpDel byte = 2
	// OpGet reports membership of Key (zero-persist read path).
	OpGet byte = 3
	// OpStats requests a stats snapshot; the reply carries JSON in Body.
	OpStats byte = 4
	// OpMove atomically moves membership from Key to Key2 as one
	// two-leg transaction (delete Key, insert Key2) with a single durable
	// commit point: no crash can leave the delete applied without the
	// insert once recovery completes. The reply's Val packs both leg
	// results: bit 0 set if Key was present (deleted), bit 1 set if Key2
	// was newly inserted. MOVE admits alone, never inside a batch window.
	OpMove byte = 5
)

// Reply status codes.
const (
	// StOK: the operation executed (or was answered from the durable
	// report/response table); Val carries its boolean result.
	StOK byte = 0
	// StRetry: backpressure — the connection's admission queue is full, or
	// the same request ID is already queued. Resubmit with the SAME
	// request ID after a short delay; the ID makes the retry idempotent.
	StRetry byte = 1
	// StErr: malformed frame or out-of-range op/key/request ID.
	StErr byte = 2
	// StShed: graceful overload shedding — the server's aggregate admission
	// queues are saturated past Config.ShedWatermark. Unlike StRetry (a
	// transient per-connection bounce: resubmit soon), StShed means the
	// whole server is overloaded: back off for longer before resubmitting
	// with the SAME request ID. Nothing was recorded; the ID stays fresh.
	StShed byte = 3
)

// KeyBits is the width of the key space: the low half of the announced
// Arg. Keys are 1..MaxKey; the 32 bits above them carry the request ID.
const KeyBits = 32

// MaxKey is the largest storable key (and the arg mask the server installs
// with repro.HashMap.SetArgMask).
const MaxKey = uint64(1)<<KeyBits - 1

// MaxReqID bounds client request IDs to the Arg's high half.
const MaxReqID = uint64(1)<<(64-KeyBits) - 1

// SeqBits splits the 32-bit request-ID space: the low SeqBits are a
// client's own sequence numbers, the bits above carry its client ID. The
// split is part of the wire contract because the acknowledgement
// watermark (Request.Ack) names "every sequence number of this client up
// to and including this one" — the server evicts the acknowledged
// entries from its exactly-once response table by walking that range.
const SeqBits = 24

// MaxSeq is the largest per-client sequence number.
const MaxSeq = uint64(1)<<SeqBits - 1

// SplitID splits a request ID into its client prefix and sequence number.
func SplitID(reqID uint64) (client, seq uint64) { return reqID >> SeqBits, reqID & MaxSeq }

// PackArg packs a request ID and a key into one announcement Arg: the
// durable identity a recovered operation is matched and answered by.
func PackArg(reqID, key uint64) uint64 { return reqID<<KeyBits | key }

// reqWire/replyWire are the fixed frame payload sizes (an op/status byte
// plus big-endian uint64s); a stats reply appends its JSON body.
const (
	reqWire   = 1 + 8 + 8 + 8 + 8
	replyWire = 1 + 8 + 8
)

// MaxFrame bounds a frame payload (a stats body is the only variable part).
const MaxFrame = 1 << 20

// Request is one client->server frame. Key2 is the move destination,
// zero for every other op. Ack piggybacks the client's acknowledged-reply
// high-watermark (a full request ID whose sequence part is the highest
// CONTIGUOUSLY settled sequence of that client; zero acknowledges
// nothing): the server drops response-table entries at or below it, which
// is what keeps the exactly-once table flat under steady traffic.
type Request struct {
	Op    byte
	ReqID uint64
	Key   uint64
	Key2  uint64
	Ack   uint64
}

// Reply is one server->client frame. Body is non-nil only for OpStats.
type Reply struct {
	Status byte
	ReqID  uint64
	Val    uint64
	Body   []byte
}

// appendRequestPayload appends r's fixed-size payload to b.
func appendRequestPayload(b []byte, r Request) []byte {
	b = append(b, r.Op)
	b = binary.BigEndian.AppendUint64(b, r.ReqID)
	b = binary.BigEndian.AppendUint64(b, r.Key)
	b = binary.BigEndian.AppendUint64(b, r.Key2)
	return binary.BigEndian.AppendUint64(b, r.Ack)
}

// EncodeRequest renders a request payload.
func EncodeRequest(r Request) []byte {
	return appendRequestPayload(make([]byte, 0, reqWire), r)
}

// AppendRequest appends r as one whole frame — length prefix, then payload
// — to dst, which the caller owns: the allocation-free encoder behind the
// client's combining writer.
func AppendRequest(dst []byte, r Request) []byte {
	dst = binary.BigEndian.AppendUint32(dst, reqWire)
	return appendRequestPayload(dst, r)
}

// DecodeRequest parses a request payload.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) != reqWire {
		return Request{}, fmt.Errorf("serve: request frame is %d bytes, want %d", len(b), reqWire)
	}
	return Request{
		Op:    b[0],
		ReqID: binary.BigEndian.Uint64(b[1:]),
		Key:   binary.BigEndian.Uint64(b[9:]),
		Key2:  binary.BigEndian.Uint64(b[17:]),
		Ack:   binary.BigEndian.Uint64(b[25:]),
	}, nil
}

// appendReplyPayload appends r's payload (fixed part, then any body) to b.
func appendReplyPayload(b []byte, r Reply) []byte {
	b = append(b, r.Status)
	b = binary.BigEndian.AppendUint64(b, r.ReqID)
	b = binary.BigEndian.AppendUint64(b, r.Val)
	return append(b, r.Body...)
}

// EncodeReply renders a reply payload.
func EncodeReply(r Reply) []byte {
	return appendReplyPayload(make([]byte, 0, replyWire+len(r.Body)), r)
}

// AppendReply appends r as one whole frame to dst (see AppendRequest). The
// caller keeps replyWire+len(r.Body) within MaxFrame.
func AppendReply(dst []byte, r Reply) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(replyWire+len(r.Body)))
	return appendReplyPayload(dst, r)
}

// DecodeReply parses a reply payload. A Body is copied out, so the reply
// outlives the buffer b came from.
func DecodeReply(b []byte) (Reply, error) {
	if len(b) < replyWire {
		return Reply{}, fmt.Errorf("serve: reply frame is %d bytes, want >= %d", len(b), replyWire)
	}
	r := Reply{Status: b[0], ReqID: binary.BigEndian.Uint64(b[1:]), Val: binary.BigEndian.Uint64(b[9:])}
	if len(b) > replyWire {
		r.Body = append([]byte(nil), b[replyWire:]...)
	}
	return r, nil
}

// WriteFrame writes one length-prefixed frame (4-byte big-endian length,
// then the payload) with a single Write, so a write deadline or a dying
// connection can never separate a header from its payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("serve: frame of %d bytes exceeds MaxFrame", len(payload))
	}
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(len(payload)))
	_, err := w.Write(append(frame, payload...))
	return err
}

// ReadFrame reads one length-prefixed frame payload.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("serve: frame length %d exceeds MaxFrame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		// A stream that ends after the length prefix is a torn frame, not a
		// clean end-of-stream: io.ReadFull reports EOF when zero payload
		// bytes arrive, which would be indistinguishable from the
		// between-frames EOF a closing peer produces.
		if err == io.EOF && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// frameBufSize is the initial size of a FrameReader's buffer and of the
// serve path's write buffers: room for a full pipelined burst of fixed-size
// frames (a QueueDepth of 32 requests is 1184 bytes). Only a stats body
// outgrows it.
const frameBufSize = 4096

// FrameReader reads length-prefixed frames through its own buffer: one
// Read on the underlying stream delivers every frame of a pipelined burst,
// and Next hands them out without allocating. It classifies a stream's end
// exactly as ReadFrame does.
type FrameReader struct {
	r    io.Reader
	buf  []byte
	rd   int   // start of the unread bytes in buf
	wr   int   // end of the unread bytes in buf
	rerr error // a read error held back until the bytes before it are consumed
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, buf: make([]byte, frameBufSize)}
}

// frameLen reports the payload length of the frame at the head of the
// buffer, or false while its 4-byte prefix is incomplete.
func (fr *FrameReader) frameLen() (uint32, bool) {
	if fr.wr-fr.rd < 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(fr.buf[fr.rd:]), true
}

// Buffered reports whether Next can return a frame without reading from
// the underlying stream.
func (fr *FrameReader) Buffered() bool {
	n, ok := fr.frameLen()
	return ok && n <= MaxFrame && fr.wr-fr.rd >= 4+int(n)
}

// fill reads until at least need unread bytes are buffered. A stream that
// ends first is io.EOF only on a frame boundary (nothing unread at all);
// anywhere inside a frame it is io.ErrUnexpectedEOF.
func (fr *FrameReader) fill(need int) error {
	if fr.rd == fr.wr {
		fr.rd, fr.wr = 0, 0
	}
	if fr.rd+need > len(fr.buf) {
		// Slide the partial frame to the front, growing the buffer if the
		// frame is larger than it.
		buf := fr.buf
		if need > len(buf) {
			buf = make([]byte, need)
		}
		fr.wr = copy(buf, fr.buf[fr.rd:fr.wr])
		fr.rd, fr.buf = 0, buf
	}
	for fr.wr-fr.rd < need {
		if fr.rerr != nil {
			err := fr.rerr
			if err == io.EOF && fr.wr > fr.rd {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		n, err := fr.r.Read(fr.buf[fr.wr:])
		fr.wr += n
		fr.rerr = err
	}
	return nil
}

// Next returns the next frame's payload. The slice aliases the reader's
// buffer and is valid only until the following call.
func (fr *FrameReader) Next() ([]byte, error) {
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	n, _ := fr.frameLen()
	if n > MaxFrame {
		return nil, fmt.Errorf("serve: frame length %d exceeds MaxFrame", n)
	}
	if err := fr.fill(4 + int(n)); err != nil {
		return nil, err
	}
	payload := fr.buf[fr.rd+4 : fr.rd+4+int(n)]
	fr.rd += 4 + int(n)
	return payload, nil
}
