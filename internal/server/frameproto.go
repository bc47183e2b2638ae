package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// The x-vbrsim-frames wire format is the length-prefixed binary frame
// protocol, one of the two frame encodings next to NDJSON. A response
// body is a sequence of records:
//
//	uint32 LE  count      number of frames in this record (1..MaxFrameRecord)
//	count × 8  payload    the frames, float64 little-endian
//
// followed by one terminator record with count == 0 when the server has
// written every requested frame. The terminator lets a client distinguish
// a complete response from a connection that died mid-stream, which a bare
// float64 body cannot at any 8-byte boundary. Frames inside a record are
// bit-exact: the encoding round-trips NaN payloads and signed zeros.
//
// Records are bounded so a decoder never trusts an attacker-controlled
// prefix: a count above MaxFrameRecord is a protocol error, not an
// allocation request.

// ContentTypeFrames is the MIME type of the length-prefixed binary frame
// protocol, negotiated via the Accept header or format=frames.
const ContentTypeFrames = "application/x-vbrsim-frames"

// MaxFrameRecord caps the frame count of one record. The server writes
// records of at most streamChunk frames; the decoder tolerates up to this
// bound so the chunk size can grow without a protocol break.
const MaxFrameRecord = 4096

// frameRecordHeader is the record length prefix size in bytes.
const frameRecordHeader = 4

// Frame-protocol decode errors. ErrFrameTruncated marks a body that ended
// without a terminator record; ErrFrameOversized a record length prefix
// beyond MaxFrameRecord.
var (
	ErrFrameTruncated = errors.New("vbrsim-frames: stream truncated before terminator record")
	ErrFrameOversized = fmt.Errorf("vbrsim-frames: record exceeds %d frames", MaxFrameRecord)
)

// AppendFrameRecord appends one record carrying frames to dst and returns
// the extended slice. len(frames) must be in 1..MaxFrameRecord.
func AppendFrameRecord(dst []byte, frames []float64) []byte {
	if len(frames) == 0 || len(frames) > MaxFrameRecord {
		panic(fmt.Sprintf("server: frame record of %d frames (want 1..%d)", len(frames), MaxFrameRecord))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(frames)))
	for _, v := range frames {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendFrameTrailer appends the terminator record (count 0).
func AppendFrameTrailer(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, 0)
}

// frameBufPool recycles per-connection encode buffers sized for one full
// record and the terminator that may follow it, so steady-state streaming
// allocates nothing per chunk.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2*frameRecordHeader+streamChunk*8)
		return &b
	},
}

// FrameReader decodes an x-vbrsim-frames body. It is not safe for
// concurrent use.
type FrameReader struct {
	r    io.Reader
	buf  []byte // carries one record payload
	pos  int    // consumed bytes of buf
	done bool   // terminator record seen
}

// NewFrameReader wraps r for record-by-record decoding.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Read fills out with decoded frames, returning the count. It returns
// io.EOF (with n == 0) after the terminator record, ErrFrameTruncated when
// the body ends mid-record or before any terminator, and ErrFrameOversized
// on a length prefix beyond MaxFrameRecord.
func (fr *FrameReader) Read(out []float64) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	n := 0
	for n < len(out) {
		if fr.pos == len(fr.buf) {
			if fr.done {
				break
			}
			if err := fr.fill(); err != nil {
				if err == io.EOF && n > 0 {
					// Terminator mid-call: report the decoded frames now,
					// io.EOF on the next call.
					break
				}
				return n, err
			}
		}
		for n < len(out) && fr.pos < len(fr.buf) {
			out[n] = math.Float64frombits(binary.LittleEndian.Uint64(fr.buf[fr.pos:]))
			fr.pos += 8
			n++
		}
	}
	if n == 0 && fr.done {
		return 0, io.EOF
	}
	return n, nil
}

// ReadAll decodes every frame until the terminator record.
func (fr *FrameReader) ReadAll() ([]float64, error) {
	var out []float64
	buf := make([]float64, 512)
	for {
		n, err := fr.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// fill reads the next record into fr.buf; io.EOF means the terminator.
func (fr *FrameReader) fill() error {
	var hdr [frameRecordHeader]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return ErrFrameTruncated
	}
	count := binary.LittleEndian.Uint32(hdr[:])
	if count == 0 {
		fr.done = true
		return io.EOF
	}
	if count > MaxFrameRecord {
		return ErrFrameOversized
	}
	need := int(count) * 8
	if cap(fr.buf) < need {
		fr.buf = make([]byte, need)
	}
	fr.buf = fr.buf[:need]
	fr.pos = 0
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return ErrFrameTruncated
	}
	return nil
}
