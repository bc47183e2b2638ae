package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"
)

// TestFrameRecordGoldenBytes pins the wire encoding byte for byte: a
// little-endian uint32 count followed by the frames as little-endian
// float64 bits, and a bare zero count as the terminator. The protocol is
// public (clients decode it), so these bytes must never change silently.
func TestFrameRecordGoldenBytes(t *testing.T) {
	got := AppendFrameRecord(nil, []float64{1.5, -2.0})
	got = AppendFrameTrailer(got)
	want := []byte{
		0x02, 0x00, 0x00, 0x00, // count 2
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // 1.5
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, // -2.0
		0x00, 0x00, 0x00, 0x00, // terminator
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded record:\n got % x\nwant % x", got, want)
	}
}

// TestFrameRecordRoundTripsSpecialValues checks the encoding is bit-exact
// through the decoder for values ASCII formats mangle: NaN payloads,
// signed zero, infinities, denormals.
func TestFrameRecordRoundTripsSpecialValues(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1.0 / 3.0, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), // NaN with payload
		math.Float64frombits(1),                  // smallest denormal
		-math.MaxFloat64,
	}
	body := AppendFrameTrailer(AppendFrameRecord(nil, vals))
	got, err := NewFrameReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("frame %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
}

// TestFrameReaderSpansRecords decodes a body split into many records
// through a small output buffer, crossing record boundaries both ways.
func TestFrameReaderSpansRecords(t *testing.T) {
	var body []byte
	var want []float64
	for i, size := range []int{1, 7, 3, MaxFrameRecord, 2} {
		rec := make([]float64, size)
		for j := range rec {
			rec[j] = float64(i*1000 + j)
		}
		body = AppendFrameRecord(body, rec)
		want = append(want, rec...)
	}
	body = AppendFrameTrailer(body)

	fr := NewFrameReader(bytes.NewReader(body))
	var got []float64
	buf := make([]float64, 5)
	for {
		n, err := fr.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frame %d: %v, want %v", i, got[i], want[i])
		}
	}
	// Reads after the terminator stay io.EOF.
	if n, err := fr.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("post-terminator read: n=%d err=%v, want 0, io.EOF", n, err)
	}
}

// TestFrameReaderTruncationAndOversize covers the decoder's error paths:
// bodies cut anywhere before the terminator are ErrFrameTruncated, and a
// length prefix beyond MaxFrameRecord is rejected before any allocation
// of attacker-controlled size.
func TestFrameReaderTruncationAndOversize(t *testing.T) {
	full := AppendFrameTrailer(AppendFrameRecord(nil, []float64{1, 2, 3}))
	cuts := []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"partial header", full[:2]},
		{"header only", full[:4]},
		{"mid payload", full[:4+8+3]},
		{"full record, no terminator", full[:4+24]},
		{"partial terminator", full[:len(full)-2]},
	}
	for _, tc := range cuts {
		frames, err := NewFrameReader(bytes.NewReader(tc.body)).ReadAll()
		if err != ErrFrameTruncated {
			t.Errorf("%s: err = %v, want ErrFrameTruncated", tc.name, err)
		}
		if len(frames) > 3 {
			t.Errorf("%s: decoded %d frames from a 3-frame body", tc.name, len(frames))
		}
	}

	over := binary.LittleEndian.AppendUint32(nil, MaxFrameRecord+1)
	over = append(over, make([]byte, 64)...)
	if _, err := NewFrameReader(bytes.NewReader(over)).ReadAll(); err != ErrFrameOversized {
		t.Fatalf("oversized prefix: err = %v, want ErrFrameOversized", err)
	}
	// A huge prefix must error, not allocate: 4 GiB worth of frames claimed
	// on a 4-byte body.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<29)
	if _, err := NewFrameReader(bytes.NewReader(huge)).ReadAll(); err != ErrFrameOversized {
		t.Fatalf("huge prefix: err = %v, want ErrFrameOversized", err)
	}
}

// TestAppendFrameRecordBounds pins the encoder's contract: empty and
// over-long records are programming errors, not protocol bytes.
func TestAppendFrameRecordBounds(t *testing.T) {
	for _, n := range []int{0, MaxFrameRecord + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendFrameRecord(%d frames) did not panic", n)
				}
			}()
			AppendFrameRecord(nil, make([]float64, n))
		}()
	}
}

// TestFramesRecordsGoldenOverHTTP pins the served body structure for a
// known request: one record of exactly n frames (n < streamChunk, so one
// chunk) followed by the terminator, and the format=frames query selecting
// the encoding without an Accept header.
func TestFramesRecordsGoldenOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := paperSpec(424242)
	info := createStream(t, ts.URL, spec)

	const n = 16
	resp, err := http.Get(fmt.Sprintf("%s/v1/streams/%s/frames?n=%d&format=frames", ts.URL, info.ID, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := frameRecordHeader + n*8 + frameRecordHeader; len(body) != want {
		t.Fatalf("body is %d bytes, want %d (header + %d frames + terminator)", len(body), want, n)
	}
	if count := binary.LittleEndian.Uint32(body); count != n {
		t.Fatalf("record count = %d, want %d", count, n)
	}
	if trailer := binary.LittleEndian.Uint32(body[len(body)-4:]); trailer != 0 {
		t.Fatalf("terminator count = %d, want 0", trailer)
	}

	// The frame payloads must be the offline sequence, bit for bit.
	want, err := spec.Frames(t.Context(), 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		bits := binary.LittleEndian.Uint64(body[frameRecordHeader+8*i:])
		if bits != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: %x, want %x", i, bits, math.Float64bits(want[i]))
		}
	}
}

// FuzzBinaryFrameDecode throws arbitrary bodies at the decoder: it must
// never panic, never allocate beyond the record bound, and classify every
// body as complete, truncated, or oversized.
func FuzzBinaryFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrameTrailer(nil))
	f.Add(AppendFrameTrailer(AppendFrameRecord(nil, []float64{1.5, -2.0})))
	f.Add(AppendFrameRecord(nil, []float64{3.14})) // no terminator
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrameRecord+1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(AppendFrameTrailer(AppendFrameRecord(AppendFrameRecord(nil, make([]float64, 7)), make([]float64, 2))))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		frames, err := NewFrameReader(bytes.NewReader(data)).ReadAll()
		// Decoded frames can never outnumber the payload bytes available.
		if len(frames) > len(data)/8 {
			t.Fatalf("decoded %d frames from %d bytes", len(frames), len(data))
		}
		switch err {
		case nil:
			// Complete bodies must contain a terminator record.
			if len(data) < frameRecordHeader {
				t.Fatalf("complete decode of a %d-byte body", len(data))
			}
		case ErrFrameTruncated, ErrFrameOversized:
		default:
			t.Fatalf("unexpected decode error: %v", err)
		}
	})
}
