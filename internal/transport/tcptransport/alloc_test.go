package tcptransport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/vtime"
)

// TestFramingOneBuffer: the length prefix and the checksummed body share
// one allocation, and the stream bytes are what they always were — the
// prefix followed by codec.EncodeFrame's body.
func TestFramingOneBuffer(t *testing.T) {
	alloctest.OneBuffer(t, "encodeFrame", 0, func(p []byte) []byte {
		return encodeFrame("ra", "127.0.0.1:7301", p, vtime.Time(99))
	})

	payload := []byte("sealed-gcs-frame")
	body := codec.EncodeFrame(codec.Frame{From: "ra", FromAddr: "127.0.0.1:7301", Payload: payload, SentAt: 99})
	want := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	want = append(want, body...)
	if got := encodeFrame("ra", "127.0.0.1:7301", payload, vtime.Time(99)); !bytes.Equal(got, want) {
		t.Fatalf("stream bytes changed:\n got %x\nwant %x", got, want)
	}
}

// TestReadFrameHandsItsBufferUp: the one buffer a frame is read into is
// what travels upward; the payload is not copied out of it.
func TestReadFrameHandsItsBufferUp(t *testing.T) {
	const size = 64 << 10
	stream := encodeFrame("ra", "127.0.0.1:7301", make([]byte, size), 0)
	r := bytes.NewReader(stream)
	perRead := alloctest.BytesPerRun(20, func() {
		r.Reset(stream)
		f, err := readFrame(r)
		if err != nil || len(f.Payload) != size {
			t.Fatalf("readFrame: %d payload bytes, err %v", len(f.Payload), err)
		}
	})
	// One buffer of the frame's size, rounded up to whole pages by the
	// allocator; a second copy of the payload would double it.
	if perRead > size*3/2 {
		t.Errorf("reading a %d B frame allocates %.0f B: the payload is copied", size, perRead)
	}
}
