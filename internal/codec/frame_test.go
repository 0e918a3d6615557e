package codec

import (
	"bytes"
	"errors"
	"testing"
)

// encodeFrame is f's body in one buffer: PutFrameHeader's header, then the
// payload.
func encodeFrame(f Frame) []byte {
	buf := make([]byte, FrameSize(f))
	PutFrameHeader(buf, f)
	copy(buf[FrameHeaderSize(f):], f.Payload)
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{
		From:     "replica-a",
		FromAddr: "127.0.0.1:7001",
		Payload:  []byte("the payload bytes"),
		SentAt:   123456789,
	}
	buf := encodeFrame(f)
	got, err := DecodeFrame(buf, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.From != f.From || got.FromAddr != f.FromAddr || got.SentAt != f.SentAt {
		t.Fatalf("round trip mismatch: %+v != %+v", got, f)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("payload mismatch: %q != %q", got.Payload, f.Payload)
	}
}

func TestFrameRoundTripEmpty(t *testing.T) {
	got, err := DecodeFrame(encodeFrame(Frame{}), nil)
	if err != nil {
		t.Fatalf("decode empty frame: %v", err)
	}
	if got.From != "" || got.FromAddr != "" || len(got.Payload) != 0 {
		t.Fatalf("empty frame round trip: %+v", got)
	}
}

// Every single-bit flip anywhere in the encoded frame must be detected —
// as a checksum miss when the structure survives, or as a structural error
// when a length field breaks, but never as a silent success.
func TestFrameDetectsEveryBitFlip(t *testing.T) {
	buf := encodeFrame(Frame{
		From:     "node-1",
		FromAddr: "10.0.0.1:9",
		Payload:  []byte{0xde, 0xad, 0xbe, 0xef},
		SentAt:   42,
	})
	for i := range buf {
		for bit := 0; bit < 8; bit++ {
			dam := make([]byte, len(buf))
			copy(dam, buf)
			dam[i] ^= 1 << bit
			if _, err := DecodeFrame(dam, nil); err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	buf := encodeFrame(Frame{From: "a", Payload: []byte("xyz")})
	for n := 0; n < len(buf); n++ {
		if _, err := DecodeFrame(buf[:n], nil); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
}

func TestChecksumHelpers(t *testing.T) {
	sealed := AppendChecksum([]byte("hello"))
	body, err := VerifyChecksum(sealed)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if string(body) != "hello" {
		t.Fatalf("body = %q", body)
	}
	sealed[2] ^= 0x40
	if _, err := VerifyChecksum(sealed); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted seal: err = %v, want ErrChecksum", err)
	}
	if _, err := VerifyChecksum([]byte{1, 2}); !errors.Is(err, ErrFrame) {
		t.Fatalf("short seal: err = %v, want ErrFrame", err)
	}
}

// FuzzFrameDecode drives the frame decoder with arbitrary bytes: it must
// never panic, and anything it accepts must re-encode to an identical
// frame (decode∘encode is the identity on valid frames).
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFrame(Frame{From: "replica-a", FromAddr: "127.0.0.1:7001",
		Payload: []byte("payload"), SentAt: 99}))
	f.Add(encodeFrame(Frame{}))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data, nil)
		if err != nil {
			return
		}
		back, err2 := DecodeFrame(encodeFrame(fr), nil)
		if err2 != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err2)
		}
		if back.From != fr.From || back.FromAddr != fr.FromAddr ||
			back.SentAt != fr.SentAt || !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatalf("decode/encode not idempotent: %+v != %+v", back, fr)
		}
	})
}
