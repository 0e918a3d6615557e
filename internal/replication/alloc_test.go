package replication

import (
	"testing"

	"versadep/internal/alloctest"
)

// TestEnvelopeOneBuffer: the request envelope is built in one allocation
// of exactly its size (it rides inside a GCS frame, so it needs no seal
// room of its own).
func TestEnvelopeOneBuffer(t *testing.T) {
	alloctest.OneBuffer(t, "Encode(KindRequest)", 0, WrapRequest)
	alloctest.OneBuffer(t, "Encode(KindState)", 0, func(p []byte) []byte {
		return Encode(&Msg{Kind: KindState, State: p, CoveredSeq: 7, CkptSerial: 3})
	})
}

// TestEnvelopeDecodeAliases: decoding an envelope, or peeking the request
// out of one, costs the same whatever the request size.
func TestEnvelopeDecodeAliases(t *testing.T) {
	alloctest.SizeBlind(t, "Decode", WrapRequest, func(b []byte) {
		if _, err := Decode(b); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.SizeBlind(t, "PeekRequestViop", WrapRequest, func(b []byte) {
		if _, ok := PeekRequestViop(b); !ok {
			t.Fatal("peek failed")
		}
	})
}
