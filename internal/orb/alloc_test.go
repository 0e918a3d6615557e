package orb

import (
	"testing"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

func budgetEnvelope(p []byte) *Envelope {
	var led vtime.Ledger
	led.Charge(vtime.ComponentORB, 100*vtime.Microsecond)
	return &Envelope{VT: vtime.Time(12345), Ledger: led, Bytes: p}
}

// TestEncodersOneBuffer: every VIOP encoder computes its size first and
// allocates once; the envelope, which is what the direct wire hands to the
// transport, is built behind the transport's headroom with exactly the seal
// room spare.
func TestEncodersOneBuffer(t *testing.T) {
	alloctest.OneBuffer(t, "EncodeEnvelope", 0, func(p []byte) []byte {
		return EncodeEnvelope(budgetEnvelope(p))
	})
	alloctest.OneBuffer(t, "appendEnvelope into a transport frame", codec.SealOverhead, func(p []byte) []byte {
		env := budgetEnvelope(p)
		return appendEnvelope(transport.NewFrame(envelopeSize(env)), env)
	})
	args := make([]codec.Value, 1)
	alloctest.OneBuffer(t, "EncodeRequest", 0, func(p []byte) []byte {
		args[0] = codec.Bytes(p)
		return EncodeRequest(&Request{ClientID: "c1", ReqID: 7, Object: "Bench", Operation: "work", Args: args})
	})
	results := []codec.Value{codec.Int(7), codec.Null()}
	alloctest.OneBuffer(t, "EncodeReply", 0, func(p []byte) []byte {
		results[1] = codec.Bytes(p)
		return EncodeReply(&Reply{ClientID: "c1", ReqID: 7, Status: StatusOK, Results: results})
	})
}

// TestEnvelopeDecodeAliases: the envelope hands on a window onto the
// receive buffer; the one copy of the payload is made where user code takes
// delivery of it (codec.Decoder.Value).
func TestEnvelopeDecodeAliases(t *testing.T) {
	encode := func(p []byte) []byte { return EncodeEnvelope(budgetEnvelope(p)) }
	alloctest.SizeBlind(t, "DecodeEnvelope", encode, func(b []byte) {
		if _, err := DecodeEnvelope(b); err != nil {
			t.Fatal(err)
		}
	})
}
