package gcs

import (
	"testing"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

func budgetFrame(payload []byte) *frame {
	var led vtime.Ledger
	led.Charge(vtime.ComponentGC, 25*vtime.Microsecond)
	return &frame{Kind: kSeq, ViewID: 3, Seq: 99, Origin: "client-1", OSeq: 42,
		Level: Agreed, SentVT: vtime.Time(123456), Ledger: led, Payload: payload}
}

// TestFrameEncodeOneBuffer: a frame is encoded into one buffer of exactly
// its size — bare for frame lists, and with the transport's headroom and
// seal room on the way to the wire. A payload built in the room a frame
// needs (a submission, a direct reply) is framed and sealed where it lies:
// no allocation, and the payload does not move.
func TestFrameEncodeOneBuffer(t *testing.T) {
	alloctest.OneBuffer(t, "encodeFrame", 0, func(p []byte) []byte {
		return encodeFrame(budgetFrame(p))
	})

	conn := &recConn{addr: "a"}
	f := budgetFrame(nil)
	alloctest.OneBuffer(t, "a frame sealed for the wire", 0, func(p []byte) []byte {
		f.Payload, f.enc, f.wire = p, nil, nil
		return f.sealed(conn, 0)
	})

	for _, size := range []int{200, 64 << 10} {
		f := budgetFrame(make([]byte, size))
		payload := transport.CopyBuf(f.room(), f.Payload)
		f.Payload = payload.Bytes()
		var sealed []byte
		if allocs := testing.AllocsPerRun(20, func() { sealed = f.sealAround(conn, 0, payload) }); allocs != 0 {
			t.Errorf("framing and sealing a %d B payload in its room: %v allocations, want 0", size, allocs)
		}
		if &sealed[transport.Headroom+frameHeadSize(f)] != &f.Payload[0] {
			t.Errorf("framing a %d B payload in its room moved it", size)
		}
		if want := sealer.Seal(transport.CopyBuf(transport.SealRoom, encodeFrame(f))); string(sealed) != string(want) {
			t.Errorf("a %d B payload framed in its room differs from the frame encoded whole", size)
		}
	}
}

// TestFrameSealedOnce: the wire form is built on first use and reused, and
// the encoding the history keeps is a window onto it, not a second buffer.
func TestFrameSealedOnce(t *testing.T) {
	conn := &recConn{addr: "a"}
	f := budgetFrame(make([]byte, 4096))
	first := f.sealed(conn, 0)
	if allocs := testing.AllocsPerRun(20, func() { _ = f.sealed(conn, 0); _ = f.encoded(0) }); allocs != 0 {
		t.Errorf("re-sending a sealed frame: %v allocations, want 0", allocs)
	}
	if !sameBytes(first, f.sealed(conn, 0)) {
		t.Error("second use re-encoded the frame")
	}
	if !alloctest.Inside(first, f.encoded(0)) || string(f.encoded(0)) != string(encodeFrame(f)) {
		t.Error("the retained encoding is not the one inside the wire form")
	}
}

// TestReceivedFrameKeepsItsBytes: a decoded frame's encoding is the buffer
// it arrived in, so history and forwarding re-send what was received.
func TestReceivedFrameKeepsItsBytes(t *testing.T) {
	in := encodeFrame(budgetFrame(make([]byte, 4096)))
	f, err := decodeFrame(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBytes(f.encoded(0), in) {
		t.Error("a received frame was re-encoded")
	}
	wire := f.sealed(&recConn{addr: "a"}, 0)
	if got := wire[transport.Headroom : len(wire)-codec.SealOverhead]; string(got) != string(in) {
		t.Error("forwarding a received frame changed its bytes")
	}
}

// TestFrameDecodeAliases: decoding costs the same whatever the payload
// size, and the payload it returns is a window onto the input.
func TestFrameDecodeAliases(t *testing.T) {
	encode := func(p []byte) []byte { return encodeFrame(budgetFrame(p)) }
	alloctest.SizeBlind(t, "decodeFrame", encode, func(b []byte) {
		if _, err := decodeFrame(b, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFrameDecodeKnownOrigin: decoding a submission or a direct frame from
// an origin the receiver has heard from before allocates the frame and
// nothing else — the origin's address is in the receiver's name table, the
// payload is a window onto the input. Without a table the address is a
// second allocation per frame.
func TestFrameDecodeKnownOrigin(t *testing.T) {
	var names codec.Names
	for _, kind := range []frameKind{kData, kDirect} {
		f := budgetFrame(make([]byte, 200))
		f.Kind = kind
		in := encodeFrame(f)
		decode := func(names *codec.Names) float64 {
			return testing.AllocsPerRun(100, func() {
				got, err := decodeFrame(in, names)
				if err != nil || got.Origin != "client-1" {
					t.Fatalf("decoded %+v, %v", got, err)
				}
			})
		}
		if allocs := decode(&names); allocs != 1 {
			t.Errorf("kind %d from a known origin: %v allocations, want 1 (the frame)", kind, allocs)
		}
		if allocs := decode(nil); allocs != 2 {
			t.Errorf("kind %d without a table: %v allocations, want 2", kind, allocs)
		}
	}
}

// TestInboxReusesItsArrays: the inbox and the batch being drained swap two
// arrays between them for as long as bursts fit — the inbox used to start
// from nil after every drain — and a drained array lets go of its payloads.
func TestInboxReusesItsArrays(t *testing.T) {
	r := openRig(t, deferConfig(), "a", "a")
	msg := transport.Message{From: "x", Payload: []byte{0xff}} // not a frame: the decoder drops it
	arrays := map[*transport.Message]bool{}
	r.do(func() {
		for i := 0; i < 100; i++ {
			r.m.HandleTransport(msg)
			arrays[&r.m.inbox[0]] = true
			r.m.drainInbox()
			if spare := r.m.inSpare[:1]; spare[0].Payload != nil {
				t.Fatal("a drained inbox array still holds a payload")
			}
		}
	})
	if len(arrays) > 2 {
		t.Errorf("100 messages went through %d inbox arrays, want 2", len(arrays))
	}
}
