package gcs

import (
	"bytes"
	"testing"

	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// decodeNew decodes b into a frame of its own.
func decodeNew(b []byte) (*frame, error) {
	f := new(frame)
	return f, decodeFrame(b, nil, f)
}

// legacyEncodeFrame is a frozen copy of the frame encoder as it stood
// before the Group field existed. The regression test below pins the
// sharding contract: a group-0 frame (every frame in an unsharded or
// 1-shard cluster) must encode byte-identically to the legacy layout, so
// sharding costs the hot path nothing and mixed-version clusters
// interoperate at group 0.
func legacyEncodeFrame(f *frame) []byte {
	e := codec.NewEncoder(64 + len(f.Payload) + len(f.Aux))
	e.PutUint8(uint8(f.Kind))
	e.PutUint64(f.ViewID)
	e.PutUint64(f.Seq)
	e.PutString(f.Origin)
	e.PutUint64(f.OSeq)
	e.PutUint8(uint8(f.Level))
	e.PutUint32(uint32(len(f.Members)))
	for _, m := range f.Members {
		e.PutString(m)
	}
	e.PutUint32(uint32(len(f.Seqs)))
	for _, s := range f.Seqs {
		e.PutUint64(s)
	}
	e.PutInt64(int64(f.SentVT))
	slots := f.Ledger.Slots()
	e.PutUint32(uint32(len(slots)))
	for _, d := range slots {
		e.PutInt64(int64(d))
	}
	e.PutBytes(f.Payload)
	e.PutBytes(f.Aux)
	e.PutUint32(uint32(len(f.Left)))
	for _, m := range f.Left {
		e.PutString(m)
	}
	return e.Bytes()
}

// compatFrames exercises every frame kind with representative field
// shapes (empty and populated lists, payloads, ledgers).
func compatFrames() []*frame {
	var led vtime.Ledger
	led.Charge(vtime.ComponentGC, 25*vtime.Microsecond)
	led.Charge(vtime.ComponentORB, 10*vtime.Microsecond)
	return []*frame{
		{Kind: kJoin, Origin: "joiner"},
		{Kind: kLeave, Origin: "leaver"},
		{Kind: kHB, ViewID: 3, Origin: "ra"},
		{Kind: kData, Origin: "client-1", OSeq: 42, Level: Agreed,
			SentVT: vtime.Time(123456), Ledger: led, Payload: []byte("request-bytes")},
		{Kind: kSeq, ViewID: 3, Seq: 99, Origin: "client-1", OSeq: 42,
			Level: Agreed, Payload: []byte("request-bytes")},
		{Kind: kNack, Origin: "rb", Seqs: []uint64{7, 9, 11}},
		{Kind: kPrepare, ViewID: 4, Origin: "rb", Members: []string{"rb", "rc"}},
		{Kind: kPrepareAck, ViewID: 4, Origin: "rc", Seq: 97, Seqs: []uint64{99}},
		{Kind: kFetch, Origin: "rb", Seqs: []uint64{98}},
		{Kind: kFetchResp, Origin: "rc", Aux: []byte{1, 2, 3}},
		{Kind: kView, ViewID: 4, Seq: 100, Members: []string{"rb", "rc"},
			Left: []string{"ra"}, Aux: []byte{0, 0, 0, 0}},
		{Kind: kDirect, Origin: "rb", OSeq: 8, SentVT: vtime.Time(777),
			Ledger: led, Payload: []byte("reply-bytes")},
		{Kind: kDirectAck, Origin: "client-1", OSeq: 8},
		{Kind: kViewHint, Members: []string{"rb", "rc"}},
		{Kind: kDataAck, Origin: "rb", OSeq: 42},
	}
}

// retiredFrames are frames of the four retired kinds (7–10: FIFO, FIFO
// NACK, causal, best-effort) as a peer that still spoke them encoded them.
// They decode like any frame, and a member ignores them.
func retiredFrames() []*frame {
	return []*frame{
		{Kind: 7, Origin: "rc", OSeq: 5, Level: 2, Payload: []byte("f")},
		{Kind: 8, Origin: "rc", Seqs: []uint64{2}},
		{Kind: 9, Origin: "ra", Level: 3, Seqs: []uint64{1, 0, 2}, Payload: []byte("c")},
		{Kind: 10, Origin: "ra", Level: 1, Payload: []byte("b")},
	}
}

// TestFrameKindWireValues pins the byte of every frame kind, and of the
// agreed level, independently of the encoder: the byte-identity tests
// compare two encoders that both read f.Kind, so a renumbering would pass
// them.
func TestFrameKindWireValues(t *testing.T) {
	for _, c := range []struct {
		kind frameKind
		wire byte
	}{
		{kJoin, 1}, {kLeave, 2}, {kHB, 3}, {kData, 4}, {kSeq, 5}, {kNack, 6},
		{kPrepare, 11}, {kPrepareAck, 12}, {kFetch, 13}, {kFetchResp, 14},
		{kView, 15}, {kDirect, 16}, {kDirectAck, 17}, {kViewHint, 18}, {kDataAck, 19},
	} {
		if b := encodeFrame(&frame{Kind: c.kind})[0]; b != c.wire {
			t.Errorf("kind %d encodes as byte %d, want %d", c.kind, b, c.wire)
		}
	}
	if Agreed != 4 {
		t.Errorf("Agreed = %d, want 4", Agreed)
	}
	// The level byte follows kind, ViewID, Seq, an empty Origin and OSeq.
	if b := encodeFrame(&frame{Kind: kData, Level: Agreed})[1+8+8+4+8]; b != 4 {
		t.Errorf("an agreed frame's level byte is %d, want 4", b)
	}
}

// TestHeartbeatLegacyLayout: a heartbeat in a 3-member view carries its
// agreed frontier alone — the legacy layout with OSeq zero and an empty
// Seqs list.
func TestHeartbeatLegacyLayout(t *testing.T) {
	cfg := deferConfig()
	a := openRig(t, cfg, "a", "a", "b", "c")
	a.tick(cfg.HBInterval)
	hbs := a.conn.sends(t, kHB)
	if len(hbs) != 2 {
		t.Fatalf("%d heartbeats sent, want one each to b and c", len(hbs))
	}
	want := legacyEncodeFrame(&frame{Kind: kHB, ViewID: 1, Origin: "a"})
	for _, s := range hbs {
		if got := unseal(t, s); !bytes.Equal(got, want) {
			t.Fatalf("heartbeat to %s diverged from the legacy layout\n got: %x\nwant: %x", s.to, got, want)
		}
	}
}

// TestRetiredKindsIgnored: a frame of a retired kind from a view member
// makes a member send nothing and deliver nothing.
func TestRetiredKindsIgnored(t *testing.T) {
	a := openRig(t, deferConfig(), "a", "a", "b")
	for _, f := range retiredFrames() {
		f.ViewID = 1
		msg := transport.Message{From: "b", To: "a", Payload: encodeFrame(f)}
		a.do(func() { a.m.handleMessage(msg) })
	}
	if n := sentCount(a.conn) + sentCount(a.xconn); n != 0 {
		t.Fatalf("retired frames provoked %d sends", n)
	}
	// Events come out in order, so anything the retired frames delivered
	// would come before the next agreed message.
	a.multicast(1)
	if got := a.messagesUntil(func(e Event) bool { return e.Kind == EventMessage }); len(got) != 1 || got[0] != "m0" {
		t.Fatalf("delivered %q, want only the agreed m0", got)
	}
}

// TestFrameGroupZeroByteIdentical pins the 1-shard wire contract: with
// Group == 0 (the unsharded default), every frame kind must encode to
// exactly the pre-sharding bytes.
func TestFrameGroupZeroByteIdentical(t *testing.T) {
	for _, f := range compatFrames() {
		got := encodeFrame(f)
		want := legacyEncodeFrame(f)
		if !bytes.Equal(got, want) {
			t.Errorf("kind %d: group-0 encoding diverged from legacy layout\n got: %x\nwant: %x",
				f.Kind, got, want)
		}
	}
}

// TestFrameGroupRoundTrip checks that a non-zero group id survives
// encode/decode, that legacy bytes decode as group 0, and that the
// trailing encoding adds exactly four bytes.
func TestFrameGroupRoundTrip(t *testing.T) {
	for _, f := range compatFrames() {
		base := encodeFrame(f)

		f.Group = 7
		b := encodeFrame(f)
		if len(b) != len(base)+4 {
			t.Fatalf("kind %d: group stamp added %d bytes, want 4", f.Kind, len(b)-len(base))
		}
		dec, err := decodeNew(b)
		if err != nil {
			t.Fatalf("kind %d: decode stamped frame: %v", f.Kind, err)
		}
		if dec.Group != 7 {
			t.Fatalf("kind %d: group = %d after round trip, want 7", f.Kind, dec.Group)
		}
		f.Group = 0

		dec, err = decodeNew(legacyEncodeFrame(f))
		if err != nil {
			t.Fatalf("kind %d: decode legacy frame: %v", f.Kind, err)
		}
		if dec.Group != 0 {
			t.Fatalf("kind %d: legacy bytes decoded with group %d, want 0", f.Kind, dec.Group)
		}
	}
}

// TestGroupMismatchDropped checks the member-side filter: a frame stamped
// for another group must be dropped before protocol handling.
func TestGroupMismatchDropped(t *testing.T) {
	f := &frame{Kind: kData, Origin: "client-1", OSeq: 1, Level: Agreed,
		Payload: []byte("x")}
	f.Group = 3
	foreign := encodeFrame(f)
	f.Group = 0
	native := encodeFrame(f)

	dec, err := decodeNew(foreign)
	if err != nil {
		t.Fatalf("decode foreign: %v", err)
	}
	if dec.Group != 3 {
		t.Fatalf("foreign frame group = %d, want 3", dec.Group)
	}
	dec, err = decodeNew(native)
	if err != nil {
		t.Fatalf("decode native: %v", err)
	}
	if dec.Group != 0 {
		t.Fatalf("native frame group = %d, want 0", dec.Group)
	}
}
