package replication

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"versadep/internal/alloctest"
)

// FuzzReplicationDecode drives the envelope decoder — which hands out
// windows onto its input rather than copies — with arbitrary bytes, seeded
// from the envelope fixtures of msg_test.go and transfer_test.go. It must
// never panic; whatever it accepts must alias only the input; the fixtures
// re-encode to the very bytes they were decoded from; and any other
// accepted input (a non-canonical boolean, trailing bytes) re-encodes to a
// canonical form that is a fixed point of decode-then-encode.
// PeekRequestViop must agree with the full decode. Decoding into an
// envelope that held another decoded fixture — every field set — must give
// what a fresh decode gives, field for field, and accept or refuse the same
// inputs.
func FuzzReplicationDecode(f *testing.F) {
	fixtures := []*Msg{
		{Kind: KindRequest, Viop: []byte("viop-bytes")},
		{Kind: KindCheckpoint, Cache: []CacheEntry{{Client: "c1", ReqID: 9, Reply: []byte("r")}},
			CoveredSeq: 41, CkptSerial: 7, SwitchID: 3, Final: true},
		{Kind: KindState, State: bytes.Repeat([]byte{0xAB}, 300), CoveredSeq: 12, CkptSerial: 2},
		{Kind: KindSwitch, Style: Active},
		{Kind: KindConfig, CheckpointEvery: 25},
		{Kind: KindRetire, Target: "replica-b"},
		{Kind: KindStateChunk, State: []byte("chunk"), CkptSerial: 5, ChunkIndex: 3, ChunkCount: 8,
			CoveredSeq: 77, Cache: []CacheEntry{{Client: "c", ReqID: 1, Reply: []byte("x")}}},
		{Kind: KindChunkAck, CkptSerial: 2, ChunkIndex: 11},
		{Kind: KindResumeReq, CkptSerial: 3, ChunkIndex: 4},
		{Kind: KindResumeReq},
		{Kind: KindResumeNak, CoveredSeq: 19},
	}
	full := Encode(&Msg{Kind: KindStateChunk, Viop: []byte("v"), State: []byte("s"),
		Cache: []CacheEntry{{Client: "c", ReqID: 2, Reply: []byte("r")}}, Style: Active, SwitchID: 3,
		CoveredSeq: 4, CkptSerial: 5, Final: true, CheckpointEvery: 6, Target: "t", ChunkIndex: 7, ChunkCount: 8})
	golden := map[string]bool{}
	for _, m := range fixtures {
		b := Encode(m)
		golden[string(b)] = true
		f.Add(b)
	}
	// The retired kind 4 as it was last sent: two metrics, "latency" 1234.5
	// and "rate" 800. A nonzero metrics count is refused.
	retired, _ := hex.DecodeString("040000000000000000000000000000000000000000000000000000000000000000000000000000000000000000" +
		"0002000000076c6174656e637940934a00000000000000000472617465408900000000000000000000")
	if _, err := Decode(retired); err == nil {
		f.Fatal("the retired metrics envelope decoded")
	}
	f.Add(retired)
	f.Fuzz(func(t *testing.T, in []byte) {
		viop, peeked := PeekRequestViop(in)
		if peeked && !alloctest.Inside(in, viop) {
			t.Fatal("peeked request lies outside the input")
		}
		m, err := Decode(in)
		var used Msg
		if err := decode(full, nil, &used); err != nil {
			t.Fatal(err)
		}
		if again := decode(in, nil, &used); (again == nil) != (err == nil) {
			t.Fatalf("a fresh decode says %v, a decode into a used envelope %v", err, again)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(*m, used) {
			t.Fatalf("decoded into a used envelope:\n got: %+v\nwant: %+v", used, *m)
		}
		if !alloctest.Inside(in, m.Viop) || !alloctest.Inside(in, m.State) {
			t.Fatal("a decoded field lies outside the input")
		}
		for _, c := range m.Cache {
			if !alloctest.Inside(in, c.Reply) {
				t.Fatal("a decoded cache reply lies outside the input")
			}
		}
		if peeked != (m.Kind == KindRequest && len(m.Viop) > 0) || (peeked && !bytes.Equal(viop, m.Viop)) {
			t.Fatalf("peek (ok=%v) disagrees with the decoded envelope (kind %d, %d request bytes)", peeked, m.Kind, len(m.Viop))
		}
		canon := Encode(m)
		if golden[string(in)] && !bytes.Equal(canon, in) {
			t.Fatalf("fixture re-encoded differently:\n in: %x\nout: %x", in, canon)
		}
		again, err := Decode(canon)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", err)
		}
		if !bytes.Equal(Encode(again), canon) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
