package gcs

import (
	"bytes"
	"reflect"
	"testing"

	"versadep/internal/alloctest"
)

// FuzzGCSFrameDecode drives the frame decoder — which hands out windows
// onto its input rather than copies — with arbitrary bytes, seeded from the
// golden frames of frame_compat_test.go and the frames of the retired kinds
// a peer that still spoke them sends. It must never panic; whatever it
// accepts must alias only the input; and its encoding must be stable: the
// golden frames re-encode to the very bytes they were decoded from, and any
// other accepted input (the decoder tolerates a foreign ledger width and an
// explicit zero group) re-encodes to a canonical form that decodes to the
// same frame and re-encodes to itself.
func FuzzGCSFrameDecode(f *testing.F) {
	golden := map[string]bool{}
	for _, fr := range append(compatFrames(), retiredFrames()...) {
		for _, group := range []uint32{0, 7} {
			fr.Group = group
			b := encodeFrame(fr)
			golden[string(b)] = true
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		fr, err := decodeFrame(in, nil)
		if err != nil {
			return
		}
		if !alloctest.Inside(in, fr.Payload) || !alloctest.Inside(in, fr.Aux) {
			t.Fatal("a decoded field lies outside the input")
		}
		canon := encodeFrame(fr)
		if golden[string(in)] && !bytes.Equal(canon, in) {
			t.Fatalf("golden frame re-encoded differently:\n in: %x\nout: %x", in, canon)
		}
		again, err := decodeFrame(canon, nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(normalize(fr), normalize(again)) {
			t.Fatalf("frame changed across re-encoding:\n was: %+v\n now: %+v", fr, again)
		}
		if !bytes.Equal(encodeFrame(again), canon) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		if fr.Kind == kFetchResp {
			frames, err := decodeFrameList(fr.Aux)
			if err != nil {
				return
			}
			for _, sub := range frames {
				if !alloctest.Inside(in, sub.Payload) || !alloctest.Inside(in, sub.Aux) {
					t.Fatal("a fetched frame's field lies outside the input")
				}
			}
		}
	})
}

// normalize irons out what DeepEqual sees and the wire does not carry: the
// nil-versus-empty distinctions, and the bytes the frame was decoded from.
func normalize(f *frame) frame {
	g := *f
	g.enc = nil
	if len(g.Members) == 0 {
		g.Members = nil
	}
	if len(g.Seqs) == 0 {
		g.Seqs = nil
	}
	if len(g.Left) == 0 {
		g.Left = nil
	}
	if len(g.Payload) == 0 {
		g.Payload = nil
	}
	if len(g.Aux) == 0 {
		g.Aux = nil
	}
	return g
}
