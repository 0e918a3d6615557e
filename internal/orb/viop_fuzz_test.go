package orb

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/vtime"
)

// decodeAllocFactor and decodeAllocSlack bound what decoding any input may
// allocate: decodeAllocFactor bytes per input byte plus decodeAllocSlack.
// The densest encoding is a list of nulls — one byte on the wire, a
// 104-byte codec.Value decoded — and growing that list by append at most
// about quadruples it; everything else a decoder makes is a few small
// fixed-size structs, and the capacity reserved from a count, which is
// capped.
const (
	decodeAllocFactor = 512
	decodeAllocSlack  = 16 << 10
)

// FuzzVIOPDecode drives the three VIOP decoders — request, reply and the
// timing envelope — with arbitrary bytes, seeded from fixtures of each. It
// must never panic; no input, accepted or rejected, may allocate more than
// decodeAllocFactor times its length (plus decodeAllocSlack); the fixtures
// re-encode to the very bytes they were decoded from; and any other
// accepted input (trailing bytes, a non-canonical ledger) re-encodes to a
// canonical form that is a fixed point of decode-then-encode. The request
// peeks must agree with the full decode, and the envelope must hand on a
// window onto its input, not a copy. Every byte argument of a request, at
// any depth of a list or map, is a window onto the input too (the servant
// reads it where it arrived); every byte result of a reply is a copy (the
// caller keeps it). Decoding into a request, reply or envelope that held
// another decoded fixture must give what a fresh decode gives, field for
// field, and accept or refuse the same inputs.
func FuzzVIOPDecode(f *testing.F) {
	blob := bytes.Repeat([]byte{0x5A}, 300)
	args := []codec.Value{
		codec.Null(), codec.Bool(true), codec.Int(-7), codec.Uint(9), codec.Float(2.5),
		codec.String("key"), codec.Bytes(blob),
		codec.List(codec.Int(1), codec.List(codec.Bytes(blob[:7]))),
		codec.Map(map[string]codec.Value{"a": codec.Int(1), "b": codec.String("x"), "c": codec.Bytes(blob[:3])}),
	}
	var led vtime.Ledger
	led.Charge(vtime.ComponentORB, 3*vtime.Microsecond)
	led.Charge(vtime.ComponentGC, 11*vtime.Microsecond)
	golden := [][]byte{
		EncodeRequest(&Request{ClientID: "c1", ReqID: 1, Object: "Counter", Operation: "add", Args: args}),
		EncodeRequest(&Request{ClientID: "client-with-a-longer-name", ReqID: 1 << 40, Object: "Bench", Operation: "work"}),
		EncodeReply(&Reply{ClientID: "c1", ReqID: 1, Status: StatusOK, Results: args}),
		EncodeReply(&Reply{ClientID: "c2", ReqID: 3, Status: StatusException, ErrMsg: "no such object"}),
		EncodeEnvelope(&Envelope{VT: 12345, Ledger: led, Bytes: []byte("viop-bytes")}),
		EncodeEnvelope(&Envelope{}),
	}
	isGolden := map[string]bool{}
	for _, b := range golden {
		isGolden[string(b)] = true
		f.Add(b)
	}
	// An argument count that claims every byte behind it, over zero bytes:
	// the first argument fails to decode.
	hostile := append([]byte(nil), golden[1]...)
	binary.BigEndian.PutUint32(hostile[len(hostile)-4:], 1<<10)
	f.Add(append(hostile, make([]byte, 1<<10)...))
	// An envelope that carries no ledger slots: decoded into a used
	// envelope, it must not keep the slots that envelope had.
	f.Add(make([]byte, 8+4+4))

	f.Fuzz(func(t *testing.T, in []byte) {
		var req *Request
		var rep *Reply
		var env *Envelope
		var reqErr, repErr, envErr error
		used := alloctest.BytesPerRun(1, func() {
			req, reqErr = DecodeRequest(in)
			rep, repErr = DecodeReply(in)
			env, envErr = DecodeEnvelope(in)
		})
		if limit := float64(decodeAllocFactor*len(in) + decodeAllocSlack); used > limit {
			t.Fatalf("decoding %d B allocated %.0f B, limit %.0f", len(in), used, limit)
		}
		var usedReq Request
		var usedRep Reply
		var usedEnv Envelope
		if decodeRequest(golden[0], nil, &usedReq) != nil || decodeReply(golden[2], nil, &usedRep) != nil ||
			decodeEnvelope(golden[4], &usedEnv) != nil {
			t.Fatal("a fixture does not decode")
		}
		sameDecode(t, "request", req, reqErr, &usedReq, decodeRequest(in, nil, &usedReq))
		sameDecode(t, "reply", rep, repErr, &usedRep, decodeReply(in, nil, &usedRep))
		sameDecode(t, "envelope", env, envErr, &usedEnv, decodeEnvelope(in, &usedEnv))
		if reqErr == nil {
			eachBytes(req.Args, func(b []byte) {
				if !alloctest.Inside(in, b) {
					t.Fatalf("a %d B request argument lies outside the input", len(b))
				}
			})
			if cid, rid, err := PeekRequestID(in); err != nil || string(cid) != req.ClientID || rid != req.ReqID {
				t.Fatalf("request id peek (%q, %d, %v) disagrees with the decode (%q, %d)", cid, rid, err, req.ClientID, req.ReqID)
			}
			if obj, err := PeekRequestObject(in); err != nil || obj != req.Object {
				t.Fatalf("object peek (%q, %v) disagrees with the decode (%q)", obj, err, req.Object)
			}
			checkCanonical(t, in, isGolden[string(in)], EncodeRequest(req), func(b []byte) ([]byte, error) {
				r, err := DecodeRequest(b)
				if err != nil {
					return nil, err
				}
				return EncodeRequest(r), nil
			})
		}
		if repErr == nil {
			eachBytes(rep.Results, func(b []byte) {
				if len(b) > 0 && alloctest.Inside(in, b) {
					t.Fatalf("a %d B reply result lies inside the input", len(b))
				}
			})
			checkCanonical(t, in, isGolden[string(in)], EncodeReply(rep), func(b []byte) ([]byte, error) {
				r, err := DecodeReply(b)
				if err != nil {
					return nil, err
				}
				return EncodeReply(r), nil
			})
		}
		if envErr == nil {
			if !alloctest.Inside(in, env.Bytes) {
				t.Fatal("the envelope's bytes lie outside the input")
			}
			checkCanonical(t, in, isGolden[string(in)], EncodeEnvelope(env), func(b []byte) ([]byte, error) {
				e, err := DecodeEnvelope(b)
				if err != nil {
					return nil, err
				}
				return EncodeEnvelope(e), nil
			})
		}
	})
}

// eachBytes calls f with the bytes of every KindBytes value in vs, at any
// depth of a list or map.
func eachBytes(vs []codec.Value, f func([]byte)) {
	for _, v := range vs {
		switch v.Kind {
		case codec.KindBytes:
			f(v.Byt)
		case codec.KindList:
			eachBytes(v.List, f)
		case codec.KindMap:
			for _, item := range v.Map {
				eachBytes([]codec.Value{item}, f)
			}
		}
	}
}

// sameDecode checks that a decode into a used value (got, gotErr) agrees
// with a fresh one (want, wantErr): both refuse the input, or both accept it
// with equal fields.
func sameDecode[T any](t *testing.T, what string, want *T, wantErr error, got *T, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: a fresh decode says %v, a decode into a used value %v", what, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("%s decoded into a used value:\n got: %+v\nwant: %+v", what, got, want)
	}
}

// checkCanonical checks that canon, an accepted input re-encoded, equals
// the input if it is a golden fixture, and is a fixed point of roundTrip.
func checkCanonical(t *testing.T, in []byte, golden bool, canon []byte, roundTrip func([]byte) ([]byte, error)) {
	t.Helper()
	if golden && !bytes.Equal(canon, in) {
		t.Fatalf("fixture re-encoded differently:\n in: %x\nout: %x", in, canon)
	}
	again, err := roundTrip(canon)
	if err != nil {
		t.Fatalf("re-encoded message does not decode: %v", err)
	}
	if !bytes.Equal(again, canon) {
		t.Fatal("canonical encoding is not a fixed point")
	}
}
