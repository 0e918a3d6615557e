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
// allocates once. A message encoded in the room of the direct wire is put
// in its envelope and sealed where it lies, allocation-free, into the frame
// the envelope encoded whole would make.
func TestEncodersOneBuffer(t *testing.T) {
	alloctest.OneBuffer(t, "EncodeEnvelope", 0, func(p []byte) []byte {
		return EncodeEnvelope(budgetEnvelope(p))
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

	conn := &lastConn{Conn: transport.NewDemux(nil).Conn(transport.ProtoVIOP)}
	for _, size := range []int{200, 64 << 10} {
		args[0] = codec.Bytes(make([]byte, size))
		req := encodeRequest(envelopeRoom, &Request{ClientID: "c1", ReqID: 7, Object: "Bench", Operation: "work", Args: args})
		env := budgetEnvelope(req.Bytes())
		if allocs := testing.AllocsPerRun(20, func() { _ = sendEnvelope(conn, "server", env, req) }); allocs != 0 {
			t.Errorf("enveloping and sealing a %d B request in its room: %v allocations, want 0", size, allocs)
		}
		want := conn.Seal(transport.CopyBuf(transport.SealRoom, EncodeEnvelope(env)))
		if string(conn.last) != string(want) {
			t.Errorf("a %d B request enveloped in its room differs from the envelope encoded whole", size)
		}
	}
}

// lastConn keeps the last frame sent on it.
type lastConn struct {
	transport.Conn
	last []byte
}

func (c *lastConn) Send(_ string, sealed []byte, _ vtime.Time) error {
	c.last = sealed
	return nil
}

// TestEnvelopeDecodeAliases: the envelope hands on a window onto the
// receive buffer, and so does the request inside it (see
// TestRequestDecodeKnownNames).
func TestEnvelopeDecodeAliases(t *testing.T) {
	encode := func(p []byte) []byte { return EncodeEnvelope(budgetEnvelope(p)) }
	alloctest.SizeBlind(t, "DecodeEnvelope", encode, func(b []byte) {
		if _, err := DecodeEnvelope(b); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRequestDecodeKnownNames: decoding a request from a client the
// receiver has met, for an object and operation it has met, into a request
// the caller owns allocates the argument list alone — no request, no name,
// and no argument bytes: they are a window onto the message, which the
// servant reads where it arrived (one allocation more while each argument
// was copied into memory the servant owned). Without a table the three
// names are three more. Decoding a reply into the caller's reply allocates
// its result list. Peeking an identity allocates nothing at all: the client
// id is a window onto the message.
func TestRequestDecodeKnownNames(t *testing.T) {
	req := EncodeRequest(&Request{ClientID: "c1", ReqID: 7, Object: "Bench", Operation: "work",
		Args: []codec.Value{codec.Bytes(make([]byte, 200))}})
	rep := EncodeReply(&Reply{ClientID: "c1", ReqID: 7, Status: StatusOK,
		Results: []codec.Value{codec.Int(7)}})
	var names codec.Names
	decode := func(names *codec.Names) float64 {
		var r Request
		return testing.AllocsPerRun(100, func() {
			if err := decodeRequest(req, names, &r); err != nil || r.ClientID != "c1" || r.Object != "Bench" || r.Operation != "work" ||
				len(r.Args[0].Byt) != 200 || !alloctest.Inside(req, r.Args[0].Byt) {
				t.Fatalf("decoded %+v, %v", r, err)
			}
		})
	}
	if allocs := decode(&names); allocs != 1 {
		t.Errorf("decodeRequest with known names: %v allocations, want 1 (args)", allocs)
	}
	if allocs := decode(nil); allocs != 4 {
		t.Errorf("decodeRequest without a table: %v allocations, want 4", allocs)
	}
	var r Reply
	if allocs := testing.AllocsPerRun(100, func() {
		if err := decodeReply(rep, &names, &r); err != nil || r.ClientID != "c1" {
			t.Fatalf("decoded %+v, %v", r, err)
		}
	}); allocs != 1 {
		t.Errorf("decodeReply with a known client: %v allocations, want 1 (results)", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		cid, rid, err := PeekRequestID(req)
		if err != nil || rid != 7 || !alloctest.Inside(req, cid) {
			t.Fatalf("peeked %q %d %v", cid, rid, err)
		}
		cid, rid, err = PeekReplyID(rep)
		if err != nil || rid != 7 || !alloctest.Inside(rep, cid) {
			t.Fatalf("peeked %q %d %v", cid, rid, err)
		}
	}); allocs != 0 {
		t.Errorf("PeekRequestID + PeekReplyID: %v allocations, want 0", allocs)
	}
}

// lengthServant answers with the length of its first argument: one
// allocation, its result list.
type lengthServant struct{}

func (lengthServant) Invoke(_ string, args []codec.Value) ([]codec.Value, error) {
	return []codec.Value{codec.Int(int64(len(args[0].Byt)))}, nil
}

// TestHandleRequestAllocatesWhatItHandsOn: serving a request whose client,
// object and operation the adapter has met allocates what outlives the
// call and nothing else — the argument list the servant is handed, the
// servant's own results, and the reply's buffer. The decoded request, the
// reply and the result record are values on the stack; they were three
// allocations more while each was returned by pointer, and the argument's
// bytes, a view of the request now, were one more while they were copied.
func TestHandleRequestAllocatesWhatItHandsOn(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	a := NewAdapter(vtime.DefaultCostModel())
	a.Register("Bench", lengthServant{})
	req := EncodeRequest(&Request{ClientID: "c1", ReqID: 7, Object: "Bench", Operation: "work",
		Args: []codec.Value{codec.Bytes(make([]byte, 200))}})
	var cpu vtime.Server
	serve := func() {
		res, err := a.HandleRequest(&cpu, req, envelopeRoom, 0, vtime.Ledger{})
		if err != nil || res.Reply.Status != StatusOK || res.Reply.Results[0].Int != 200 {
			t.Fatalf("served %+v, %v", res.Reply, err)
		}
	}
	serve() // meets the names
	if allocs := testing.AllocsPerRun(100, serve); allocs != 3 {
		t.Errorf("HandleRequest: %v allocations, want 3 (args, results, reply buffer)", allocs)
	}
}
