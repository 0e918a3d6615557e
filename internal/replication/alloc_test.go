package replication

import (
	"testing"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/simnet"
	"versadep/internal/vtime"
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
	var m Msg
	alloctest.SizeBlind(t, "decode", WrapRequest, func(b []byte) {
		if err := decode(b, nil, &m); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.SizeBlind(t, "PeekRequestViop", WrapRequest, func(b []byte) {
		if _, ok := PeekRequestViop(b); !ok {
			t.Fatal("peek failed")
		}
	})
}

// lenServant answers with the length of its first argument: one
// allocation, its result list.
type lenServant struct{}

func (lenServant) Invoke(_ string, args []codec.Value) ([]codec.Value, error) {
	return []codec.Value{codec.Int(int64(len(args[0].Byt)))}, nil
}

// TestRequestDeliveryAllocatesOnlyInTheAdapter: a replica delivered a
// request decodes its envelope into a value on its stack, so an executing
// replica that sends no reply (a semi-active follower) allocates exactly
// what its adapter allocates serving the request alone — the servant's
// arguments and results and the reply's buffer — and nothing of its own.
// Delivery cost one allocation more while the envelope was decoded by
// pointer.
func TestRequestDeliveryAllocatesOnlyInTheAdapter(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	net := simnet.New(simnet.WithSeed(3))
	t.Cleanup(func() { net.Close() })
	m := openMemberOn(t, net, "r2")
	adapter := orb.NewAdapter(vtime.DefaultCostModel())
	adapter.Register("Obj", lenServant{})
	e := NewEngine(m, adapter, Config{Style: SemiActive, Model: vtime.DefaultCostModel(), State: &memState{}})
	t.Cleanup(e.Stop)

	request := func(rid uint64) []byte {
		return orb.EncodeRequest(&orb.Request{ClientID: "c1", ReqID: rid, Object: "Obj", Operation: "len",
			Args: []codec.Value{codec.Bytes(make([]byte, 200))}})
	}
	const warm, runs = 100, 200
	events := make([]gcs.Event, warm+runs+1)
	for i := range events {
		events[i] = gcs.Event{Kind: gcs.EventMessage, Sender: "c1", Seq: uint64(i + 1), Payload: WrapRequest(request(uint64(i + 1)))}
	}
	var delivered float64
	var executed int
	e.do(func() {
		// A follower of r1: it executes every request and replies to none.
		e.view = gcs.View{ID: 2, Members: []string{"r1", "r2"}}
		for _, ev := range events[:warm] {
			e.handleEvent(ev)
		}
		next := events[warm:]
		delivered = testing.AllocsPerRun(runs, func() {
			e.handleEvent(next[0])
			next = next[1:]
		})
		executed = e.stats.RequestsExecuted
	})
	if executed != len(events) {
		t.Fatalf("%d requests executed, want %d", executed, len(events))
	}
	var cpu vtime.Server
	viop := request(1)
	served := testing.AllocsPerRun(runs, func() {
		if _, err := adapter.HandleRequest(&cpu, viop, m.DirectRoom(), 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	})
	if delivered != served {
		t.Errorf("delivering a request: %v allocations, want %v (the adapter's own)", delivered, served)
	}
}
