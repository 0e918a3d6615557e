package replicator

import (
	"testing"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/trace/span"
)

// TestRequestSpanKey: the key the gcs layer is handed for a request
// envelope and for the raw reply coming back is the request's, a payload
// with no request identity has none, and for a client the recorder has met
// the mapping allocates nothing — it runs at every frame a member sends,
// receives and orders.
func TestRequestSpanKey(t *testing.T) {
	sp := span.New(8)
	key := requestSpanKey(sp)
	req := replication.WrapRequest(orb.EncodeRequest(&orb.Request{ClientID: "c1", ReqID: 7,
		Object: "Bench", Operation: "work", Args: []codec.Value{codec.Int(1)}}))
	rep := orb.EncodeReply(&orb.Reply{ClientID: "c1", ReqID: 7, Status: orb.StatusOK})
	ckpt := replication.Encode(&replication.Msg{Kind: replication.KindCheckpoint, CkptSerial: 3})

	want := span.RequestKey("c1", 7)
	if got := key(req); got != want {
		t.Errorf("request envelope maps to %v, want %v", got, want)
	}
	if got := key(rep); got != want {
		t.Errorf("reply maps to %v, want %v", got, want)
	}
	if got := key(ckpt); !got.IsZero() {
		t.Errorf("a checkpoint maps to %v, want no key", got)
	}
	if got := requestSpanKey(nil)(req); !got.IsZero() {
		t.Errorf("with no recorder the request maps to %v, want no key", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { key(req); key(rep); key(ckpt) }); allocs != 0 {
		t.Errorf("mapping payloads of a known client: %v allocations, want 0", allocs)
	}
}
