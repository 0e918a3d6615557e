package replicator_test

import (
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// scribbler is a servant that treats its arguments as its own memory: it
// records a checksum of the blob it was handed, then overwrites the blob.
// That is allowed — codec.Decoder.Value is where user code takes delivery
// of bytes it owns — and must stay invisible to every other holder of the
// request.
type scribbler struct {
	mu   sync.Mutex
	seen []uint32
}

func (s *scribbler) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	if op != "scribble" || len(args) != 1 {
		return nil, fmt.Errorf("scribble wants one blob")
	}
	blob := args[0].Byt
	sum := crc32.ChecksumIEEE(blob)
	for i := range blob {
		blob[i] = 0xEE
	}
	s.mu.Lock()
	s.seen = append(s.seen, sum)
	s.mu.Unlock()
	return []codec.Value{codec.Uint(uint64(sum))}, nil
}

func (s *scribbler) sums() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint32(nil), s.seen...)
}

// TestServantMayScribbleOnItsArguments runs three active replicas on a
// fabric that shares one request buffer between them (and corrupts,
// duplicates and reorders), with a servant that overwrites its 4 KB
// argument at every replica. Each replica must still have been handed the
// bytes the client sent — one replica's scribbling reaching another's
// delivery, or the client's retransmission buffer, is the bug this guards
// against; -race reports it even when the checksums happen to survive.
func TestServantMayScribbleOnItsArguments(t *testing.T) {
	net := simnet.New(simnet.WithSeed(61))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	apps := make([]*scribbler, len(c.nodes))
	for i, node := range c.nodes {
		apps[i] = &scribbler{}
		node.Register("Scribbler", apps[i])
	}
	cl := startTestClient(t, net, "client", c.members(), func(cfg *replicator.ClientConfig) {
		cfg.Timeout = 150 * time.Millisecond
		cfg.Retries = 40
	})

	net.SetLink("*", "*", transport.Rule{Corrupt: 0.03, Dup: 0.10, Reorder: 0.10})

	const requests = 30
	want := make([]uint32, requests)
	var vt vtime.Time
	for i := range want {
		blob := make([]byte, 4096)
		for j := range blob {
			blob[j] = byte(i*31 + j)
		}
		want[i] = crc32.ChecksumIEEE(blob)
		out, err := cl.ORB().Invoke("Scribbler", "scribble", []codec.Value{codec.Bytes(blob)}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := uint32(out.Results[0].Uint); got != want[i] {
			t.Fatalf("request %d: the replying replica was handed bytes with checksum %08x, client sent %08x", i, got, want[i])
		}
		if crc32.ChecksumIEEE(blob) != want[i] {
			t.Fatalf("request %d: the client's own argument buffer was written to", i)
		}
		vt = out.DoneVT
	}

	deadline := time.Now().Add(10 * time.Second)
	for i, app := range apps {
		for len(app.sums()) < requests {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d executed %d of %d requests", i, len(app.sums()), requests)
			}
			time.Sleep(5 * time.Millisecond)
		}
		got := app.sums()
		if len(got) != requests {
			t.Fatalf("replica %d executed %d requests, want %d", i, len(got), requests)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("replica %d, request %d: handed bytes with checksum %08x, client sent %08x", i, r, got[r], want[r])
			}
		}
	}
}
