package replicator_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/shard"
	"versadep/internal/simnet"
	"versadep/internal/vtime"
)

// settle polls the goroutine count until it is at most want (goroutines
// exit asynchronously after their stop signal) and returns the last reading.
func settle(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// baseline waits for goroutines left winding down by earlier tests, then
// returns the count.
func baseline() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		next := runtime.NumGoroutine()
		if next == n {
			break
		}
		n = next
	}
	return n
}

// TestClientGoroutineCensus pins what a client costs in goroutines now that
// replies are pushed up the stack as calls and the endpoint's pump runs the
// demux itself: on a simnet endpoint, two — the pump and the group client's
// resend ticker — and for a sharded client over N dialed shards, 1+N (one
// ticker per shard). Stop returns the process to where it started.
func TestClientGoroutineCensus(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	model := vtime.DefaultCostModel()

	t.Run("single group", func(t *testing.T) {
		base := baseline()
		ep, err := net.Endpoint("c1")
		if err != nil {
			t.Fatal(err)
		}
		c := replicator.StartClient(ep, replicator.ClientConfig{Members: []string{"ra", "rb", "rc"}, Model: model})
		if got := settle(base + 2); got > base+2 {
			t.Errorf("StartClient added %d goroutines, want at most 2", got-base)
		}
		c.Stop()
		if got := settle(base); got > base {
			t.Errorf("%d goroutines left after Stop", got-base)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		const shards = 3
		var groups []shard.Group
		for i := 0; i < shards; i++ {
			groups = append(groups, shard.Group{ID: i, Members: []string{fmt.Sprintf("s%da", i)}})
		}
		m := shard.NewMap(0, groups...)

		base := baseline()
		ep, err := net.Endpoint("c2")
		if err != nil {
			t.Fatal(err)
		}
		c := replicator.StartShardedClient(ep, replicator.ShardedClientConfig{
			Fetch: func() *shard.Map { return m }, Model: model,
			Timeout: time.Millisecond, Retries: 1, // nobody answers: each invocation only has to dial
		})
		// Invoke until every shard's wire has been dialed.
		dialed := map[int]bool{}
		for i := 0; len(dialed) < shards; i++ {
			if i == 1000 {
				t.Fatalf("keys reached only shards %v", dialed)
			}
			key := fmt.Sprintf("obj-%d", i)
			if g, _ := m.Lookup(key); !dialed[g.ID] {
				dialed[g.ID] = true
				_, _ = c.Invoke(key, "inc", nil, 0)
			}
		}
		if got := settle(base + 1 + shards); got > base+1+shards {
			t.Errorf("sharded client over %d shards added %d goroutines, want at most %d", shards, got-base, 1+shards)
		}
		c.Stop()
		if got := settle(base); got > base {
			t.Errorf("%d goroutines left after Stop", got-base)
		}
	})
}

// TestReplicaGoroutineCensus pins what a replica costs in goroutines on a
// simnet endpoint: four — the endpoint's pump, which runs the demux and
// hands frames to the member's inbox, the member's protocol loop and its
// event pump, and the engine's loop. A hand-off added between the transport
// and the engine shows up here. Stop returns the process to where it
// started.
func TestReplicaGoroutineCensus(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	base := baseline()
	ep, err := net.Endpoint("ra")
	if err != nil {
		t.Fatal(err)
	}
	app := newCounterApp()
	n := replicator.StartReplica(ep, replicator.ReplicaConfig{
		Replication: replication.Config{Style: replication.Active, Model: net.CostModel(), State: app},
	})
	n.Register("Counter", app)
	if !replicator.Eventually(5*time.Second, time.Millisecond, func() bool {
		_, err := n.Member().View()
		return err == nil
	}) {
		t.Fatal("the replica installed no view")
	}
	if got := settle(base + 4); got > base+4 {
		t.Errorf("StartReplica added %d goroutines, want at most 4", got-base)
	}
	n.Stop()
	if got := settle(base); got > base {
		t.Errorf("%d goroutines left after Stop", got-base)
	}
}
