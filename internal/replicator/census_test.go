package replicator_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

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
// replies are pushed up the stack as calls: on a simnet endpoint, three —
// the endpoint's pump, the demux, and the group client's resend ticker —
// and for a sharded client over N dialed shards, 2+N (one ticker per shard).
// Stop returns the process to where it started.
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
		if got := settle(base + 3); got > base+3 {
			t.Errorf("StartClient added %d goroutines, want at most 3", got-base)
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
		if got := settle(base + 2 + shards); got > base+2+shards {
			t.Errorf("sharded client over %d shards added %d goroutines, want at most %d", shards, got-base, 2+shards)
		}
		c.Stop()
		if got := settle(base); got > base {
			t.Errorf("%d goroutines left after Stop", got-base)
		}
	})
}
