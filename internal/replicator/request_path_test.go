package replicator_test

import (
	"fmt"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/transport/tcptransport"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// BenchmarkRequestPath prices one request end to end, as the wall-clock
// benchmark's workloads make it: BenchApp's "work" with a 200 B argument, a
// 160 B reply and 6 KB of state checkpointed every fifth request, one
// request at a time, every node handed no trace recorder. simnet/active3 is
// three active replicas and a client on the simulated network; tcp/passive3
// is three warm-passive replicas and a client on loopback TCP endpoints.
// With -benchmem, allocs/op is allocations per request, summed over every
// node in the process; scripts/allocs.sh breaks it down by function.
func BenchmarkRequestPath(b *testing.B) {
	b.Run("simnet/active3", func(b *testing.B) {
		net := simnet.New(simnet.WithSeed(1))
		b.Cleanup(func() { net.Close() })
		benchRequests(b, replicator.SimFabric(net), replication.Active)
	})
	b.Run("tcp/passive3", func(b *testing.B) {
		benchRequests(b, loopbackFabric(b, "ra", "rb", "rc", "client"), replication.WarmPassive)
	})
}

// loopbackFabric binds one loopback TCP endpoint per name, each knowing
// every other's address before any node starts.
func loopbackFabric(tb testing.TB, names ...string) replicator.Fabric {
	tb.Helper()
	eps := make(map[string]*tcptransport.Endpoint, len(names))
	peers := make([]map[string]string, len(names))
	for i, name := range names {
		peers[i] = make(map[string]string, len(names))
		ep, err := tcptransport.Listen(name, "127.0.0.1:0", peers[i])
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = ep.Close() })
		eps[name] = ep
	}
	for _, m := range peers {
		for name, ep := range eps {
			m[name] = ep.BoundAddr()
		}
	}
	return replicator.Fabric{
		Endpoint: func(addr string) (transport.MultiEndpoint, error) {
			if ep := eps[addr]; ep != nil {
				return ep, nil
			}
			return nil, fmt.Errorf("no loopback endpoint named %q", addr)
		},
		Crashed: func(string) bool { return false },
	}
}

// benchRequests starts three replicas of style and a client on fab, warms
// them up and times b.N requests.
func benchRequests(b *testing.B, fab replicator.Fabric, style replication.Style) {
	model := vtime.DefaultCostModel()
	g := replicator.NewGroup(fab)
	b.Cleanup(g.Close)
	var seeds []string
	for i, addr := range []string{"ra", "rb", "rc"} {
		app := workload.NewBenchApp(6144, 15*vtime.Microsecond, 160)
		node, err := g.Add(addr, seeds, replicator.ReplicaConfig{
			Replication: replication.Config{Style: style, CheckpointEvery: 5, Model: model, State: app},
		})
		if err != nil {
			b.Fatal(err)
		}
		node.Register("Bench", app)
		if err := g.WaitSize(i+1, 10*time.Second); err != nil {
			b.Fatal(err)
		}
		seeds = []string{"ra"}
	}
	cl, err := g.Client("client", replicator.ClientConfig{
		Members: g.Members(),
		Model:   model,
		Timeout: 500 * time.Millisecond,
		Retries: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	args := []codec.Value{codec.Bytes(make([]byte, 200))}
	drive := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cl.ORB().Invoke("Bench", "work", args, 0); err != nil {
				b.Fatalf("invoke: %v", err)
			}
		}
	}
	drive(500) // tables filled, queues, rings and sender buffers grown
	b.ReportAllocs()
	b.ResetTimer()
	drive(b.N)
}
