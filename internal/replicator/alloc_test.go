package replicator_test

import (
	"runtime"
	"testing"

	"versadep/internal/codec"
	"versadep/internal/replication"
	"versadep/internal/simnet"
	"versadep/internal/vtime"
)

// requestAllocBudget is what one request may allocate end to end, summed
// over the client and three active replicas: 62.2 in most runs when the
// budget was set (57.5 to 63.9 over twenty), plus a tenth for the timers and
// heartbeats that run beside the requests. The wall-clock benchmark reports
// the same quantity as allocs_per_req on active3_simnet_c1; this holds it in
// tier-1. With a trace name formatted at every layer crossing and every
// address decoded afresh from every frame the same test read 157.
const requestAllocBudget = 70

// TestRequestAllocationBudget counts every allocation the process makes
// while one client drives 2,000 requests through three active replicas on
// the in-memory network, after 500 requests of warm-up (tables filled,
// queues and rings grown).
func TestRequestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	net := simnet.New(simnet.WithSeed(5))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "c1", c.members())

	args := []codec.Value{codec.String("x"), codec.Int(1)}
	var vt vtime.Time
	drive := func(n int) {
		for i := 0; i < n; i++ {
			out, err := cl.ORB().Invoke("Counter", "add", args, vt)
			if err != nil {
				t.Fatalf("invoke: %v", err)
			}
			vt = out.DoneVT
		}
	}
	const warmup, measured = 500, 2000
	drive(warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drive(measured)
	runtime.ReadMemStats(&after)

	perReq := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.1f allocations per request", perReq)
	if perReq > requestAllocBudget {
		t.Errorf("%.1f allocations per request, budget %d", perReq, requestAllocBudget)
	}
}
