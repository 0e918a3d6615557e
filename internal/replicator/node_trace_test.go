package replicator_test

import (
	"testing"
	"time"

	"versadep/internal/replication"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/vtime"
)

// The node-level trace wiring: one recorder per process, threaded through
// every layer, reachable via TraceSnapshot on both node types.
func TestNodeTraceSnapshotWiring(t *testing.T) {
	net := simnet.New(simnet.WithSeed(97))
	defer net.Close()
	c := startCluster(t, net, 3, replication.WarmPassive, 5, nil)
	cl := startTestClient(t, net, "client", c.members())

	const reqs = 10
	var vt vtime.Time
	for i := 1; i <= reqs; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		vt = out.DoneVT
	}

	// Client side: ORB invocations and interceptor deliveries.
	cs := cl.TraceSnapshot()
	if got := cs.Get(trace.SubORB, "invocations"); got != reqs {
		t.Fatalf("client orb.invocations = %d, want %d", got, reqs)
	}
	if got := cs.Get(trace.SubInterceptor, "crossings"); got < reqs {
		t.Fatalf("client intercept.crossings = %d, want >= %d", got, reqs)
	}
	if got := cs.Get(trace.SubInterceptor, "replies_delivered"); got != reqs {
		t.Fatalf("client intercept.replies_delivered = %d, want %d", got, reqs)
	}

	// Replica side: every node saw the view changes of the staggered join;
	// across the group the primary checkpointed and a backup applied one.
	// A backup applies a checkpoint some time after the client has its
	// reply; the state it applies moves its Executed.
	c.await(t, 5*time.Second, func(recs map[string]replication.Stats) bool {
		return recs["rb"].Executed > 0 && recs["rc"].Executed > 0
	})
	var ckpts, applied int64
	for i, n := range c.nodes {
		ns := n.TraceSnapshot()
		if got := ns.Get(trace.SubGCS, "view_changes"); got < 1 {
			t.Fatalf("replica %d gcs.view_changes = %d, want >= 1", i, got)
		}
		ckpts += ns.Get(trace.SubReplication, "checkpoints")
		applied += ns.Get(trace.SubReplication, "checkpoints_applied")
	}
	if ckpts < 1 {
		t.Fatalf("group replication.checkpoints = %d, want >= 1", ckpts)
	}
	if applied < 1 {
		t.Fatalf("group replication.checkpoints_applied = %d, want >= 1", applied)
	}

	// A caller-supplied recorder must be the one the node uses.
	if c.nodes[0].Trace() == nil {
		t.Fatal("node recorder is nil")
	}
}
