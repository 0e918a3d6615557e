package replicator_test

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
)

// addCounter starts a counter replica on g, joining through seeds.
func addCounter(t *testing.T, g *replicator.Group, net *simnet.Network, addr string, seeds []string) *counterApp {
	t.Helper()
	app := newCounterApp()
	node, err := g.Add(addr, seeds, replicator.ReplicaConfig{
		Replication: replication.Config{Style: replication.Active, Model: net.CostModel(), State: app},
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Register("Counter", app)
	return app
}

// checkGroup waits for the group to settle on want and checks that Live,
// Members and WaitSize say what each live node's own view says.
func checkGroup(t *testing.T, g *replicator.Group, step string, want ...string) {
	t.Helper()
	if err := g.WaitSize(len(want), 10*time.Second); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got := g.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Members() = %v, want %v", step, got, want)
	}
	live := g.Live()
	if len(live) != len(want) {
		t.Fatalf("%s: %d live nodes, want %d", step, len(live), len(want))
	}
	for i, n := range live {
		if n.Addr() != want[i] {
			t.Fatalf("%s: Live()[%d] = %s, want %s", step, i, n.Addr(), want[i])
		}
		v, err := n.Member().View()
		if err != nil {
			t.Fatalf("%s: live node %s has no view: %v", step, n.Addr(), err)
		}
		got := append([]string(nil), v.Members...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s sees view %v, the group says %v", step, n.Addr(), got, want)
		}
	}
}

// TestGroupLifecycle walks the #replicas knob both ways on the harness —
// boot three, add a fourth, crash the primary, retire one member through the
// agreed stream and one directly — with a client invoking throughout, and
// checks at every step that the group's account of itself is the nodes' own.
// Close then returns the process to its pre-boot goroutine census.
func TestGroupLifecycle(t *testing.T) {
	base := baseline()
	net := simnet.New(simnet.WithSeed(61))
	g := replicator.NewGroup(replicator.SimFabric(net))

	apps := make(map[string]*counterApp)
	var booted, seeds []string
	for _, addr := range []string{"ra", "rb", "rc"} {
		apps[addr] = addCounter(t, g, net, addr, seeds)
		booted, seeds = append(booted, addr), []string{"ra"}
		checkGroup(t, g, "boot "+addr, booted...)
	}

	// Timeout and Retries are left at their defaults: enough to ride out
	// the crash below.
	cl, err := g.Client("c1", replicator.ClientConfig{Members: g.Members(), Model: net.CostModel()})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	invoke := func(step string) {
		t.Helper()
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, 0)
		if err != nil {
			t.Fatalf("%s: invoke: %v", step, err)
		}
		if total++; out.Results[0].Int != total {
			t.Fatalf("%s: add returned %d, want %d", step, out.Results[0].Int, total)
		}
	}
	invoke("booted")

	apps["rd"] = addCounter(t, g, net, "rd", g.Members())
	checkGroup(t, g, "added rd", "ra", "rb", "rc", "rd")
	invoke("added rd")

	net.Crash("ra") // the fabric's operation; the group observes it
	checkGroup(t, g, "crashed ra", "rb", "rc", "rd")
	invoke("crashed ra")

	// The directive retires the highest-ranked member; it leaves on its own
	// and the group notices its member has stopped.
	if err := g.Actuator(nil).Shrink(); err != nil {
		t.Fatal(err)
	}
	checkGroup(t, g, "shrunk", "rb", "rc")
	invoke("shrunk")

	if err := g.Retire("rc"); err != nil {
		t.Fatal(err)
	}
	checkGroup(t, g, "retired rc", "rb")
	invoke("retired rc")
	if err := g.Retire("rc"); err == nil {
		t.Fatal("double retirement accepted")
	}

	if got := len(g.Nodes()); got != 4 {
		t.Fatalf("Nodes() lists %d replicas, want all 4 ever added", got)
	}
	if !replicator.Eventually(3*time.Second, 5*time.Millisecond, func() bool { return apps["rb"].value("x") == total }) {
		t.Fatalf("survivor holds %d, want %d", apps["rb"].value("x"), total)
	}
	// One snapshot of everything: the client's counters and those of the
	// replicas, departed ones included.
	snap := g.TraceSnapshot()
	if got := snap.Get(trace.SubORB, "invocations"); got != total {
		t.Fatalf("merged snapshot counts %d invocations, want %d", got, total)
	}
	if snap.Get(trace.SubReplication, "crashes_observed") == 0 || snap.Get(trace.SubReplication, "retirements") == 0 {
		t.Fatal("merged snapshot misses the replicas' crash and retirement counters")
	}

	g.Close()
	net.Close()
	if got := settle(base); got > base {
		t.Errorf("%d goroutines left after Close", got-base)
	}
}
