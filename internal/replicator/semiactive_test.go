package replicator_test

import (
	"testing"
	"time"

	"versadep/internal/replication"
	"versadep/internal/simnet"
	"versadep/internal/vtime"
)

func TestSemiActiveOnlyLeaderReplies(t *testing.T) {
	net := simnet.New(simnet.WithSeed(101))
	defer net.Close()
	c := startCluster(t, net, 3, replication.SemiActive, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 10; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("add %d returned %d", i, got)
		}
		vt = out.DoneVT
	}
	time.Sleep(100 * time.Millisecond)
	// Every replica executed everything (hot followers)...
	for i, node := range c.nodes {
		st := node.Engine().StatsSnapshot()
		if st.RequestsExecuted != 10 {
			t.Fatalf("replica %d executed %d, want 10", i, st.RequestsExecuted)
		}
		if st.RequestsLogged != 0 {
			t.Fatalf("replica %d logged %d requests; semi-active has no logs", i, st.RequestsLogged)
		}
	}
	// ...and every follower's state matches.
	for i, app := range c.apps {
		if got := app.value("x"); got != 10 {
			t.Fatalf("replica %d state = %d", i, got)
		}
	}
}

func TestSemiActiveUsesLessBandwidthThanActive(t *testing.T) {
	run := func(style replication.Style) int64 {
		net := simnet.New(simnet.WithSeed(103))
		defer net.Close()
		c := startCluster(t, net, 3, style, 0, nil)
		cl := startTestClient(t, net, "client", c.members())
		net.ResetStats()
		var vt vtime.Time
		for i := 0; i < 20; i++ {
			out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
			if err != nil {
				t.Fatal(err)
			}
			vt = out.DoneVT
		}
		// The client returns on the first reply; the other replicas' replies
		// to the last requests may still be on their way out. Heartbeats and
		// acks are control sends and not accounted, so the count settles.
		bytes := net.Stats().BytesSent
		for {
			time.Sleep(20 * time.Millisecond)
			next := net.Stats().BytesSent
			if next == bytes {
				return bytes
			}
			bytes = next
		}
	}
	active := run(replication.Active)
	semi := run(replication.SemiActive)
	// Active sends three replies per request, semi-active one: the byte
	// difference must be substantial.
	if float64(semi) > 0.8*float64(active) {
		t.Fatalf("semi-active bytes %d not meaningfully below active %d", semi, active)
	}
}

func TestSemiActiveInstantFailover(t *testing.T) {
	net := simnet.New(simnet.WithSeed(107))
	defer net.Close()
	c := startCluster(t, net, 3, replication.SemiActive, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 6; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	// Kill the leader: followers are hot, no replay or restore needed;
	// the new leader answers retries from its own cache and continues.
	net.Crash(c.nodes[0].Addr())
	out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
	if err != nil {
		t.Fatalf("invoke after leader crash: %v", err)
	}
	if got := out.Results[0].Int; got != 7 {
		t.Fatalf("post-failover add returned %d, want 7", got)
	}
	st := c.nodes[1].Engine().StatsSnapshot()
	if st.Failovers != 0 {
		t.Fatalf("semi-active failover triggered a replay path: %+v", st)
	}
}

func TestSwitchActiveToSemiActiveInstant(t *testing.T) {
	net := simnet.New(simnet.WithSeed(109))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 20; i++ {
		if i == 10 {
			c.nodes[0].Engine().RequestSwitch(replication.SemiActive, vt)
		}
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("result %d = %d across A->SA switch", i, got)
		}
		vt = out.DoneVT
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		ok := true
		for _, n := range c.nodes {
			if n.Engine().Style() != replication.SemiActive {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A->SA switch never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSwitchWarmPassiveToSemiActive(t *testing.T) {
	net := simnet.New(simnet.WithSeed(113))
	defer net.Close()
	c := startCluster(t, net, 3, replication.WarmPassive, 5, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 24; i++ {
		if i == 8 {
			// Passive -> semi-active needs the closing checkpoint
			// (Figure 5 case 1 generalized): backups sync, then execute.
			c.nodes[1].Engine().RequestSwitch(replication.SemiActive, vt)
		}
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("result %d = %d across WP->SA switch", i, got)
		}
		vt = out.DoneVT
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.nodes[2].Engine().Style() != replication.SemiActive {
		if time.Now().After(deadline) {
			t.Fatalf("WP->SA switch stuck at %v", c.nodes[2].Engine().Style())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// After completion, the erstwhile backups execute everything.
	deadline = time.Now().Add(3 * time.Second)
	for c.apps[2].value("x") != 24 {
		if time.Now().After(deadline) {
			t.Fatalf("follower state = %d after switch, want 24", c.apps[2].value("x"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
