package replicator_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"versadep/internal/faults"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

func TestLossDuringStyleSwitch(t *testing.T) {
	net := simnet.New(simnet.WithSeed(211))
	defer net.Close()
	c := startCluster(t, net, 3, replication.WarmPassive, 5, nil)
	cl := startTestClient(t, net, "client", c.members())

	// 10% loss on every link while a switch runs: retransmission and the
	// switch protocol must both cope.
	net.SetLink("*", "*", transport.Rule{Drop: 0.10})
	var vt vtime.Time
	for i := 1; i <= 30; i++ {
		if i == 10 {
			c.nodes[0].Engine().RequestSwitch(replication.Active, vt)
		}
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d under loss: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("result %d = %d under loss+switch", i, got)
		}
		vt = out.DoneVT
	}
	c.await(t, 5*time.Second, allStyle(replication.Active))
}

func TestPartitionedBackupCatchesUpAfterHeal(t *testing.T) {
	net := simnet.New(simnet.WithSeed(223))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	// Partition rc away briefly — short enough that the view may or may
	// not exclude it; either way it must converge after healing.
	var sched faults.Schedule
	sched.At(0, "partition-rc", faults.Partition(c.nodes[2].Addr(), 1)).
		At(40*time.Millisecond, "heal", faults.Heal())
	done := faults.Run(net, &sched)

	var vt vtime.Time
	for i := 1; i <= 15; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d during partition: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("result %d = %d", i, got)
		}
		vt = out.DoneVT
	}
	<-done

	// rc converges to the full state (directly, or via exclusion +
	// rejoin + state transfer).
	c.await(t, 10*time.Second, func(recs map[string]replication.Stats) bool {
		return len(recs) == 3 && replicator.CaughtUp(recs)
	})
	if got := c.apps[2].value("x"); got != 15 {
		t.Fatalf("partitioned replica stuck at %d/15", got)
	}
}

func TestTimingFaultDoesNotBreakConsistency(t *testing.T) {
	net := simnet.New(simnet.WithSeed(227))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	// A performance fault: +5ms virtual delay on the sequencer's
	// outbound links slows everything but must not reorder or lose.
	net.SetLink(c.nodes[0].Addr(), "*", transport.Rule{Delay: 5 * vtime.Millisecond})
	var vt vtime.Time
	var lastRTT vtime.Duration
	for i := 1; i <= 10; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("result %d = %d under timing fault", i, got)
		}
		vt = out.DoneVT
		lastRTT = out.RTT()
	}
	if lastRTT < 5*vtime.Millisecond {
		t.Fatalf("timing fault invisible in RTT: %v", lastRTT)
	}
}

func TestCascadingCrashesDownToOneReplica(t *testing.T) {
	net := simnet.New(simnet.WithSeed(229))
	defer net.Close()
	c := startCluster(t, net, 3, replication.WarmPassive, 4, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	counter := int64(0)
	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			counter++
			out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
			if err != nil {
				t.Fatalf("invoke %d: %v", counter, err)
			}
			if got := out.Results[0].Int; got != counter {
				t.Fatalf("result = %d, want %d", got, counter)
			}
			vt = out.DoneVT
		}
	}
	step(6)
	net.Crash(c.nodes[0].Addr()) // first primary dies
	step(6)
	net.Crash(c.nodes[1].Addr()) // second primary dies
	step(6)
	// A single survivor still serves (zero redundancy left, as the
	// paper's degraded modes describe).
	st := c.nodes[2].Engine().StatsSnapshot()
	if st.Role != replication.RolePrimary {
		t.Fatalf("lone survivor role = %v", st.Role)
	}
	if got := c.apps[2].value("x"); got != 18 {
		t.Fatalf("survivor state = %d, want 18", got)
	}
}

func TestBackupCrashDuringCheckpointTraffic(t *testing.T) {
	net := simnet.New(simnet.WithSeed(233))
	defer net.Close()
	// Checkpoint every 2 requests: checkpoints constantly in flight.
	c := startCluster(t, net, 3, replication.WarmPassive, 2, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 8; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
		_ = out
	}
	net.Crash(c.nodes[1].Addr()) // a backup dies mid-stream
	for i := 9; i <= 16; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d after backup crash: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("result %d = %d", i, got)
		}
		vt = out.DoneVT
	}
	// Then the primary dies too: the remaining backup recovers the full
	// state from checkpoints + log replay.
	net.Crash(c.nodes[0].Addr())
	out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Results[0].Int; got != 17 {
		t.Fatalf("post-double-crash result = %d, want 17", got)
	}
}

func TestRuntimeCheckpointFrequencyKnob(t *testing.T) {
	net := simnet.New(simnet.WithSeed(239))
	defer net.Close()
	c := startCluster(t, net, 2, replication.WarmPassive, 100, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 6; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	// Only the join-time state transfer may have checkpointed so far
	// (every-100 periodic checkpoints have not fired in 6 requests).
	baseline := c.nodes[0].Engine().StatsSnapshot().Checkpoints
	if baseline > 1 {
		t.Fatalf("premature periodic checkpoints: %d", baseline)
	}
	// Retune the knob through the agreed stream; both replicas adopt it.
	c.nodes[1].Engine().SetCheckpointEvery(2, vt)
	c.await(t, 3*time.Second, func(recs map[string]replication.Stats) bool {
		return recs["ra"].CheckpointEvery == 2 && recs["rb"].CheckpointEvery == 2
	})
	for i := 7; i <= 12; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	c.await(t, 3*time.Second, func(recs map[string]replication.Stats) bool {
		return recs["ra"].Checkpoints >= baseline+2
	})
	// Invalid values are refused.
	if err := c.nodes[0].Engine().SetCheckpointEvery(0, vt); !errors.Is(err, replication.ErrBadInterval) {
		t.Fatalf("SetCheckpointEvery(0) = %v, want %v", err, replication.ErrBadInterval)
	}
	if got := c.nodes[0].Engine().StatsSnapshot().CheckpointEvery; got != 2 {
		t.Fatalf("invalid retune applied: %d", got)
	}
}

// A reply frame the client loses is re-sent by the member's outbox. With
// several requests in flight, the other callers' requests are answered
// meanwhile, and the re-sent reply arrives far behind the newest one: it
// must still answer the invocation waiting for it. Were it taken for a
// duplicate, the ORB would retransmit, and a replica whose reply cache has
// moved on could not answer the retry, so the invocation would fail.
func TestReplyResentByTheOutboxReachesTheCaller(t *testing.T) {
	net := simnet.New(simnet.WithSeed(229))
	defer net.Close()
	c := startCluster(t, net, 1, replication.Active, 0, nil)
	rec := trace.New()
	cl := startTestClient(t, net, "client", c.members(), func(cfg *replicator.ClientConfig) {
		cfg.Timeout = 150 * time.Millisecond
		cfg.Retries = 2
		cfg.Trace = rec
	})
	net.SetLink("ra", "client", transport.Rule{Drop: 0.05})

	const callers, calls = 8, 400
	var failed atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			var vt vtime.Time
			for i := 1; i <= calls; i++ {
				out, err := cl.Invoke("Counter", "add", []interface{}{key, 1}, vt)
				if err != nil {
					failed.Add(1)
					t.Errorf("%s: invoke %d: %v", key, i, err)
					continue
				}
				vt = out.DoneVT
			}
		}(fmt.Sprintf("k%d", k))
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d invocations failed (orb.retransmits %d, intercept.duplicates_suppressed %d)",
			n, callers*calls, rec.Value(trace.SubORB, "retransmits"),
			rec.Value(trace.SubInterceptor, "duplicates_suppressed"))
	}
	for k := 0; k < callers; k++ {
		if got := c.apps[0].value(fmt.Sprintf("k%d", k)); got != calls {
			t.Fatalf("k%d = %d, want %d: an add ran twice or never", k, got, calls)
		}
	}
}
