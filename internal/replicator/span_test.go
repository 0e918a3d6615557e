package replicator_test

import (
	"testing"
	"time"

	"versadep/internal/replication"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// The causal-span tentpole's core guarantee: for every request trace, the
// per-component sum of span durations across all processes equals the
// vtime.Ledger breakdown the client observed for that invocation — the
// spans ARE the Figure 3 attribution, not an approximation of it.
func TestSpanBreakdownMatchesLedger(t *testing.T) {
	net := simnet.New(simnet.WithSeed(11))
	defer net.Close()
	c := startCluster(t, net, 1, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	ledgers := make(map[string]vtime.Ledger)
	for i := 1; i <= 5; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		ledgers[span.RequestTrace(out.Reply.ClientID, out.Reply.ReqID)] = out.Ledger
		vt = out.DoneVT
	}

	merged := trace.Merge(cl.TraceSnapshot(), c.nodes[0].TraceSnapshot())
	if len(merged.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	comps := []vtime.Component{
		vtime.ComponentApp, vtime.ComponentORB, vtime.ComponentGC, vtime.ComponentReplicator,
	}
	for key, led := range ledgers {
		bd := span.Breakdown(merged.Spans, key)
		for _, comp := range comps {
			want := led.Of(comp)
			if got := bd[comp.String()]; got != want {
				t.Errorf("%s %s: span sum %v, ledger %v (timeline: %+v)",
					key, comp, got, want, span.Timeline(merged.Spans, key))
			}
		}
	}
}

// The switch span's duration must equal the engine's own switching-delay
// measurement on every replica, and the merged switch trace must carry the
// full Figure 5 milestone sequence.
func TestSwitchSpanMatchesDelayCounter(t *testing.T) {
	net := simnet.New(simnet.WithSeed(23))
	defer net.Close()
	c := startCluster(t, net, 3, replication.WarmPassive, 3, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 6; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		vt = out.DoneVT
	}
	c.nodes[0].Engine().RequestSwitch(replication.Active, vt)
	deadline := time.Now().Add(3 * time.Second)
	for {
		done := 0
		for _, n := range c.nodes {
			if n.Engine().Style() == replication.Active {
				done++
			}
		}
		if done == len(c.nodes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("switch incomplete: %d/%d replicas active", done, len(c.nodes))
		}
		time.Sleep(5 * time.Millisecond)
	}

	snaps := make([]trace.Snapshot, 0, len(c.nodes))
	for i, n := range c.nodes {
		snap := n.TraceSnapshot()
		snaps = append(snaps, snap)
		delay := snap.Get(trace.SubReplication, "switch_last_delay_us")
		var sw *span.Span
		for j := range snap.Spans {
			if snap.Spans[j].Name == "switch" {
				sw = &snap.Spans[j]
			}
		}
		if sw == nil {
			t.Fatalf("replica %d recorded no switch span", i)
		}
		if sw.Note != "" {
			t.Errorf("replica %d switch span note = %q, want normal close", i, sw.Note)
		}
		if got := sw.Duration().Microseconds(); got != delay {
			t.Errorf("replica %d switch span = %dµs, switch_last_delay_us = %d", i, got, delay)
		}
	}

	merged := trace.Merge(snaps...)
	if merged.SpansOpen != 0 {
		t.Errorf("merged SpansOpen = %d after switch quiesced, want 0", merged.SpansOpen)
	}
	var switchTrace string
	for _, s := range merged.Spans {
		if s.Name == "switch" {
			switchTrace = s.Trace
			break
		}
	}
	names := make(map[string]bool)
	for _, s := range span.Timeline(merged.Spans, switchTrace) {
		names[s.Name] = true
	}
	for _, want := range []string{"switch_start", "state_transfer", "switch_done", "switch"} {
		if !names[want] {
			t.Errorf("merged switch timeline missing %q span", want)
		}
	}
}

// Span reconstruction across a view change at cluster scale: a switch
// requested just as the primary is cut off and crashed must leave no span
// open on any survivor once the group re-forms — the promoted backup
// records the failover trace, the re-sequenced switch still closes, and
// requests issued after the crash get complete causal timelines. (The
// engine-level close-with-failover-annotation semantics are pinned by
// replication.TestMidSwitchCrashClosesSwitchSpanWithFailoverNote, where the
// crash/switch interleaving is driven deterministically.)
func TestViewChangeLeavesNoOpenSpans(t *testing.T) {
	net := simnet.New(simnet.WithSeed(71))
	defer net.Close()
	c := startCluster(t, net, 3, replication.WarmPassive, 100, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 8; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	// Cut the primary off and crash it just as the switch is requested:
	// its closing checkpoint never arrives, so the survivors' switch spans
	// can only be closed by the view change (Figure 5, case 1 crash branch).
	net.SetLink(c.nodes[0].Addr(), "*", transport.Rule{Drop: 1.0})
	c.nodes[1].Engine().RequestSwitch(replication.Active, vt)
	time.Sleep(30 * time.Millisecond)
	net.Crash(c.nodes[0].Addr())

	if _, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt); err != nil {
		t.Fatalf("invoke after mid-switch crash: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.nodes[1].Engine().Style() != replication.Active ||
		c.nodes[2].Engine().Style() != replication.Active {
		if time.Now().After(deadline) {
			t.Fatal("survivors never finished the aborted switch")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var snaps []trace.Snapshot
	for i, n := range c.nodes[1:] {
		snap := n.TraceSnapshot()
		snaps = append(snaps, snap)
		if snap.SpansOpen != 0 {
			t.Errorf("survivor %d leaked %d open spans across the view change", i+1, snap.SpansOpen)
		}
	}
	snaps = append(snaps, cl.TraceSnapshot())
	merged := trace.Merge(snaps...)

	var failoverSeen, switchClosed bool
	for _, s := range merged.Spans {
		if s.Name == "failover" {
			failoverSeen = true
		}
		if s.Name == "switch" && !s.End.Before(s.Start) {
			switchClosed = true
		}
	}
	if !failoverSeen {
		t.Error("no survivor recorded a failover root span")
	}
	if !switchClosed {
		t.Error("no survivor recorded a closed switch span")
	}

	// The request issued after the crash must reconstruct end-to-end: a
	// root invoke span plus executed work on the new primary.
	postKey := span.RequestTrace(cl.Addr(), 9)
	names := make(map[string]bool)
	for _, s := range span.Timeline(merged.Spans, postKey) {
		names[s.Name] = true
	}
	for _, want := range []string{"invoke", "replicator_deliver", "app_execute", "replicator_reply"} {
		if !names[want] {
			t.Errorf("post-crash request %s missing %q span (got %v)", postKey, want, names)
		}
	}
}
