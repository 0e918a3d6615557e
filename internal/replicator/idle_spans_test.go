package replicator_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/vtime"
)

// spanGroup is three active replicas and a client on simnet, each node
// handed the recorder rec returns (nil: the node makes its own).
type spanGroup struct {
	group  *replicator.Group
	client *replicator.ClientNode
	vt     vtime.Time
}

func startSpanGroup(tb testing.TB, rec func() *trace.Recorder) *spanGroup {
	tb.Helper()
	net := simnet.New(simnet.WithSeed(5))
	g := replicator.NewGroup(replicator.SimFabric(net))
	tb.Cleanup(func() {
		g.Close()
		net.Close()
	})
	var seeds []string
	for i := 0; i < 3; i++ {
		addr := fmt.Sprintf("r%c", 'a'+i)
		app := newCounterApp()
		node, err := g.Add(addr, seeds, replicator.ReplicaConfig{
			Replication: replication.Config{Style: replication.Active, Model: net.CostModel(), State: app},
			Trace:       rec(),
		})
		if err != nil {
			tb.Fatal(err)
		}
		node.Register("Counter", app)
		if err := g.WaitSize(i+1, 5*time.Second); err != nil {
			tb.Fatal(err)
		}
		seeds = []string{"ra"}
	}
	cl, err := g.Client("client", replicator.ClientConfig{
		Members: g.Members(),
		Model:   net.CostModel(),
		Timeout: 300 * time.Millisecond,
		Retries: 10,
		Trace:   rec(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &spanGroup{group: g, client: cl}
}

// drive makes n requests, one at a time.
func (s *spanGroup) drive(tb testing.TB, n int) {
	tb.Helper()
	args := []codec.Value{codec.String("x"), codec.Int(1)}
	for i := 0; i < n; i++ {
		out, err := s.client.ORB().Invoke("Counter", "add", args, s.vt)
		if err != nil {
			tb.Fatalf("invoke: %v", err)
		}
		s.vt = out.DoneVT
	}
}

// snapshots returns every node's trace snapshot, the client's last.
func (s *spanGroup) snapshots() []trace.Snapshot {
	var out []trace.Snapshot
	for _, n := range s.group.Nodes() {
		out = append(out, n.TraceSnapshot())
	}
	return append(out, s.client.TraceSnapshot())
}

// TestUncomposedNodeRecordsNoSpans: nodes handed no recorder keep their
// counters but record no spans, so a scrape costs the same however many
// requests they have served.
func TestUncomposedNodeRecordsNoSpans(t *testing.T) {
	s := startSpanGroup(t, func() *trace.Recorder { return nil })
	s.drive(t, 200)

	snaps := s.snapshots()
	for i, snap := range snaps {
		if len(snap.Spans) != 0 || snap.SpansOpen != 0 {
			t.Errorf("node %d: %d spans, %d open; want none", i, len(snap.Spans), snap.SpansOpen)
		}
	}
	for i, snap := range snaps[:3] {
		if snap.Get(trace.SubGCS, "view_changes") == 0 {
			t.Errorf("replica %d: gcs counters not kept: %v", i, snap.Counters)
		}
	}
	if got := snaps[3].Get(trace.SubORB, "invocations"); got != 200 {
		t.Errorf("client orb.invocations = %d, want 200", got)
	}

	// The fewest allocations over several tries: the count is process-wide,
	// and the group's own goroutines (heartbeats, acknowledgements trailing
	// the last request) can only add to it.
	node := s.group.Nodes()[0]
	scrapeAllocs := func() float64 {
		fewest := testing.AllocsPerRun(100, func() { node.TraceSnapshot() })
		for i := 0; i < 9; i++ {
			time.Sleep(time.Millisecond)
			fewest = min(fewest, testing.AllocsPerRun(100, func() { node.TraceSnapshot() }))
		}
		return fewest
	}
	early := scrapeAllocs()
	s.drive(t, 1800)
	if late := scrapeAllocs(); late != early {
		t.Errorf("a scrape allocates %.0f after 2,000 requests, %.0f after 200", late, early)
	}
}

// BenchmarkIdleSpans prices span recording per request: three active
// replicas and a client on simnet, every node handed trace.New() (composed)
// or nothing (uncomposed). allocs/op and ns/op are the requests alone;
// scrape-allocs is one TraceSnapshot of every node after them, which is
// where a composed node formats its retained spans.
func BenchmarkIdleSpans(b *testing.B) {
	for _, c := range []struct {
		name string
		rec  func() *trace.Recorder
	}{
		{"composed", trace.New},
		{"uncomposed", func() *trace.Recorder { return nil }},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := startSpanGroup(b, c.rec)
			s.drive(b, 500) // tables filled, queues and rings grown
			b.ReportAllocs()
			b.ResetTimer()
			s.drive(b, b.N)
			b.StopTimer()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.snapshots()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs), "scrape-allocs")
		})
	}
}
