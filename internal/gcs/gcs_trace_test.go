package gcs_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// startTracedNode is startNode with a trace recorder wired into the member.
func startTracedNode(t *testing.T, net *simnet.Network, name string, seeds []string, rec *trace.Recorder) *node {
	t.Helper()
	ep, err := net.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	cfg := gcs.DefaultConfig()
	cfg.Seeds = seeds
	cfg.Seed = uint64(len(name)) + 7
	cfg.Trace = rec
	m := gcs.Open(d.Conn(transport.ProtoGCS), d.Conn(transport.ProtoGroupClient), cfg)
	d.Handle(transport.ProtoGCS, m.HandleTransport)
	d.Start()
	n := &node{name: name, demux: d, member: m, notify: make(chan struct{}, 1)}
	n.wg.Add(1)
	go n.collect()
	t.Cleanup(func() {
		m.Stop()
		n.wg.Wait()
	})
	return n
}

// The member's protocol counters must reflect what actually happened: the
// bootstrap and join views, and the heartbeat-driven suspicion when a peer
// crashes silently.
func TestMemberTraceCounters(t *testing.T) {
	net := simnet.New(simnet.WithSeed(11))
	defer net.Close()

	rec := trace.New()
	a := startTracedNode(t, net, "ta", nil, rec)
	b := startNode(t, net, "tb", []string{"ta"})
	a.waitView(t, []string{"ta", "tb"}, 5*time.Second)
	b.waitView(t, []string{"ta", "tb"}, 5*time.Second)

	// Bootstrap view + the two-member join view.
	if got := rec.Value(trace.SubGCS, "view_changes"); got < 2 {
		t.Fatalf("view_changes = %d, want >= 2", got)
	}
	if got := rec.Value(trace.SubGCS, "heartbeat_misses"); got != 0 {
		t.Fatalf("heartbeat_misses = %d before any crash", got)
	}

	// Crash tb without a leave; ta must miss heartbeats, suspect it, and
	// install a singleton view.
	b.member.Stop()
	a.waitView(t, []string{"ta"}, 5*time.Second)

	if got := rec.Value(trace.SubGCS, "heartbeat_misses"); got < 1 {
		t.Fatalf("heartbeat_misses = %d after crash, want >= 1", got)
	}
	if got := rec.Value(trace.SubGCS, "view_changes"); got < 3 {
		t.Fatalf("view_changes = %d after crash, want >= 3", got)
	}

	// The view-change events are in the recorder's ring too.
	snap := rec.Snapshot()
	views := 0
	for _, e := range snap.Events {
		if e.Sub == trace.SubGCS && e.Name == "view_change" {
			views++
		}
	}
	if views < 3 {
		t.Fatalf("view_change events = %d, want >= 3", views)
	}
}

// TestSpanKeyUnusedWithoutSpanRing: a member whose recorder has no span
// ring never peeks a payload for its trace key; one with a ring does.
func TestSpanKeyUnusedWithoutSpanRing(t *testing.T) {
	for _, c := range []struct {
		name   string
		rec    func() *trace.Recorder
		peeked bool
	}{
		{"composed", trace.New, true},
		{"uncomposed", trace.NewWithoutSpans, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := simnet.New(simnet.WithSeed(13))
			defer net.Close()
			var calls atomic.Int64
			shape := func(cfg *gcs.Config) {
				cfg.Trace = c.rec()
				cfg.SpanKey = func([]byte) span.Key {
					calls.Add(1)
					return span.Key{}
				}
			}
			a := startNodeCfg(t, net, "ka", nil, shape)
			b := startNodeCfg(t, net, "kb", []string{"ka"}, shape)
			a.waitView(t, []string{"ka", "kb"}, 5*time.Second)
			b.waitView(t, []string{"ka", "kb"}, 5*time.Second)
			for i := 0; i < 20; i++ {
				if err := a.member.Multicast([]byte(fmt.Sprintf("m-%d", i)), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
					t.Fatal(err)
				}
			}
			a.waitMessages(t, 20, 5*time.Second)
			b.waitMessages(t, 20, 5*time.Second)
			if got := calls.Load(); (got > 0) != c.peeked {
				t.Fatalf("SpanKey called %d times", got)
			}
		})
	}
}
