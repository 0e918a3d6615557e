package experiment

import (
	"testing"

	"versadep/internal/codec"
	"versadep/internal/obsplane"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/vtime"
)

// crashingServant wraps the benchmark servant on one node and crashes
// that node's fabric endpoint synchronously inside its Nth execution —
// after the request has been ordered, logged on the backups and executed,
// but before the engine can send the reply (the fabric drops sends from
// crashed endpoints at route time). The client's retransmit then has to
// be answered by the failover primary from its replayed state, which is
// exactly the cross-node timeline the stitcher must reassemble.
type crashingServant struct {
	inner   crashTarget
	crashAt int
	crash   func()
	n       int
}

type crashTarget interface {
	orb.Servant
	ExecCost(string, []codec.Value) vtime.Duration
}

func (c *crashingServant) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	c.n++
	if c.n == c.crashAt {
		c.crash()
	}
	return c.inner.Invoke(op, args)
}

func (c *crashingServant) ExecCost(op string, args []codec.Value) vtime.Duration {
	return c.inner.ExecCost(op, args)
}

// TestFailoverStitchedTimeline is the acceptance test for cross-node span
// stitching: a request that spans a mid-run primary failover must yield
// ONE stitched timeline containing the client, the crashed old primary,
// and the new primary that replayed and re-answered it.
func TestFailoverStitchedTimeline(t *testing.T) {
	o := DefaultOptions()
	o.Requests = 60
	scn, err := NewScenario(o, replication.WarmPassive, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer scn.Close()

	// Re-register the Bench servant on the primary with the crashing
	// wrapper. The closed loop is serial, so the 30th execution on the
	// primary is exactly the client's 30th request — deterministic under
	// the seeded fabric.
	primary := scn.group.Nodes()[0]
	primary.Register("Bench", &crashingServant{
		inner:   primary.State().(crashTarget),
		crashAt: 30,
		crash:   func() { scn.net.Crash(primary.Addr()) },
	})

	if _, err := scn.Run(Plan{}); err != nil {
		t.Fatalf("closed loop did not survive the failover: %v", err)
	}

	tls := obsplane.Stitch(scn.TraceSnapshot().Spans)
	if len(tls) == 0 {
		t.Fatal("no stitched timelines")
	}
	var hit *obsplane.Timeline
	for i := range tls {
		if tls[i].FailedOver {
			hit = &tls[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no timeline crosses the failover (%d timelines stitched)", len(tls))
	}
	nodes := make(map[string]bool, len(hit.Nodes))
	for _, n := range hit.Nodes {
		nodes[n] = true
	}
	for _, want := range []string{"client-1", "replica-a", "replica-b"} {
		if !nodes[want] {
			t.Errorf("failover timeline %s missing node %s (nodes %v)", hit.Trace, want, hit.Nodes)
		}
	}
	if len(hit.Executors) < 2 {
		t.Errorf("failover timeline executed on %v, want both the old and new primary", hit.Executors)
	}
	if hit.End.Before(hit.Start) {
		t.Errorf("timeline extent inverted: [%v,%v]", hit.Start, hit.End)
	}
}

// TestRunSLOScenarioSurge grades the clean surge: it must evaluate the
// spec, stitch cross-node timelines, and stay compliant.
func TestRunSLOScenarioSurge(t *testing.T) {
	spec, err := obsplane.ParseSLO(DefaultSLOSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSLOScenario(DefaultOptions(), spec, "surge", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 400 {
		t.Fatalf("requests = %d, want 400", res.Requests)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	if !res.Compliant {
		t.Fatalf("clean surge not compliant: attainment %v p99 %dµs (objectives %+v)",
			res.Attainment, res.P99Micros, res.Objectives)
	}
	if res.Timelines == 0 || res.CrossNode == 0 {
		t.Fatalf("timelines = %d cross-node = %d, want > 0", res.Timelines, res.CrossNode)
	}
	if res.Suspicions != 0 {
		t.Fatalf("clean surge saw %d suspicions", res.Suspicions)
	}
}

// TestRunSLOScenarioPartition grades the partition during the surge: the
// partition misses every request of a window, and the budget-burn rule
// must act on that burn rather than read the window's zero attainment as
// no evaluation.
func TestRunSLOScenarioPartition(t *testing.T) {
	spec, err := obsplane.ParseSLO(DefaultSLOSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSLOScenario(DefaultOptions(), spec, "partition-surge", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 400 || res.Errors != 0 {
		t.Fatalf("requests = %d errors = %d, want 400 and 0", res.Requests, res.Errors)
	}
	if res.PeakBurnRate < 2 {
		t.Fatalf("peak burn %.2f: the partition never burned the budget", res.PeakBurnRate)
	}
	if res.Actuations < 1 {
		t.Fatalf("actuations = %d at peak burn %.2f, want at least 1", res.Actuations, res.PeakBurnRate)
	}
}
