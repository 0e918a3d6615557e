package trace

import (
	"strings"
	"testing"

	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

// TestMergeConflictingCounterNames covers cross-process merging when two
// nodes register colliding names: the same "sub.name" on both sums into
// one aggregate, while equal names under different subsystems stay
// distinct.
func TestMergeConflictingCounterNames(t *testing.T) {
	a, b := New(), New()
	a.Counter(SubGCS, "retransmits").Add(3)
	b.Counter(SubGCS, "retransmits").Add(4)  // same key on both nodes
	a.Counter(SubORB, "retransmits").Add(10) // same leaf name, other subsystem
	b.Counter(SubGCS, "view_changes").Add(1) // only on b
	a.Counter(SubReplication, "failovers")   // registered but zero on a
	b.Counter(SubReplication, "failovers").Inc()

	m := Merge(a.Snapshot(), b.Snapshot())
	if got := m.Get(SubGCS, "retransmits"); got != 7 {
		t.Fatalf("gcs.retransmits = %d, want 7 (summed across processes)", got)
	}
	if got := m.Get(SubORB, "retransmits"); got != 10 {
		t.Fatalf("orb.retransmits = %d, want 10 (distinct from gcs.retransmits)", got)
	}
	if got := m.Get(SubGCS, "view_changes"); got != 1 {
		t.Fatalf("gcs.view_changes = %d, want 1", got)
	}
	if got := m.Get(SubReplication, "failovers"); got != 1 {
		t.Fatalf("replication.failovers = %d, want 1", got)
	}
	if len(m.Counters) != 4 {
		t.Fatalf("merged registry has %d keys, want 4: %v", len(m.Counters), m.Counters)
	}
}

func TestHistogramRegistry(t *testing.T) {
	var nilRec *Recorder
	if h := nilRec.Histogram(SubORB, "rtt_us"); h != nil {
		t.Fatalf("nil recorder returned non-nil histogram")
	}

	r := New()
	h := r.Histogram(SubORB, "rtt_us")
	if h2 := r.Histogram(SubORB, "rtt_us"); h2 != h {
		t.Fatalf("repeated Histogram() returned a different instance")
	}
	h.Observe(100)
	h.Observe(300)
	snap := r.Snapshot()
	hs, ok := snap.Histograms["orb.rtt_us"]
	if !ok {
		t.Fatalf("snapshot missing histogram: %v", snap.Histograms)
	}
	if hs.Count != 2 || hs.Min != 100 || hs.Max != 300 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}

	// Histograms with the same key merge bucket-wise across processes.
	r2 := New()
	r2.Histogram(SubORB, "rtt_us").Observe(500)
	m := Merge(snap, r2.Snapshot())
	if m.Histograms["orb.rtt_us"].Count != 3 || m.Histograms["orb.rtt_us"].Max != 500 {
		t.Fatalf("merged histogram = %+v", m.Histograms["orb.rtt_us"])
	}
}

func TestSnapshotCarriesSpans(t *testing.T) {
	r := New()
	r.Spans().SetNode("replica-a")
	r.Spans().Add(span.RequestKey("c", 1), "client_marshal", span.CompORB, 0, vtime.Time(100))
	r.Spans().Begin("switch", span.NameKey(span.SwitchTrace(3)), "switch", "", 0)

	snap := r.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Node != "replica-a" {
		t.Fatalf("snapshot spans = %+v", snap.Spans)
	}
	if snap.SpansOpen != 1 {
		t.Fatalf("SpansOpen = %d, want 1", snap.SpansOpen)
	}

	other := New()
	other.Spans().Add(span.RequestKey("c", 1), "app_execute", span.CompApp, vtime.Time(100), vtime.Time(115))
	m := Merge(snap, other.Snapshot())
	if len(m.Spans) != 2 || m.SpansOpen != 1 {
		t.Fatalf("merged spans = %d open = %d", len(m.Spans), m.SpansOpen)
	}
	bd := span.Breakdown(m.Spans, span.RequestTrace("c", 1))
	if bd[span.CompORB] != 100 || bd[span.CompApp] != 15 {
		t.Fatalf("merged breakdown = %v", bd)
	}

	// Nil recorder: Spans() is nil and inert, snapshot stays empty.
	var nilRec *Recorder
	if nilRec.Spans().On() {
		t.Fatalf("nil recorder spans report On")
	}
	if s := nilRec.Snapshot(); len(s.Spans) != 0 || s.SpansOpen != 0 {
		t.Fatalf("nil recorder snapshot has spans: %+v", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter(SubGCS, "view_changes").Add(2)
	r.Counter(SubReplication, "switch_last_delay_us").Store(1234)
	h := r.Histogram(SubORB, "rtt_us")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 10)
	}

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE versadep_gcs_view_changes counter",
		"versadep_gcs_view_changes 2",
		"versadep_replication_switch_last_delay_us 1234",
		"# TYPE versadep_orb_rtt_us summary",
		`versadep_orb_rtt_us{quantile="0.5"}`,
		`versadep_orb_rtt_us{quantile="0.99"}`,
		`versadep_orb_rtt_us{quantile="0.999"}`,
		"versadep_orb_rtt_us_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("exposition must end with a newline")
	}
}
