package trace

import (
	"reflect"
	"testing"

	"versadep/internal/trace/span"
)

func TestParseSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("orb", "invocations").Add(42)
	r.Counter("gcs", "heartbeats").Add(7)
	r.Histogram("orb", "rtt_us").Observe(120)
	r.Histogram("orb", "rtt_us").Observe(480)
	r.Event("orb", "timeout", 10, 1)
	sp := r.Spans()
	sp.SetNode("replica-a")
	sp.Add(span.RequestKey("c1", 1), "app_execute", "Application", 5, 25)

	snap := r.Snapshot()
	got, err := ParseSnapshotJSON(snap.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Counters, snap.Counters) {
		t.Fatalf("counters: got %v want %v", got.Counters, snap.Counters)
	}
	if len(got.Histograms) != len(snap.Histograms) {
		t.Fatalf("histograms: got %d want %d", len(got.Histograms), len(snap.Histograms))
	}
	h := got.Histograms["orb.rtt_us"]
	if h.Count != 2 || h.Sum != 600 {
		t.Fatalf("rtt hist = %+v", h)
	}
	if len(got.Spans) != 1 || got.Spans[0].Node != "replica-a" || got.Spans[0].Trace != "req:c1#1" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if len(got.Events) != 1 || got.Events[0].Name != "timeout" {
		t.Fatalf("events = %+v", got.Events)
	}

	// A re-encoded parse is byte-identical: the wire order is canonical.
	if string(got.JSON()) != string(snap.JSON()) {
		t.Fatal("round trip is not canonical")
	}
}

func TestParseSnapshotJSONRejectsGarbage(t *testing.T) {
	if _, err := ParseSnapshotJSON([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestParseSnapshotJSONEmpty(t *testing.T) {
	got, err := ParseSnapshotJSON([]byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Counters) != 0 || got.Histograms != nil {
		t.Fatalf("empty parse = %+v", got)
	}
}
