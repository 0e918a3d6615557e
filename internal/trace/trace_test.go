package trace

import (
	"encoding/json"
	"sync"
	"testing"

	"versadep/internal/vtime"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	c := r.Counter(SubORB, "retransmits")
	c.Inc()
	c.Add(5)
	c.Store(7)
	c.Max(9)
	if c.Load() != 0 {
		t.Fatalf("nil counter value = %d", c.Load())
	}
	r.Event(SubGCS, "view_change", 0, 3)
	if v := r.Value(SubORB, "retransmits"); v != 0 {
		t.Fatalf("nil recorder value = %d", v)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Events) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", snap)
	}
}

func TestCountersAndSnapshot(t *testing.T) {
	r := New()
	retr := r.Counter(SubORB, "retransmits")
	if again := r.Counter(SubORB, "retransmits"); again != retr {
		t.Fatal("Counter did not return the cached register")
	}
	retr.Inc()
	retr.Add(2)
	depth := r.Counter(SubGCS, "retransmit_queue_depth")
	depth.Store(4)
	depth.Max(9)
	depth.Max(3) // lower: ignored

	snap := r.Snapshot()
	if got := snap.Get(SubORB, "retransmits"); got != 3 {
		t.Fatalf("retransmits = %d, want 3", got)
	}
	if got := snap.Get(SubGCS, "retransmit_queue_depth"); got != 9 {
		t.Fatalf("queue depth = %d, want 9", got)
	}
	if got := r.Value(SubORB, "retransmits"); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
	if got := r.Value(SubORB, "unregistered"); got != 0 {
		t.Fatalf("unregistered Value = %d, want 0", got)
	}
}

func TestEventRingWraps(t *testing.T) {
	r := NewWithCap(4)
	for i := 0; i < 7; i++ {
		r.Event(SubReplication, "checkpoint", vtime.Time(i), int64(i))
	}
	snap := r.Snapshot()
	if len(snap.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(snap.Events))
	}
	if snap.EventsDropped != 3 {
		t.Fatalf("dropped = %d, want 3", snap.EventsDropped)
	}
	// Oldest first: values 3,4,5,6.
	for i, e := range snap.Events {
		if e.Value != int64(i+3) {
			t.Fatalf("event %d value = %d, want %d", i, e.Value, i+3)
		}
	}
}

func TestJSONDeterministicAndParses(t *testing.T) {
	r := New()
	r.Counter(SubFaults, "steps_fired").Add(2)
	r.Counter(SubORB, "timeouts").Inc()
	r.Event(SubFaults, "step", 10, 1)
	a := r.Snapshot().JSON()
	b := r.Snapshot().JSON()
	if string(a) != string(b) {
		t.Fatalf("JSON not deterministic:\n%s\n%s", a, b)
	}
	var decoded struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("JSON does not parse: %v\n%s", err, a)
	}
	if len(decoded.Counters) != 2 || decoded.Counters[0].Name != "faults.steps_fired" {
		t.Fatalf("unexpected counters: %+v", decoded.Counters)
	}
	if len(decoded.Events) != 1 || decoded.Events[0].Name != "step" {
		t.Fatalf("unexpected events: %+v", decoded.Events)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter(SubORB, "retransmits").Add(2)
	b.Counter(SubORB, "retransmits").Add(3)
	b.Counter(SubGCS, "view_changes").Inc()
	a.Event(SubGCS, "view_change", 1, 2)
	m := Merge(a.Snapshot(), b.Snapshot())
	if m.Get(SubORB, "retransmits") != 5 {
		t.Fatalf("merged retransmits = %d", m.Get(SubORB, "retransmits"))
	}
	if m.Get(SubGCS, "view_changes") != 1 {
		t.Fatalf("merged view_changes = %d", m.Get(SubGCS, "view_changes"))
	}
	if len(m.Events) != 1 {
		t.Fatalf("merged events = %d", len(m.Events))
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter(SubORB, "invocations")
			for i := 0; i < 1000; i++ {
				c.Inc()
				if i%100 == 0 {
					r.Event(SubORB, "tick", vtime.Time(i), int64(g))
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Value(SubORB, "invocations"); got != 8000 {
		t.Fatalf("invocations = %d, want 8000", got)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := New()
	c := r.Counter(SubORB, "invocations")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
