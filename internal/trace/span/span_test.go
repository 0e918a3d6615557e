package span

import (
	"testing"

	"versadep/internal/vtime"
)

func vt(us int64) vtime.Time { return vtime.Time(us * int64(vtime.Microsecond)) }

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.On() {
		t.Fatalf("nil recorder reports On")
	}
	r.SetNode("x")
	r.Add(NameKey("t"), "n", CompORB, vt(0), vt(1))
	r.Annotate(NameKey("t"), "n", CompORB, vt(0), vt(1), 7, "note")
	r.Begin("k", NameKey("t"), "n", "", vt(0))
	if _, ok := r.End("k", vt(1), ""); ok {
		t.Fatalf("nil recorder closed a span")
	}
	if n := r.CloseOpen(vt(1), "x"); n != 0 {
		t.Fatalf("nil recorder closed %d spans", n)
	}
	if r.OpenCount() != 0 {
		t.Fatalf("nil recorder has open spans")
	}
	spans, dropped := r.Snapshot()
	if spans != nil || dropped != 0 {
		t.Fatalf("nil recorder snapshot = %v, %d", spans, dropped)
	}
}

// TestNilRecorderZeroAllocs is the acceptance check that span recording
// disabled (nil Recorder) adds zero allocations on the invoke hot path,
// with no gate at the call site: a key costs nothing to build.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	cid := "client-1"
	rid := uint64(4711)
	allocs := testing.AllocsPerRun(1000, func() {
		// The exact pattern instrumented call sites use.
		r.Add(RequestKey(cid, rid), "client_marshal", CompORB, vt(0), vt(100))
		r.Add(r.InternRequestKey([]byte(cid), rid), "gc_send", CompGC, vt(0), vt(100))
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder record path allocates %.1f per op, want 0", allocs)
	}
}

// TestLiveRecorderZeroAllocs: recording into a live recorder allocates
// nothing either — the ring stores the key, and the trace name is not
// formatted until a span is exported. The same for a key made from a
// client id still in a wire buffer, once the recorder has met the client.
func TestLiveRecorderZeroAllocs(t *testing.T) {
	r := New(64)
	cid := "client-1"
	wire := []byte(cid)
	rid := uint64(4711)
	r.InternRequestKey(wire, rid)
	allocs := testing.AllocsPerRun(1000, func() {
		rid++
		r.Add(RequestKey(cid, rid), "client_marshal", CompORB, vt(0), vt(100))
		r.Add(r.InternRequestKey(wire, rid), "gc_send", CompGC, vt(0), vt(100))
	})
	if allocs != 0 {
		t.Fatalf("live-recorder record path allocates %.1f per op, want 0", allocs)
	}
	spans, _ := r.Snapshot()
	if got, want := spans[len(spans)-1].Trace, RequestTrace(cid, rid); got != want {
		t.Fatalf("exported trace = %q, want %q", got, want)
	}
}

// TestKeysExportTheirTraceName pins what a key turns into when a span
// leaves the recorder: a request key formats as RequestTrace, a name key is
// its name, and keys made from a string and from wire bytes are the same
// key. The interned key must not alias the buffer it was read from.
func TestKeysExportTheirTraceName(t *testing.T) {
	if got := RequestKey("c1", 7).String(); got != RequestTrace("c1", 7) {
		t.Fatalf("RequestKey exports %q, want %q", got, RequestTrace("c1", 7))
	}
	if got := NameKey(SwitchTrace(12)).String(); got != "switch:12" {
		t.Fatalf("NameKey exports %q", got)
	}
	if !(Key{}).IsZero() || RequestKey("", 0).IsZero() || NameKey("x").IsZero() {
		t.Fatalf("IsZero: only the zero Key names no trace")
	}
	r := New(8)
	wire := []byte("c1")
	k := r.InternRequestKey(wire, 7)
	wire[0] = 'X'
	if k != RequestKey("c1", 7) {
		t.Fatalf("interned key = %v, want %v", k, RequestKey("c1", 7))
	}
	r.Begin("open", k, "phase", "", vt(0))
	s, ok := r.End("open", vt(1), "")
	if !ok || s.Trace != "req:c1#7" {
		t.Fatalf("End exported %+v", s)
	}
}

func TestAddSnapshotAndNode(t *testing.T) {
	r := New(8)
	r.SetNode("replica-a")
	r.Add(RequestKey("c", 1), "client_marshal", CompORB, vt(0), vt(100))
	r.Annotate(RequestKey("c", 1), "app_execute", CompApp, vt(100), vt(115), 3, "op=add")
	spans, dropped := r.Snapshot()
	if dropped != 0 || len(spans) != 2 {
		t.Fatalf("snapshot = %d spans, %d dropped", len(spans), dropped)
	}
	if spans[0].Node != "replica-a" || spans[1].Node != "replica-a" {
		t.Fatalf("node not stamped: %+v", spans)
	}
	if spans[1].Value != 3 || spans[1].Note != "op=add" {
		t.Fatalf("annotation lost: %+v", spans[1])
	}
	if d := spans[0].Duration(); d != 100*vtime.Microsecond {
		t.Fatalf("duration = %v, want 100µs", d)
	}
}

func TestRingWrapsAndCountsDropped(t *testing.T) {
	r := New(4)
	for i := 0; i < 7; i++ {
		r.Annotate(NameKey("t"), "s", "", vt(int64(i)), vt(int64(i)), int64(i), "")
	}
	spans, dropped := r.Snapshot()
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Value != int64(i+3) {
			t.Fatalf("span %d has value %d, want %d (oldest-first order)", i, s.Value, i+3)
		}
	}
}

func TestBeginEnd(t *testing.T) {
	r := New(8)
	r.Begin("switch", NameKey(SwitchTrace(9)), "switch", "", vt(1000))
	if r.OpenCount() != 1 {
		t.Fatalf("open count = %d, want 1", r.OpenCount())
	}
	s, ok := r.End("switch", vt(4000), "")
	if !ok {
		t.Fatalf("End found no open span")
	}
	if s.Trace != "switch:9" || s.Duration() != 3000*vtime.Microsecond {
		t.Fatalf("closed span = %+v", s)
	}
	if _, ok := r.End("switch", vt(5000), ""); ok {
		t.Fatalf("second End on same key succeeded")
	}
	if r.OpenCount() != 0 {
		t.Fatalf("open count = %d after End, want 0", r.OpenCount())
	}
	spans, _ := r.Snapshot()
	if len(spans) != 1 || spans[0].Name != "switch" {
		t.Fatalf("snapshot = %+v", spans)
	}
}

func TestCloseOpenAnnotates(t *testing.T) {
	r := New(8)
	r.Begin("a", NameKey("t1"), "phase_a", "", vt(10))
	r.Begin("b", NameKey("t2"), "phase_b", "", vt(20))
	if n := r.CloseOpen(vt(100), "failover"); n != 2 {
		t.Fatalf("CloseOpen closed %d, want 2", n)
	}
	if r.OpenCount() != 0 {
		t.Fatalf("spans leaked after CloseOpen")
	}
	spans, _ := r.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	for _, s := range spans {
		if s.Note != "failover" || s.End != vt(100) {
			t.Fatalf("span not annotated by CloseOpen: %+v", s)
		}
	}
}

func TestTimelineAndBreakdown(t *testing.T) {
	r := New(16)
	key, tr := RequestKey("c", 1), RequestTrace("c", 1)
	r.Add(key, "client_unmarshal", CompORB, vt(900), vt(1000))
	r.Add(key, "client_marshal", CompORB, vt(0), vt(100))
	r.Add(key, "gc_submit", CompGC, vt(138), vt(213))
	r.Add(key, "intercept_submit", CompReplicator, vt(100), vt(138))
	r.Add(key, "app_execute", CompApp, vt(300), vt(315))
	r.Add(key, "invoke", "", vt(0), vt(1000)) // root: no component
	r.Add(RequestKey("other", 2), "client_marshal", CompORB, vt(0), vt(100))

	spans, _ := r.Snapshot()
	tl := Timeline(spans, tr)
	if len(tl) != 6 {
		t.Fatalf("timeline has %d spans, want 6", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Start.Before(tl[i-1].Start) {
			t.Fatalf("timeline not sorted by start: %+v", tl)
		}
	}
	bd := Breakdown(spans, tr)
	if bd[CompORB] != 200*vtime.Microsecond {
		t.Fatalf("ORB = %v, want 200µs", bd[CompORB])
	}
	if bd[CompApp] != 15*vtime.Microsecond {
		t.Fatalf("App = %v, want 15µs", bd[CompApp])
	}
	if bd[CompGC] != 75*vtime.Microsecond {
		t.Fatalf("GC = %v, want 75µs", bd[CompGC])
	}
	if bd[CompReplicator] != 38*vtime.Microsecond {
		t.Fatalf("Replicator = %v, want 38µs", bd[CompReplicator])
	}
	if _, ok := bd[""]; ok {
		t.Fatalf("breakdown contains component-less spans")
	}

	traces := Traces(spans)
	if len(traces) != 2 || traces[0] != tr {
		t.Fatalf("traces = %v", traces)
	}
}

// TestComponentNamesMatchLedger pins the span component constants to the
// vtime.Component String() forms — Breakdown is only comparable to the
// ledger's Figure 3 attribution if they agree.
func TestComponentNamesMatchLedger(t *testing.T) {
	pairs := []struct {
		comp string
		c    vtime.Component
	}{
		{CompApp, vtime.ComponentApp},
		{CompORB, vtime.ComponentORB},
		{CompGC, vtime.ComponentGC},
		{CompReplicator, vtime.ComponentReplicator},
	}
	for _, p := range pairs {
		if p.comp != p.c.String() {
			t.Fatalf("span component %q != vtime component %q", p.comp, p.c.String())
		}
	}
}

func TestTraceKeys(t *testing.T) {
	if RequestTrace("c1", 7) != "req:c1#7" {
		t.Fatalf("RequestTrace = %q", RequestTrace("c1", 7))
	}
	if SwitchTrace(12) != "switch:12" {
		t.Fatalf("SwitchTrace = %q", SwitchTrace(12))
	}
	if FailoverTrace("replica-b", 2) != "failover:replica-b#2" {
		t.Fatalf("FailoverTrace = %q", FailoverTrace("replica-b", 2))
	}
	if CheckpointTrace("replica-a", 5) != "ckpt:replica-a#5" {
		t.Fatalf("CheckpointTrace = %q", CheckpointTrace("replica-a", 5))
	}
}

func BenchmarkAdd(b *testing.B) {
	r := New(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(RequestKey("c", uint64(i)), "client_marshal", CompORB, vt(0), vt(100))
	}
}

func BenchmarkNilAdd(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(RequestKey("c", uint64(i)), "client_marshal", CompORB, vt(0), vt(100))
	}
}
