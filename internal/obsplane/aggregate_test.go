package obsplane

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"versadep/internal/introspect"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
)

func TestAggregatorIngestDeltas(t *testing.T) {
	r := trace.New()
	inv := r.Counter("orb", "invocations")
	tmo := r.Counter("orb", "timeouts")
	rtt := r.Histogram("orb", "rtt_us")

	a := NewAggregator(int64(time.Second), 16)
	inv.Add(10)
	rtt.Observe(100)
	rtt.Observe(200)
	a.Ingest("client-1", 0, r.Snapshot())

	inv.Add(5)
	tmo.Add(2)
	rtt.Observe(300)
	a.Ingest("client-1", int64(time.Second), r.Snapshot())

	s := a.Store()
	if got := s.Rollup(SeriesRate, 0).Sum; got != 15 {
		t.Fatalf("requests sum = %d, want 15", got)
	}
	if got := s.Rollup(SeriesBad, 0).Sum; got != 2 {
		t.Fatalf("req_err sum = %d, want 2", got)
	}
	// Good outcomes come from completed round trips: 2 then 1.
	if got := s.Rollup(SeriesGood, 0).Sum; got != 3 {
		t.Fatalf("req_ok sum = %d, want 3", got)
	}
	wins := s.Windows(SeriesLatencyMicros)
	if len(wins) != 2 {
		t.Fatalf("latency windows = %d, want 2", len(wins))
	}
	// The second window holds only the delta (the 300µs observation).
	if wins[1].Count != 1 || wins[1].Sum != 300 {
		t.Fatalf("second latency window = %+v", wins[1])
	}
}

func TestAggregatorCounterReset(t *testing.T) {
	a := NewAggregator(int64(time.Second), 8)
	r1 := trace.New()
	r1.Counter("orb", "invocations").Add(100)
	a.Ingest("n", 0, r1.Snapshot())
	// Node restarts: fresh recorder, lower counter. Delta clamps to the
	// new absolute value's worth of zero, not a negative window.
	r2 := trace.New()
	r2.Counter("orb", "invocations").Add(3)
	a.Ingest("n", int64(time.Second), r2.Snapshot())
	if got := a.Store().Rollup(SeriesRate, 0).Sum; got != 100 {
		t.Fatalf("requests after reset = %d, want 100 (reset window contributes 0)", got)
	}
}

func TestAggregatorScrapeHTTP(t *testing.T) {
	// A real introspection mux backed by a live recorder.
	r := trace.New()
	r.Counter("orb", "invocations").Add(7)
	r.Histogram("orb", "rtt_us").Observe(150)
	srv := httptest.NewServer(introspect.NewMux(r.Snapshot))
	defer srv.Close()

	a := NewAggregator(int64(time.Second), 8)
	a.AddTarget("replica-a", srv.URL)
	if err := a.ScrapeOnce(0); err != nil {
		t.Fatalf("scrape: %v", err)
	}
	r.Counter("orb", "invocations").Add(3)
	if err := a.ScrapeOnce(int64(time.Second)); err != nil {
		t.Fatalf("second scrape: %v", err)
	}

	if got := a.Store().Rollup(SeriesRate, 0).Sum; got != 10 {
		t.Fatalf("scraped requests = %d, want 10", got)
	}
	st := a.Status()
	if len(st.Targets) != 1 || st.Targets[0].LastError != "" || st.Targets[0].LastScrapeUnixNanos == 0 {
		t.Fatalf("target health = %+v", st.Targets)
	}
	if st.MalformedExpositions != 0 {
		t.Fatalf("malformed = %d", st.MalformedExpositions)
	}
	if len(st.Nodes) != 1 || st.Nodes[0] != "replica-a" {
		t.Fatalf("nodes = %v", st.Nodes)
	}

	// Merged snapshot carries the scraped counters.
	if got := a.Merged().Counters["orb.invocations"]; got != 10 {
		t.Fatalf("merged invocations = %d, want 10", got)
	}
}

func TestAggregatorScrapeFailure(t *testing.T) {
	a := NewAggregator(int64(time.Second), 8)
	a.AddTarget("gone", "http://127.0.0.1:1") // nothing listens there
	if err := a.ScrapeOnce(0); err == nil {
		t.Fatal("scrape of dead target succeeded")
	}
	st := a.Status()
	if st.Targets[0].LastError == "" {
		t.Fatal("dead target has empty LastError")
	}
}

func TestAggregatorAttachAndTimelines(t *testing.T) {
	r := trace.New()
	sp := r.Spans()
	sp.SetNode("client-1")
	sp.Add(span.RequestKey("c1", 1), "client_invoke", "", 0, 100)
	r2 := trace.New()
	sp2 := r2.Spans()
	sp2.SetNode("replica-a")
	sp2.Add(span.RequestKey("c1", 1), "app_execute", "Application", 30, 60)

	a := NewAggregator(int64(time.Second), 8)
	a.Attach("client-1", r.Snapshot)
	a.Attach("replica-a", r2.Snapshot)
	a.Sample(0)

	tls := a.Timelines()
	if len(tls) != 1 {
		t.Fatalf("timelines = %d, want 1", len(tls))
	}
	if len(tls[0].Nodes) != 2 {
		t.Fatalf("timeline nodes = %v, want client + replica", tls[0].Nodes)
	}
	if st := a.Status(); st.Timelines != 1 {
		t.Fatalf("status timelines = %d", st.Timelines)
	}
}

// badMetricsHandler proxies /trace to a real introspect server but serves
// a malformed /metrics exposition.
type badMetricsHandler struct{ trace string }

func (h badMetricsHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/metrics" {
		fmt.Fprintln(w, `metric{l=unquoted} 1`)
		return
	}
	resp, err := http.Get(h.trace + r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	_, _ = io.Copy(w, resp.Body)
}

func TestAggregatorMalformedExposition(t *testing.T) {
	// /trace is valid JSON but /metrics is garbage: the scrape must count
	// a malformed exposition and error.
	mux := introspect.NewMux(func() trace.Snapshot { return trace.Snapshot{} })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	bad := httptest.NewServer(badMetricsHandler{trace: srv.URL})
	defer bad.Close()

	a := NewAggregator(int64(time.Second), 8)
	a.AddTarget("weird", bad.URL)
	if err := a.ScrapeOnce(0); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("err = %v, want malformed-exposition error", err)
	}
	if st := a.Status(); st.MalformedExpositions != 1 {
		t.Fatalf("malformed count = %d", st.MalformedExpositions)
	}
}
