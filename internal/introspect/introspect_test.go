package introspect

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

func testRecorder() *trace.Recorder {
	r := trace.New()
	r.Counter(trace.SubGCS, "msgs_sent").Add(42)
	r.Counter(trace.SubReplication, "checkpoints").Add(3)
	h := r.Histogram(trace.SubORB, "rtt_us")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 10)
	}
	sp := r.Spans()
	sp.SetNode("ra")
	tk := span.RequestKey("c1", 7)
	sp.Add(tk, "invoke", "", 0, vtime.Time(9*vtime.Microsecond))
	sp.Add(tk, "app_execute", span.CompApp, vtime.Time(3*vtime.Microsecond), vtime.Time(5*vtime.Microsecond))
	return r
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	r := testRecorder()
	srv := httptest.NewServer(NewMux(r.Snapshot))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	// Every registered counter must appear, prefixed and sanitized.
	for _, want := range []string{
		"versadep_gcs_msgs_sent 42",
		"versadep_replication_checkpoints 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Histograms appear as summaries with quantile lines.
	for _, want := range []string{
		`versadep_orb_rtt_us{quantile="0.5"}`,
		`versadep_orb_rtt_us{quantile="0.99"}`,
		"versadep_orb_rtt_us_sum",
		"versadep_orb_rtt_us_count 100",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	r := testRecorder()
	srv := httptest.NewServer(NewMux(r.Snapshot))
	defer srv.Close()

	code, body := get(t, srv, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status = %d", code)
	}
	var decoded struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Spans []span.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("/trace is not JSON: %v\n%s", err, body)
	}
	if len(decoded.Counters) != 2 {
		t.Errorf("counters = %d, want 2", len(decoded.Counters))
	}
	if len(decoded.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(decoded.Spans))
	}
	if decoded.Spans[0].Node != "ra" {
		t.Errorf("span node = %q, want ra", decoded.Spans[0].Node)
	}
}

func TestPprofEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewMux(trace.New().Snapshot))
	defer srv.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if code, _ := get(t, srv, path); code != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, code)
		}
	}
	// A short-duration goroutine profile exercises the Index dispatch path.
	if code, _ := get(t, srv, "/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Errorf("goroutine profile status = %d, want 200", code)
	}
}

func TestStartServesAndCloses(t *testing.T) {
	r := testRecorder()
	s, err := Start("127.0.0.1:0", r.Snapshot)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("live /metrics status = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Errorf("server still reachable after Close")
	}
}

func TestWithJSONEndpoint(t *testing.T) {
	r := testRecorder()
	type status struct {
		Steps     int      `json:"steps"`
		Decisions []string `json:"decisions"`
	}
	cur := status{Steps: 3, Decisions: []string{"grow 2→3"}}
	srv := httptest.NewServer(NewMux(r.Snapshot,
		WithJSON("/policy", func() any { return cur })))
	defer srv.Close()

	code, body := get(t, srv, "/policy")
	if code != http.StatusOK {
		t.Fatalf("/policy status = %d", code)
	}
	var got status
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("unmarshal /policy: %v\n%s", err, body)
	}
	if got.Steps != 3 || len(got.Decisions) != 1 || got.Decisions[0] != "grow 2→3" {
		t.Fatalf("round-trip = %+v", got)
	}
	// The extra endpoint must not displace the built-ins.
	if code, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics status = %d after WithJSON", code)
	}
}
