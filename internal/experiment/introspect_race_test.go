package experiment

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"versadep/internal/introspect"
	"versadep/internal/obsplane"
	"versadep/internal/replication"
	"versadep/internal/trace"
)

// TestScrapeDuringViewChange hammers a live introspection endpoint —
// /metrics validated against the Prometheus text format, /trace decoded
// back into a snapshot — while the group serves a closed loop and loses
// its primary mid-run. Run under -race this is the regression test for
// scrape-versus-view-change data races; in any mode it checks that a
// scrape taken at an arbitrary instant (including mid-failover) is
// always well-formed.
func TestScrapeDuringViewChange(t *testing.T) {
	o := DefaultOptions()
	o.Requests = 120
	scn, err := NewScenario(o, replication.WarmPassive, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer scn.Close()

	// The merged source walks every node and client recorder per scrape —
	// the widest surface a scrape can race over.
	srv := httptest.NewServer(introspect.NewMux(scn.TraceSnapshot))
	defer srv.Close()

	stop := make(chan struct{})
	var scrapeErr atomic.Value
	var scrapes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				path := "/metrics"
				if w%2 == 1 {
					path = "/trace"
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					scrapeErr.Store(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					scrapeErr.Store(err)
					return
				}
				if path == "/metrics" {
					_, err = obsplane.ValidateExposition(bytes.NewReader(body))
				} else {
					_, err = trace.ParseSnapshotJSON(body)
				}
				if err != nil {
					scrapeErr.Store(err)
					return
				}
				scrapes.Add(1)
			}
		}(w)
	}

	_, err = scn.Run(Plan{Events: []Event{{At: 40, CrashPrimary: true}}})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("closed loop did not survive the failover: %v", err)
	}
	if e := scrapeErr.Load(); e != nil {
		t.Fatalf("concurrent scrape: %v", e)
	}
	if scrapes.Load() == 0 {
		t.Fatal("no scrapes completed during the run")
	}
}
