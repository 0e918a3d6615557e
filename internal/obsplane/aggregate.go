package obsplane

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"versadep/internal/trace"
)

// Target is one remote node the aggregator scrapes.
type Target struct {
	// Name is the node's logical name (used as the span Node label
	// namespace and the per-node snapshot key).
	Name string `json:"name"`
	// BaseURL is the node's introspection root, e.g.
	// "http://127.0.0.1:6061".
	BaseURL string `json:"base_url"`
}

// TargetStatus is one target's scrape health, served on /aggregator.
type TargetStatus struct {
	Target
	// LastError is the most recent scrape failure ("" when healthy).
	LastError string `json:"last_error,omitempty"`
	// LastScrapeUnixNanos is the wall instant of the last successful
	// scrape (0 before the first).
	LastScrapeUnixNanos int64 `json:"last_scrape_unix_nanos,omitempty"`
}

// AggregatorStatus summarizes the aggregator for its JSON endpoint.
type AggregatorStatus struct {
	Targets []TargetStatus `json:"targets,omitempty"`
	// Nodes lists every node with an ingested snapshot.
	Nodes []string `json:"nodes"`
	// Series lists the derived time-series names.
	Series []string `json:"series"`
	// MalformedExpositions counts /metrics scrapes that failed
	// ValidateExposition.
	MalformedExpositions int `json:"malformed_expositions"`
	// Timelines is the number of stitched request timelines available.
	Timelines int `json:"timelines"`
}

// Aggregator builds the cluster-wide view: it ingests per-node trace
// snapshots (scraped over HTTP from /trace, or handed in directly by an
// in-process source), derives windowed time series from counter and
// histogram deltas, and stitches every node's causal spans into
// per-request cross-node timelines. Each /metrics scrape is also run
// through ValidateExposition, so a node emitting a malformed exposition
// is caught at the aggregation tier.
//
// Derived series (see the Series* constants): per-request latency
// ("rtt_us", from the clients' round-trip histogram deltas), replica
// turnaround ("exec_us"), request outcomes ("req_ok" from completed
// round trips, "req_err" from final invocation give-ups), cluster
// request flow ("requests" client-side, "served" replica-side),
// failure-detector suspicion ("suspicion" from heartbeat-miss deltas),
// and state-transfer progress ("transfer_bytes").
type Aggregator struct {
	store *Store

	mu        sync.Mutex
	latest    map[string]trace.Snapshot // per-node newest snapshot
	prev      map[string]trace.Snapshot // per-node snapshot at last ingest
	local     []localSource
	tgts      []Target
	health    map[string]*TargetStatus
	malformed int

	client *http.Client
}

type localSource struct {
	name string
	fn   func() trace.Snapshot
}

// SeriesServed is the replica-side counterpart of SeriesRate: requests
// served per window, from orb.requests_served deltas.
const SeriesServed = "served"

// NewAggregator creates an aggregator deriving series into a store with
// the given window width (nanoseconds) and retention.
func NewAggregator(widthNanos int64, retain int) *Aggregator {
	return &Aggregator{
		store:  NewStore(widthNanos, retain),
		latest: make(map[string]trace.Snapshot),
		prev:   make(map[string]trace.Snapshot),
		health: make(map[string]*TargetStatus),
		client: &http.Client{Timeout: 5 * time.Second},
	}
}

// Store exposes the derived time-series store (e.g. for an Engine).
func (a *Aggregator) Store() *Store { return a.store }

// Attach registers an in-process snapshot source sampled on every
// Sample call — how vdsim and a replica's own vdnode feed the plane
// without HTTP.
func (a *Aggregator) Attach(name string, fn func() trace.Snapshot) {
	a.mu.Lock()
	a.local = append(a.local, localSource{name: name, fn: fn})
	a.mu.Unlock()
}

// AddTarget registers a remote scrape target.
func (a *Aggregator) AddTarget(name, baseURL string) {
	a.mu.Lock()
	t := Target{Name: name, BaseURL: baseURL}
	a.tgts = append(a.tgts, t)
	a.health[name] = &TargetStatus{Target: t}
	a.mu.Unlock()
}

// Ingest folds one node's snapshot into the plane at instant at: the
// node's newest snapshot replaces its previous one for span stitching
// and Merged(), and the counter/histogram deltas since the previous
// ingest become windowed observations in the derived series.
func (a *Aggregator) Ingest(node string, at int64, snap trace.Snapshot) {
	a.mu.Lock()
	prev := a.prev[node]
	a.prev[node] = snap
	a.latest[node] = snap
	a.mu.Unlock()

	d := func(key string) int64 {
		v := snap.Counters[key] - prev.Counters[key]
		if v < 0 {
			v = 0 // counter reset (node restart)
		}
		return v
	}
	if rtt := snap.Histograms["orb.rtt_us"].Sub(prev.Histograms["orb.rtt_us"]); rtt.Count > 0 {
		a.store.ObserveHist(SeriesLatencyMicros, at, rtt)
		a.store.Observe(SeriesGood, at, rtt.Count)
	}
	if exec := snap.Histograms["replication.exec_us"].Sub(prev.Histograms["replication.exec_us"]); exec.Count > 0 {
		a.store.ObserveHist(SeriesExecMicros, at, exec)
	}
	if n := d("orb.timeouts"); n > 0 {
		a.store.Observe(SeriesBad, at, n)
	}
	if n := d("orb.invocations"); n > 0 {
		a.store.Observe(SeriesRate, at, n)
	}
	if n := d("orb.requests_served"); n > 0 {
		a.store.Observe(SeriesServed, at, n)
	}
	if n := d("gcs.heartbeat_misses"); n > 0 {
		a.store.Observe(SeriesSuspicion, at, n)
	}
	if n := d("replication.transfer_bytes_sent"); n > 0 {
		a.store.Observe(SeriesTransferBytes, at, n)
	}
}

// Sample ingests every attached in-process source at instant at.
func (a *Aggregator) Sample(at int64) {
	a.mu.Lock()
	local := append([]localSource(nil), a.local...)
	a.mu.Unlock()
	for _, src := range local {
		a.Ingest(src.name, at, src.fn())
	}
}

// ScrapeOnce scrapes every target's /trace (ingested at instant at) and
// /metrics (validated), returning the first error encountered after
// trying all targets. Per-target health lands in Status().
func (a *Aggregator) ScrapeOnce(at int64) error {
	a.mu.Lock()
	tgts := append([]Target(nil), a.tgts...)
	a.mu.Unlock()
	var first error
	for _, t := range tgts {
		err := a.scrapeTarget(t, at)
		a.mu.Lock()
		h := a.health[t.Name]
		if err != nil {
			h.LastError = err.Error()
			if first == nil {
				first = err
			}
		} else {
			h.LastError = ""
			h.LastScrapeUnixNanos = time.Now().UnixNano()
		}
		a.mu.Unlock()
	}
	return first
}

func (a *Aggregator) scrapeTarget(t Target, at int64) error {
	body, err := a.get(t.BaseURL + "/trace")
	if err != nil {
		return fmt.Errorf("obsplane: scrape %s /trace: %w", t.Name, err)
	}
	snap, err := trace.ParseSnapshotJSON(body)
	if err != nil {
		return fmt.Errorf("obsplane: scrape %s: %w", t.Name, err)
	}
	a.Ingest(t.Name, at, snap)

	resp, err := a.client.Get(t.BaseURL + "/metrics")
	if err != nil {
		return fmt.Errorf("obsplane: scrape %s /metrics: %w", t.Name, err)
	}
	defer resp.Body.Close()
	if _, err := ValidateExposition(resp.Body); err != nil {
		a.mu.Lock()
		a.malformed++
		a.mu.Unlock()
		return fmt.Errorf("obsplane: %s exposition malformed: %w", t.Name, err)
	}
	return nil
}

func (a *Aggregator) get(url string) ([]byte, error) {
	resp, err := a.client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// Start samples local sources and scrapes targets every interval until
// the returned stop function is called.
func (a *Aggregator) Start(every time.Duration) (stop func()) {
	if every <= 0 {
		every = time.Second
	}
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				at := time.Now().UnixNano()
				a.Sample(at)
				_ = a.ScrapeOnce(at)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Merged returns the cluster-wide snapshot: every ingested node's newest
// snapshot merged (counters sum, histograms merge, spans concatenate in
// sorted node order for determinism).
func (a *Aggregator) Merged() trace.Snapshot {
	a.mu.Lock()
	nodes := make([]string, 0, len(a.latest))
	for n := range a.latest {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	snaps := make([]trace.Snapshot, 0, len(nodes))
	for _, n := range nodes {
		snaps = append(snaps, a.latest[n])
	}
	a.mu.Unlock()
	return trace.Merge(snaps...)
}

// Timelines stitches the merged cluster snapshot's request spans into
// cross-node timelines (see Stitch).
func (a *Aggregator) Timelines() []Timeline {
	return Stitch(a.Merged().Spans)
}

// Status reports aggregation health for the /aggregator JSON endpoint.
func (a *Aggregator) Status() AggregatorStatus {
	a.mu.Lock()
	st := AggregatorStatus{MalformedExpositions: a.malformed}
	for _, t := range a.tgts {
		st.Targets = append(st.Targets, *a.health[t.Name])
	}
	for n := range a.latest {
		st.Nodes = append(st.Nodes, n)
	}
	a.mu.Unlock()
	sort.Strings(st.Nodes)
	st.Series = a.store.Names()
	sort.Strings(st.Series)
	st.Timelines = len(a.Timelines())
	return st
}
