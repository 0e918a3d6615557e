// Package trace is the observability spine of the replicator stack: a
// lightweight, allocation-conscious tracing and counter registry that every
// layer — ORB, interceptor, group communication, replication engine, fault
// injector — reports into.
//
// The paper's adaptation loop begins with "monitoring various system
// metrics … to evaluate the conditions in the working environment" (§2,
// step 1). The client-visible quantities (latency and jitter in a
// trace/hist Snapshot, bandwidth and rate in the monitor package) are
// measured beside it; this package covers the stack's internals:
// retransmissions, duplicate suppressions, view changes, checkpoint and
// switch activity, failover replay lengths. Tests assert on them directly
// instead of inferring internal behavior from end-to-end timing.
//
// Design constraints, in order:
//
//   - Hot-path cost ≈ one atomic add. Subsystems resolve Counter pointers
//     once at construction; Inc/Add never touch the registry map.
//   - Nil-safety everywhere. A nil *Recorder hands out nil *Counters whose
//     methods are no-ops, so call sites are never gated on "is tracing on".
//   - Deterministic dumps. Snapshots order counters by registration and
//     events by record order, so two runs with the same seed produce
//     byte-identical JSON.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"versadep/internal/trace/hist"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

// Histogram is a log-bucketed latency histogram registered next to
// counters; see the hist package for the bucket layout and accuracy
// bound. Like Counter, a nil *Histogram is a no-op.
type Histogram = hist.Histogram

// Subsystem names used throughout the stack. Counters are namespaced as
// "<subsystem>.<name>" in snapshots and series labels.
const (
	SubORB         = "orb"
	SubInterceptor = "intercept"
	SubGCS         = "gcs"
	SubReplication = "replication"
	SubFaults      = "faults"
	SubTransport   = "transport"
	SubShard       = "shard"
)

// Counter is a monotonic (or gauge, via Store/Max) int64 register. The zero
// value is usable; a nil Counter is a no-op, which is how tracing stays
// free when no Recorder is attached.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Store sets the register to n (gauge semantics: queue depths, last-seen
// latencies).
func (c *Counter) Store(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Max raises the register to n if n is larger (high-watermark gauges).
func (c *Counter) Max(n int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the current value; zero on a nil Counter.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Event is one typed occurrence in a subsystem: a view change, a switch
// completing, a fault step firing. Events are sparse (protocol milestones,
// not per-message traffic), so a small ring suffices.
type Event struct {
	// Sub is the reporting subsystem.
	Sub string `json:"sub"`
	// Name labels the occurrence (e.g. "view_change", "switch_done").
	Name string `json:"name"`
	// VT is the virtual instant of the occurrence.
	VT vtime.Time `json:"vt"`
	// Value carries an event-specific quantity (view size, switch latency
	// in nanoseconds, replayed log length); zero when meaningless.
	Value int64 `json:"value"`
}

// DefaultEventCap is the ring capacity used by New.
const DefaultEventCap = 1024

// Recorder is a registry of named counters plus a bounded ring of typed
// events. All methods are safe for concurrent use and no-ops on nil.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]*Counter
	order    []string // registration order, for deterministic dumps

	events  []Event // ring storage
	evNext  int     // next write slot
	evCount int     // total events ever recorded
	evCap   int

	hists     map[string]*Histogram
	histOrder []string

	spans *span.Recorder
}

// New creates a recorder with the default event capacity and a span ring:
// what a caller that reads spans composes into the nodes it starts.
func New() *Recorder { return NewWithCap(DefaultEventCap) }

// NewWithoutSpans creates a recorder with the default event capacity and no
// span ring: counters, events and histograms work, Spans is nil, so every
// span site is inert and a snapshot carries no spans. It is what a node
// makes for itself when its caller hands it no recorder.
func NewWithoutSpans() *Recorder {
	return &Recorder{
		counters: make(map[string]*Counter),
		evCap:    DefaultEventCap,
		hists:    make(map[string]*Histogram),
	}
}

// NewWithCap creates a recorder with a span ring, retaining up to cap
// events (older events are overwritten). cap <= 0 disables event
// retention; counters still work.
func NewWithCap(cap int) *Recorder {
	r := NewWithoutSpans()
	r.evCap = cap
	r.spans = span.New(0)
	return r
}

// Counter returns the register for sub.name, creating it on first use.
// Callers resolve counters once and keep the pointer; a nil Recorder
// returns a nil (no-op) Counter.
func (r *Recorder) Counter(sub, name string) *Counter {
	if r == nil {
		return nil
	}
	key := sub + "." + name
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[key]
	if c == nil {
		c = &Counter{}
		r.counters[key] = c
		r.order = append(r.order, key)
	}
	return c
}

// Value reads the current value of sub.name without registering it; zero
// when absent or on a nil Recorder. Intended for tests and dashboards.
func (r *Recorder) Value(sub, name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[sub+"."+name]
	r.mu.Unlock()
	return c.Load()
}

// Histogram returns the histogram for sub.name, creating it on first use.
// Callers resolve histograms once and keep the pointer; a nil Recorder
// returns a nil (no-op) Histogram.
func (r *Recorder) Histogram(sub, name string) *Histogram {
	if r == nil {
		return nil
	}
	key := sub + "." + name
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[key]
	if h == nil {
		h = &Histogram{}
		r.hists[key] = h
		r.histOrder = append(r.histOrder, key)
	}
	return h
}

// Spans returns the recorder's causal span layer (nil, and therefore
// inert, on a nil Recorder or one made by NewWithoutSpans).
func (r *Recorder) Spans() *span.Recorder {
	if r == nil {
		return nil
	}
	return r.spans
}

// Event records a typed occurrence. No-op on a nil Recorder or when the
// event ring is disabled.
func (r *Recorder) Event(sub, name string, vt vtime.Time, value int64) {
	if r == nil || r.evCap <= 0 {
		return
	}
	e := Event{Sub: sub, Name: name, VT: vt, Value: value}
	r.mu.Lock()
	if len(r.events) < r.evCap {
		r.events = append(r.events, e)
	} else {
		r.events[r.evNext] = e
	}
	r.evNext = (r.evNext + 1) % r.evCap
	r.evCount++
	r.mu.Unlock()
}

// Snapshot is a point-in-time copy of the registry.
type Snapshot struct {
	// Counters maps "sub.name" to its value.
	Counters map[string]int64 `json:"counters"`
	// Events are the retained events, oldest first.
	Events []Event `json:"events,omitempty"`
	// EventsDropped counts events that fell out of the ring.
	EventsDropped int `json:"events_dropped,omitempty"`
	// Histograms maps "sub.name" to its bucketed distribution.
	Histograms map[string]hist.Snapshot `json:"histograms,omitempty"`
	// Spans are the retained finished causal spans, oldest first.
	Spans []span.Span `json:"spans,omitempty"`
	// SpansDropped counts spans that fell out of the span ring.
	SpansDropped int `json:"spans_dropped,omitempty"`
	// SpansOpen counts spans still open (Begin without End) at snapshot
	// time — should be zero once a run has quiesced; a persistent nonzero
	// value means a protocol phase leaked its closer.
	SpansOpen int `json:"spans_open,omitempty"`
}

// Get returns the snapshot value of sub.name (zero when absent).
func (s Snapshot) Get(sub, name string) int64 { return s.Counters[sub+"."+name] }

// Snapshot copies the current counter values and retained events. A nil
// Recorder yields an empty snapshot.
func (r *Recorder) Snapshot() Snapshot {
	snap := Snapshot{Counters: make(map[string]int64)}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, c := range r.counters {
		snap.Counters[key] = c.Load()
	}
	if n := len(r.events); n > 0 {
		snap.Events = make([]Event, 0, n)
		start := 0
		if r.evCount > n { // ring wrapped: oldest is at evNext
			start = r.evNext
		}
		for i := 0; i < n; i++ {
			snap.Events = append(snap.Events, r.events[(start+i)%n])
		}
		snap.EventsDropped = r.evCount - n
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]hist.Snapshot, len(r.hists))
		for key, h := range r.hists {
			snap.Histograms[key] = h.Snapshot()
		}
	}
	snap.Spans, snap.SpansDropped = r.spans.Snapshot()
	snap.SpansOpen = r.spans.OpenCount()
	return snap
}

// JSON renders the snapshot with counters in sorted-key order, so dumps
// diff cleanly across runs.
func (s Snapshot) JSON() []byte {
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type kv struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	}
	ordered := make([]kv, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, kv{k, s.Counters[k]})
	}
	hkeys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	type hkv struct {
		Name string        `json:"name"`
		Hist hist.Snapshot `json:"hist"`
	}
	horder := make([]hkv, 0, len(hkeys))
	for _, k := range hkeys {
		horder = append(horder, hkv{k, s.Histograms[k]})
	}
	out, err := json.MarshalIndent(struct {
		Counters      []kv        `json:"counters"`
		Events        []Event     `json:"events,omitempty"`
		EventsDropped int         `json:"events_dropped,omitempty"`
		Histograms    []hkv       `json:"histograms,omitempty"`
		Spans         []span.Span `json:"spans,omitempty"`
		SpansDropped  int         `json:"spans_dropped,omitempty"`
		SpansOpen     int         `json:"spans_open,omitempty"`
	}{ordered, s.Events, s.EventsDropped, horder, s.Spans, s.SpansDropped, s.SpansOpen}, "", "  ")
	if err != nil { // unreachable: all fields are marshalable
		return []byte(fmt.Sprintf("%q", err.Error()))
	}
	return out
}

// Merge sums every counter of each snapshot into one aggregate — the
// cluster-wide totals an experiment reports when each node has its own
// Recorder. Counters with the same "sub.name" key on different nodes sum;
// histograms with the same key merge bucket-wise; events and spans are
// concatenated in argument order (spans stay attributable through their
// Node field).
func Merge(snaps ...Snapshot) Snapshot {
	out := Snapshot{Counters: make(map[string]int64)}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		out.Events = append(out.Events, s.Events...)
		out.EventsDropped += s.EventsDropped
		for k, h := range s.Histograms {
			if out.Histograms == nil {
				out.Histograms = make(map[string]hist.Snapshot)
			}
			merged := out.Histograms[k]
			merged.Merge(h)
			out.Histograms[k] = merged
		}
		out.Spans = append(out.Spans, s.Spans...)
		out.SpansDropped += s.SpansDropped
		out.SpansOpen += s.SpansOpen
	}
	return out
}
