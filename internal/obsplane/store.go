// Package obsplane is the cluster observability plane: a bounded ring
// time-series store giving the stack's signals history (rate, latency
// quantiles, suspicion, transfer progress per window instead of one
// point-in-time value), a cluster aggregator that scrapes or ingests
// every node's /metrics + /trace and stitches causal spans across nodes
// into per-request timelines, and an SLO engine that evaluates a spec
// like "p99<5ms,avail>0.999:30s" into attainment and error-budget burn
// rate — the continuously-evaluated, system-wide objective signal the
// paper's adaptation loop (§2, step 1) assumes and the policy controller
// consumes.
//
// The plane is pull-based and strictly layered above trace/monitor: it
// ingests their snapshots and derives windowed deltas, but the hot paths
// never publish into it directly, so attaching the plane costs nothing
// until something scrapes it (DESIGN decision 12).
package obsplane

import (
	"sort"
	"sync"

	"versadep/internal/trace/hist"
)

// Hist names the latency record a WindowStat embeds, so a window reads
// both as its population (w.Count, w.Quantile(q)) and as one value
// (w.Hist).
type Hist = hist.Snapshot

// WindowStat is one fixed-width window's rollup of a series: the window's
// start, its last observation, and the population of its values.
type WindowStat struct {
	// Start is the window's inclusive start instant in nanoseconds
	// (virtual or wall — the store is clock-agnostic; callers pick one
	// and stay consistent).
	Start int64 `json:"start"`
	// Last is the most recent observation (gauge semantics).
	Last int64 `json:"last"`
	Hist
}

// Merge folds other into w (cross-window or cross-node rollup). Start
// keeps the earlier instant; Last keeps other's when it has data.
func (w *WindowStat) Merge(other WindowStat) {
	if other.Count == 0 {
		return
	}
	if w.Count == 0 || other.Start < w.Start {
		w.Start = other.Start
	}
	w.Last = other.Last
	w.Hist.Merge(other.Hist)
}

// series is one named metric's bounded window ring.
type series struct {
	windows []WindowStat // ring storage, windows[i].Start aligned to width
	next    int          // slot after the newest window
	n       int          // populated windows
}

// Store is a bounded ring time-series store: every named series keeps the
// most recent `retain` fixed-width windows, each holding its last value
// plus a hist.Snapshot of its values, so rollups answer both "how
// many and how fast" and "which quantile" per window. Observations carry
// their own timestamps (virtual in simulation, wall-clock nanos live);
// out-of-order arrivals within the retained horizon land in the right
// window, older ones are dropped. All methods are safe for concurrent
// use; a nil *Store is inert, following the repo's nil-safe discipline.
type Store struct {
	mu     sync.Mutex
	width  int64 // window width in nanoseconds
	retain int
	byName map[string]*series
	names  []string // registration order, for deterministic dumps
}

// DefaultRetain is the per-series window count used when NewStore is
// given retain <= 0.
const DefaultRetain = 64

// NewStore creates a store with the given window width in nanoseconds
// (minimum 1) and per-series window retention.
func NewStore(widthNanos int64, retain int) *Store {
	if widthNanos < 1 {
		widthNanos = 1
	}
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Store{width: widthNanos, retain: retain, byName: make(map[string]*series)}
}

// Width returns the window width in nanoseconds (zero on nil).
func (s *Store) Width() int64 {
	if s == nil {
		return 0
	}
	return s.width
}

// window returns the ring slot for the window containing at, advancing
// the ring when at lands past the newest window. Returns nil when at is
// older than the retained horizon. Caller holds s.mu.
func (s *Store) window(se *series, at int64) *WindowStat {
	start := at - mod(at, s.width)
	if se.n == 0 {
		se.windows[se.next] = WindowStat{Start: start}
		se.n = 1
		se.next = (se.next + 1) % s.retain
		return &se.windows[(se.next-1+s.retain)%s.retain]
	}
	newestIdx := (se.next - 1 + s.retain) % s.retain
	newest := se.windows[newestIdx].Start
	switch {
	case start == newest:
		return &se.windows[newestIdx]
	case start > newest:
		// Advance, materializing empty windows in between so rollups see
		// gaps as zero-count windows rather than silently skipping time.
		for newest < start {
			newest += s.width
			se.windows[se.next] = WindowStat{Start: newest}
			se.next = (se.next + 1) % s.retain
			if se.n < s.retain {
				se.n++
			}
		}
		return &se.windows[(se.next-1+s.retain)%s.retain]
	default:
		// Out-of-order observation: find its window among the retained.
		for i := 0; i < se.n; i++ {
			idx := (newestIdx - i + s.retain) % s.retain
			if se.windows[idx].Start == start {
				return &se.windows[idx]
			}
		}
		return nil // older than the horizon: dropped
	}
}

// mod is a floored modulo (correct for negative timestamps).
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

func (s *Store) seriesFor(name string) *series {
	se := s.byName[name]
	if se == nil {
		se = &series{windows: make([]WindowStat, s.retain)}
		s.byName[name] = se
		s.names = append(s.names, name)
	}
	return se
}

// Observe records one value for the series at the given instant.
func (s *Store) Observe(name string, at, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.window(s.seriesFor(name), at)
	if w == nil {
		return
	}
	w.Last = v
	w.Hist.Observe(v)
}

// ObserveHist folds a histogram delta (e.g. the bucket-wise difference of
// two scraped snapshots) into the series' window at the given instant —
// how the aggregator gives scraped latency distributions per-window
// quantile history without re-observing individual samples.
func (s *Store) ObserveHist(name string, at int64, h hist.Snapshot) {
	if s == nil || h.Count == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.window(s.seriesFor(name), at)
	if w == nil {
		return
	}
	w.Last = h.Max
	w.Hist.Merge(h)
}

// Gauge records an instantaneous level: like Observe, but semantically a
// sampled value (Last is the window's reading of record).
func (s *Store) Gauge(name string, at, v int64) { s.Observe(name, at, v) }

// Names returns the registered series names in first-seen order.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.names...)
}

// Windows returns the retained windows of a series, oldest first. The
// slice is a copy; an unknown series yields nil.
func (s *Store) Windows(name string) []WindowStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	se := s.byName[name]
	if se == nil || se.n == 0 {
		return nil
	}
	out := make([]WindowStat, 0, se.n)
	start := (se.next - se.n + s.retain) % s.retain
	for i := 0; i < se.n; i++ {
		w := se.windows[(start+i)%s.retain]
		// Deep-copy the histogram: a shallow copy's bucket slice still
		// points into the live ring, so a caller merging the returned
		// windows (every rollup does) would alias — and with in-place
		// merges, rewrite — the store's own state.
		w.Hist = w.Hist.Clone()
		out = append(out, w)
	}
	return out
}

// Rollup merges the most recent lastN windows of a series into one
// WindowStat (lastN <= 0 merges everything retained) — the cross-window
// aggregate an SLO evaluation or a dashboard sparkline reads.
func (s *Store) Rollup(name string, lastN int) WindowStat {
	wins := s.Windows(name)
	if lastN > 0 && len(wins) > lastN {
		wins = wins[len(wins)-lastN:]
	}
	var out WindowStat
	for _, w := range wins {
		out.Merge(w)
	}
	return out
}

// RollupSince merges the windows of a series starting at or after
// minStart. Unlike Rollup's last-N, this aligns by time, so series that
// stopped receiving observations (an error counter gone quiet) drop out
// of the evaluation instead of contributing their stale newest window.
func (s *Store) RollupSince(name string, minStart int64) WindowStat {
	var out WindowStat
	for _, w := range s.Windows(name) {
		if w.Start >= minStart {
			out.Merge(w)
		}
	}
	return out
}

// NewestStart returns the start instant of a series' newest window and
// whether the series has any windows.
func (s *Store) NewestStart(name string) (int64, bool) {
	wins := s.Windows(name)
	if len(wins) == 0 {
		return 0, false
	}
	return wins[len(wins)-1].Start, true
}

// SeriesDump is one series' retained windows, for the /slo and /timelines
// style JSON endpoints.
type SeriesDump struct {
	Name    string       `json:"name"`
	Windows []WindowStat `json:"windows"`
}

// Dump returns every series' retained windows, sorted by name for
// deterministic output.
func (s *Store) Dump() []SeriesDump {
	if s == nil {
		return nil
	}
	names := s.Names()
	sort.Strings(names)
	out := make([]SeriesDump, 0, len(names))
	for _, n := range names {
		out = append(out, SeriesDump{Name: n, Windows: s.Windows(n)})
	}
	return out
}
