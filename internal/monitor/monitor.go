// Package monitor implements the metric-collection side of the paper's
// framework (§2, step 1): "monitoring various system metrics (e.g.,
// latency, jitter, CPU load) in order to evaluate the conditions in the
// working environment."
//
// All metrics are collected in virtual time, matching the evaluation
// substrate: rate meters derive arrival rates from virtual timestamps; the
// bandwidth meter turns the network fabric's byte counters into MB/s over
// a virtual span — with latency and jitter, which a trace/hist Snapshot
// carries, exactly the quantities Figures 3, 4, 6 and 7 report.
package monitor

import (
	"sync"

	"versadep/internal/vtime"
)

// RateMeter derives an arrival rate from virtual timestamps over a sliding
// window of observations. The window is a fixed ring: recording overwrites
// the oldest stamp and allocates nothing.
type RateMeter struct {
	mu     sync.Mutex
	stamps []vtime.Time // window slots, filled in insertion order
	n      int          // stamps recorded so far, at most len(stamps)
	next   int          // the slot the next stamp goes into
}

// NewRateMeter creates a meter with the given window size (minimum 2).
func NewRateMeter(window int) *RateMeter {
	if window < 2 {
		window = 2
	}
	return &RateMeter{stamps: make([]vtime.Time, window)}
}

// Record notes one arrival at virtual time vt.
func (m *RateMeter) Record(vt vtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stamps[m.next] = vt
	m.next = (m.next + 1) % len(m.stamps)
	m.n = min(m.n+1, len(m.stamps))
}

// Rate returns the arrival rate in events per virtual second, or zero
// before two observations. The span runs from the oldest stamp in the
// window to the newest, in the order they were recorded.
func (m *RateMeter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n < 2 {
		return 0
	}
	w := len(m.stamps)
	oldest := m.stamps[(m.next-m.n+w)%w]
	newest := m.stamps[(m.next-1+w)%w]
	span := newest.Sub(oldest)
	if span <= 0 {
		return 0
	}
	return float64(m.n-1) / span.Seconds()
}

// Bandwidth converts a byte count over a virtual span into MB/s (the
// paper's Figure 7b unit: 1 MB = 1e6 bytes).
func Bandwidth(bytes int64, span vtime.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / span.Seconds()
}

// LedgerBreakdown averages per-component charges over a set of ledgers —
// the Figure 3 round-trip breakdown.
func LedgerBreakdown(ledgers []vtime.Ledger) map[vtime.Component]vtime.Duration {
	out := make(map[vtime.Component]vtime.Duration, 4)
	if len(ledgers) == 0 {
		return out
	}
	for _, c := range vtime.Components() {
		var sum vtime.Duration
		for i := range ledgers {
			sum += ledgers[i].Of(c)
		}
		out[c] = sum / vtime.Duration(len(ledgers))
	}
	return out
}

// TimePoint is one sample of a time series (Figure 6's rate/style plot).
type TimePoint struct {
	VT    vtime.Time
	Value float64
	Label string
}
