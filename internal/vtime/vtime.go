// Package vtime implements the virtual-time accounting substrate used by the
// versadep evaluation harness.
//
// The paper measured its prototype on a 2004-era testbed (Pentium III
// 900 MHz nodes, a 100 Mb/s LAN, the TAO ORB and the Spread toolkit). We
// cannot re-create that hardware, so versadep executes every protocol for
// real (goroutines, channels, real message exchanges) while *performance* is
// tracked in virtual time: each message carries a virtual timestamp, every
// layer charges its modeled cost, and servers serialize work through a
// schedule of busy intervals (see Server). Reported latencies and bandwidths
// are virtual-time quantities, which makes experiments deterministic and
// instantaneous while preserving the relational results of the paper
// (orderings, ratios, crossovers).
//
// The default cost model is calibrated to the component costs the paper
// reports in Figure 3: application 15 µs, ORB 398 µs, group communication
// 620 µs and replicator 154 µs per round trip.
package vtime

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Time is an instant in virtual time, counted in nanoseconds since the start
// of an experiment. It deliberately mirrors time.Duration arithmetic rather
// than time.Time so that zero is a meaningful origin.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely to
// and from time.Duration; the separate type keeps virtual and wall-clock
// quantities from being mixed by accident.
type Duration = time.Duration

// Common virtual durations, re-exported for call-site brevity.
const (
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Micros reports t in whole microseconds, the unit the paper uses.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the instant in microseconds for experiment tables.
func (t Time) String() string { return fmt.Sprintf("%.1fµs", t.Micros()) }

// CostModel holds the virtual cost charged by each layer of the stack. All
// fields are per-message (or per-invocation) unless noted. The zero value is
// not useful; construct models with DefaultCostModel and adjust fields.
type CostModel struct {
	// AppProcess is the servant's execution time per request. The paper's
	// micro-benchmark does almost no work (≈15 µs per round trip, so
	// ≈7.5 µs per direction; we charge it once, at the server).
	AppProcess Duration

	// ORBMarshal is charged by the ORB once per message it marshals or
	// unmarshals (a round trip touches the ORB four times: client request
	// marshal, server request unmarshal, server reply marshal, client
	// reply unmarshal). Calibrated so the ORB contributes ≈398 µs per
	// round trip.
	ORBMarshal Duration

	// GCSend is charged by a group-communication daemon per crossing
	// (submit or deliver). One replicated round trip makes four
	// crossings (client submit, replica deliver, replica reply-send,
	// client reply-deliver) plus the sequencer's ordering cost and three
	// wire hops, totalling ≈620 µs for Figure 3.
	GCSend Duration

	// GCOrder is the extra cost of agreed (totally ordered) delivery per
	// message: the sequencer round, charged once per sequenced message.
	GCOrder Duration

	// Intercept is charged by the library-interposition layer each time a
	// message crosses it (twice per round trip per intercepted side;
	// ≈154 µs total in Figure 3, so ≈38.5 µs per crossing).
	Intercept Duration

	// WireBase is the fixed per-message network latency of the LAN.
	WireBase Duration

	// BytesPerSecond is the modeled link bandwidth; transmission time of a
	// message of n bytes is n/BytesPerSecond. 100 Mb/s ≈ 12.5 MB/s.
	BytesPerSecond float64

	// CheckpointBase is the quiescence + capture overhead the primary pays
	// per checkpoint in warm-passive replication, independent of size.
	CheckpointBase Duration

	// CheckpointPerByte is the additional capture cost per byte of
	// application state.
	CheckpointPerByte Duration

	// StateMarshalPerByte is the extra per-byte cost the primary pays
	// for each backup it ships checkpoint state to (serialization and
	// send-path work, multiplied by the number of backups).
	StateMarshalPerByte Duration

	// ColdStart is the cost of launching a cold backup from scratch
	// (process start + state restore), paid on primary failover in the
	// cold-passive style.
	ColdStart Duration

	// JitterFrac is the fractional uniform jitter applied to every charged
	// cost (0.1 = ±10 %). Jitter is drawn from a deterministic seeded
	// source so experiments remain reproducible.
	JitterFrac float64
}

// DefaultCostModel returns the model calibrated against the paper's Figure 3
// breakdown and testbed (see package comment).
func DefaultCostModel() CostModel {
	return CostModel{
		AppProcess:        15 * Microsecond,
		ORBMarshal:        100 * Microsecond, // ×4 crossings ≈ 400 µs/RT
		GCSend:            75 * Microsecond,  // ×4 crossings + order + wire ≈ 620 µs/RT
		GCOrder:           60 * Microsecond,
		Intercept:         38 * Microsecond, // ×4 crossings ≈ 154 µs/RT
		WireBase:          55 * Microsecond,
		BytesPerSecond:    12.5e6, // 100 Mb/s LAN
		CheckpointBase:    450 * Microsecond,
		CheckpointPerByte: 80 * time.Nanosecond,

		StateMarshalPerByte: 400 * time.Nanosecond,
		ColdStart:           250 * Millisecond,
		JitterFrac:          0.08,
	}
}

// Transmit returns the transmission delay of n bytes at the modeled link
// bandwidth, plus the fixed wire latency.
func (m CostModel) Transmit(n int) Duration {
	if m.BytesPerSecond <= 0 {
		return m.WireBase
	}
	return m.WireBase + Duration(float64(n)/m.BytesPerSecond*float64(Second))
}

// CheckpointCost returns the primary-side cost of taking a checkpoint of
// stateSize bytes.
func (m CostModel) CheckpointCost(stateSize int) Duration {
	return m.CheckpointBase + Duration(stateSize)*m.CheckpointPerByte
}

// Jitter perturbs d by the model's jitter fraction using u, a uniform sample
// in [0,1). With JitterFrac f the result is d·(1-f+2f·u).
func (m CostModel) Jitter(d Duration, u float64) Duration {
	if m.JitterFrac == 0 {
		return d
	}
	scale := 1 - m.JitterFrac + 2*m.JitterFrac*u
	return Duration(float64(d) * scale)
}

// Server models a sequential resource in virtual time (a CPU executing
// requests one at a time). A job waits out the work under way when it
// arrives, and queues: this is what produces the near-linear latency growth
// with client count in Figure 7. Goroutines reach a server in real-time
// order, not virtual order, so work that arrives later may already be
// scheduled; a job then runs in the idle gap before that work if it fits
// there, and only otherwise queues behind everything scheduled, instead of
// waiting for whichever goroutine ran first.
type Server struct {
	mu    sync.Mutex
	busy  []busySpan // disjoint, in time order; a job queued behind one extends it
	floor Time       // where the forgotten intervals ended: no job starts before it
}

type busySpan struct{ start, end Time }

// maxBusy bounds a Server's schedule; at it the older half is forgotten.
const maxBusy = 4096

// Execute schedules a job arriving at 'arrive' that takes 'cost', returning
// its virtual completion instant.
func (s *Server) Execute(arrive Time, cost Duration) Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.busy) == maxBusy {
		s.floor = s.busy[maxBusy/2-1].end
		s.busy = append(s.busy[:0], s.busy[maxBusy/2:]...)
	}
	start := arrive.Max(s.floor)
	n := len(s.busy)
	i := n
	if n > 0 && start < s.busy[n-1].end {
		i = sort.Search(n, func(j int) bool { return s.busy[j].end > start })
		if start.Add(cost) > s.busy[i].start {
			start, i = s.busy[i].end, i+1
		}
		if i < n && start.Add(cost) > s.busy[i].start {
			start, i = s.busy[n-1].end, n
		}
	}
	done := start.Add(cost)
	switch {
	case cost <= 0:
	case i > 0 && s.busy[i-1].end == start:
		s.busy[i-1].end = done
	default:
		s.busy = slices.Insert(s.busy, i, busySpan{start, done})
	}
	return done
}
