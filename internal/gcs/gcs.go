// Package gcs is versadep's group communication substrate — the stand-in
// for the Spread toolkit the paper builds on (§3.1).
//
// It provides the API surface the replicator needs from Spread:
//
//   - group membership with join/leave and crash detection, delivered as
//     view-change events;
//   - reliable, totally ordered multicast (Spread's agreed service), and
//     reliable point-to-point delivery;
//   - virtual synchrony: view changes are totally ordered with respect to
//     agreed messages, so every surviving member observes crashes at the
//     same point in the message stream — the property the runtime
//     replication-style switch protocol (§4.2, Figure 5) depends on;
//   - open-group access: external clients that are not members can submit
//     messages into the group's agreed stream and receive direct replies.
//
// Total order is implemented with a view-sequencer: the coordinator (the
// lowest-ranked member of the current view) assigns global sequence numbers
// and multicasts sequenced messages to the group. When the coordinator
// crashes, the next-ranked member runs a flush-and-recover view change that
// reconciles every survivor to the same prefix before installing the new
// view.
//
// Liveness machinery (heartbeats, retransmission, view-change timeouts) is
// paced in real time; message timing is accounted in virtual time via the
// vtime cost model, with per-component charges accumulated in ledgers.
package gcs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

// ServiceLevel names the delivery guarantee of a multicast, after Spread's
// service levels. The replicator needs one of them, Agreed, and it is the
// only one the GCS offers.
type ServiceLevel uint8

// Agreed delivers all messages in one total order, identical at every
// member, with view changes ordered consistently within the stream. Its
// value is the level byte agreed frames carry on the wire.
const Agreed ServiceLevel = 4

// View is an installed membership view. Members are sorted ascending; the
// first member is the coordinator (and the sequencer for agreed traffic).
//
// Members is read-only to whoever is handed a View (the Message.Payload
// rule applied to membership): a member makes the slice once, when it
// installs the view, and that one slice is what Member.View returns and
// what every Event delivered in the view carries. The member never writes
// to it either — the next view gets a slice of its own — so a View may be
// kept and read for as long as anyone likes. A holder that wants to sort or
// append copies first.
type View struct {
	ID      uint64
	Members []string
}

// Coordinator returns the view's coordinator address, or "" for an empty
// view.
func (v View) Coordinator() string {
	if len(v.Members) == 0 {
		return ""
	}
	return v.Members[0]
}

// Contains reports whether addr is a member of the view.
func (v View) Contains(addr string) bool {
	for _, m := range v.Members {
		if m == addr {
			return true
		}
	}
	return false
}

// EventKind discriminates Event.
type EventKind uint8

// Event kinds.
const (
	// EventMessage is an application multicast delivery.
	EventMessage EventKind = iota + 1
	// EventView is a membership change.
	EventView
	// EventDirect is a reliable point-to-point delivery (replies from
	// replicas to external clients use this path).
	EventDirect
)

// Event is one delivery from the GCS to the application layer.
type Event struct {
	Kind EventKind
	// Sender is the origin address (message and direct events).
	Sender string
	// Payload is the application bytes (message and direct events).
	Payload []byte
	// Seq is the global sequence number (agreed messages and views).
	Seq uint64
	// View is the installed view (view events) or the view in which a
	// message was delivered. Its Members are shared with every other event
	// of the view: read-only (see View).
	View View
	// VTime is the virtual instant of delivery at this member.
	VTime vtime.Time
	// SentVT is the origin's virtual send instant, identical at every
	// member (it travels in the frame). Deterministic distributed
	// decisions — the paper's replicated-state adaptation — key off this
	// rather than the member-local VTime.
	SentVT vtime.Time
	// Ledger carries the per-component virtual costs accumulated along
	// the message's path, including this delivery.
	Ledger vtime.Ledger
	// Joined is set on the first view event after this member joined an
	// existing group (as opposed to views it participated in changing):
	// the member has no state from before this view and needs a state
	// transfer from its peers.
	Joined bool
	// Left lists members that departed gracefully (announced leaves) in
	// this view change (view events). Departures not listed here were
	// crashes — the distinction the adaptation layer's fault-rate signal
	// is built on. The annotation travels on the sequenced view frame, so
	// every member classifies identically.
	Left []string
}

// Config parameterizes a Member.
type Config struct {
	// Seeds are addresses of existing members to join through. Empty
	// seeds bootstrap a new singleton group.
	Seeds []string
	// HBInterval is the heartbeat period (real time), and the period of the
	// member's tick: the longest an acknowledgement waits for a frame to
	// ride on or for company (kDataAck to an external client whose reply has
	// not left yet, kDirectAck to a member sending state). Keep it at or
	// below half the sender's ResendInterval: a slower tick costs one
	// retransmission per deferred acknowledgement (the duplicate is then
	// acknowledged at once).
	HBInterval time.Duration
	// SuspectAfter is how long without a heartbeat before a member is
	// suspected crashed (real time). With the accrual detector enabled it
	// acts as a floor: suspicion additionally requires the peer's phi to
	// reach PhiThreshold.
	SuspectAfter time.Duration
	// PhiThreshold enables phi-accrual failure detection when positive: a
	// silent member is suspected only once its accrued suspicion level
	// reaches this value (phi = t means the silence has probability at
	// most 10^-t of being a normal delay). Zero or negative falls back to
	// the fixed SuspectAfter timeout alone.
	PhiThreshold float64
	// PhiWindow is the accrual detector's inter-arrival sample window per
	// peer (0 = detector.DefaultWindow).
	PhiWindow int
	// ResendInterval is the retransmission period for unacknowledged
	// traffic (real time). Receivers sit on an acknowledgement for up to
	// one HBInterval; at the defaults that is half of this, which keeps a
	// healthy network free of retransmissions.
	ResendInterval time.Duration
	// PrepareTimeout bounds how long a view-change proposer waits for
	// flush acknowledgements before re-proposing without the laggards.
	PrepareTimeout time.Duration
	// MinorityGrace tunes the primary-partition rule's consistency/
	// availability tradeoff. A member whose unsuspected survivor set loses
	// primacy (no majority of the view, nor exactly half including the
	// view's lowest-ranked member) stalls instead of proposing a view:
	// under a transient partition, renewed contact rescinds the suspicion
	// and the stall ends with the group intact. If primacy is not restored
	// within MinorityGrace the member continues anyway and proposes its
	// fragment view — the peers are treated as crashed, trading split-brain
	// exposure under partitions longer than the grace for availability
	// (the paper's degraded modes: a lone survivor still serves). Zero or
	// negative never continues (strict primary-partition membership).
	MinorityGrace time.Duration
	// DataGapTimeout bounds how long the sequencer holds an external
	// client's out-of-order submission behind a missing OSeq before
	// declaring the gap abandoned and sequencing past it. A gap from an
	// external origin goes permanent when a prior coordinator acked the
	// missing submission (stopping the client's retransmission) but was
	// excluded before its sequencing survived the view change; clients
	// resend every pending frame each ResendInterval, so a gap that
	// outlives several intervals will never fill. Skipping is safe for
	// clients because upper-layer retries re-carry the lost request under
	// a fresh OSeq. Zero or negative disables skipping (strict FIFO).
	DataGapTimeout time.Duration
	// HistorySize is how many sequenced messages each member retains for
	// retransmission and view-change recovery.
	HistorySize int
	// Model is the virtual-time cost model used for GC charges.
	Model vtime.CostModel
	// Seed seeds the member's deterministic jitter source.
	Seed uint64
	// GroupID multiplexes independent groups (shards) over shared
	// transports: the member stamps it on every outbound frame and drops
	// inbound frames stamped with a different group. Zero — the default
	// and the unsharded case — is never encoded, keeping single-group
	// wire bytes identical to the pre-sharding protocol.
	GroupID uint32
	// Trace, when non-nil, receives the member's protocol counters and
	// events (view changes, heartbeat misses, retransmit-queue depth,
	// NACKs). A nil recorder costs nothing on the hot paths.
	Trace *trace.Recorder
	// SpanKey extracts a causal-trace key from an application payload
	// (e.g. the VIOP request id riding a replication envelope); payloads
	// it maps to the zero Key are not spanned. Injected by the composing
	// layer so gcs stays ignorant of upper-layer encodings. Only consulted
	// when Trace is set.
	SpanKey func(payload []byte) span.Key
}

// DefaultConfig returns timing suitable for tests and the evaluation
// harness: fast enough that crash recovery completes in well under a
// second of real time.
func DefaultConfig() Config {
	return Config{
		HBInterval:     15 * time.Millisecond,
		SuspectAfter:   90 * time.Millisecond,
		PhiThreshold:   8,
		PhiWindow:      32,
		ResendInterval: 30 * time.Millisecond,
		PrepareTimeout: 200 * time.Millisecond,
		MinorityGrace:  450 * time.Millisecond,
		DataGapTimeout: 250 * time.Millisecond,
		HistorySize:    8192,
		Model:          vtime.DefaultCostModel(),
		Seed:           1,
	}
}

// ParseDetector parses the CLI failure-detector syntax shared by vdnode
// and vdsim: "phi" (accrual detection at the default threshold),
// "phi:THRESH" (accrual at the given threshold), or "timeout" (fixed
// SuspectAfter silence window only). It returns the PhiThreshold value to
// set on a Config: zero disables accrual, positive enables it.
func ParseDetector(arg string) (float64, error) {
	switch arg {
	case "timeout":
		return 0, nil
	case "phi":
		return DefaultConfig().PhiThreshold, nil
	}
	if rest, ok := strings.CutPrefix(arg, "phi:"); ok {
		t, err := strconv.ParseFloat(rest, 64)
		if err != nil || t <= 0 {
			return 0, fmt.Errorf("gcs: bad phi threshold %q (want a positive number)", rest)
		}
		return t, nil
	}
	return 0, fmt.Errorf("gcs: unknown detector %q (want \"phi\", \"phi:THRESH\", or \"timeout\")", arg)
}

// Errors returned by the GCS.
var (
	// ErrStopped reports use of a stopped member.
	ErrStopped = errors.New("gcs: member stopped")
	// ErrNoView reports an operation requiring an installed view before
	// the join completed.
	ErrNoView = errors.New("gcs: no view installed")
	// ErrServiceLevel reports a multicast at a level other than Agreed.
	ErrServiceLevel = errors.New("gcs: unsupported service level")
)
