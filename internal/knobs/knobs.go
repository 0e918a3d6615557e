// Package knobs implements the paper's central abstraction: the two-level
// knob hierarchy of versatile dependability (§2).
//
// Low-level knobs tune the internal fault-tolerance mechanisms directly —
// the replication style, the number of replicas, the checkpointing
// frequency (the FT-CORBA "fault-tolerance properties"). High-level knobs
// express externally observable properties — scalability, availability —
// and encode the knowledge of how low-level settings map onto them
// (Table 1), so operators configure the system without understanding its
// internals.
//
// The scalability knob implements §4.3 exactly: given empirical
// measurements of every configuration (the Figure 7 dataset), a set of
// hard requirements (latency ≤ L, bandwidth ≤ B), and the tie-breaking
// cost function
//
//	Cost_i = p·Latency_i/L + (1-p)·Bandwidth_i/B
//
// it selects, per client count, the feasible configuration with the most
// faults tolerated, breaking ties by minimum cost — reproducing Table 2.
package knobs

import (
	"errors"
	"fmt"
	"math"

	"versadep/internal/replication"
	"versadep/internal/vtime"
)

// LowLevel is the set of low-level knobs (Table 1, bottom row): the
// directly adjustable fault-tolerance properties.
type LowLevel struct {
	// Style is the replication style.
	Style replication.Style
	// Replicas is the number of server replicas.
	Replicas int
	// CheckpointEvery is the checkpointing frequency in requests
	// (passive styles).
	CheckpointEvery int
}

// String renders the configuration in the paper's Table 2 notation, e.g.
// "A(3)" for three active replicas.
func (l LowLevel) String() string {
	return fmt.Sprintf("%s(%d)", l.Style.Short(), l.Replicas)
}

// FaultsTolerated is the number of simultaneous crash faults the
// configuration survives (k replicas tolerate k-1).
func (l LowLevel) FaultsTolerated() int {
	if l.Replicas < 1 {
		return 0
	}
	return l.Replicas - 1
}

// Measurement is one empirically evaluated configuration: a point of the
// Figure 7 dataset.
type Measurement struct {
	Config LowLevel
	// Clients is the offered load (number of closed-loop clients).
	Clients int
	// Latency is the measured average round-trip time.
	Latency vtime.Duration
	// Jitter is the measured latency standard deviation.
	Jitter vtime.Duration
	// Bandwidth is the measured network usage in MB/s.
	Bandwidth float64
}

// Requirements are the §4.3 constraints for the scalability knob.
type Requirements struct {
	// MaxLatency is requirement 1: average latency shall not exceed this.
	MaxLatency vtime.Duration
	// MaxBandwidthMBs is requirement 2: bandwidth usage shall not exceed
	// this (MB/s).
	MaxBandwidthMBs float64
	// LatencyWeight is p in the cost function (0..1); the paper uses 0.5
	// to weight latency and bandwidth equally.
	LatencyWeight float64
}

// PaperRequirements returns the exact requirements used in §4.3:
// latency ≤ 7000 µs, bandwidth ≤ 3 MB/s, p = 0.5.
func PaperRequirements() Requirements {
	return Requirements{
		MaxLatency:      7000 * vtime.Microsecond,
		MaxBandwidthMBs: 3.0,
		LatencyWeight:   0.5,
	}
}

// Cost evaluates the §4.3 tie-breaking heuristic for a measurement.
func (r Requirements) Cost(m Measurement) float64 {
	lat := float64(m.Latency) / float64(r.MaxLatency)
	bw := m.Bandwidth / r.MaxBandwidthMBs
	return r.LatencyWeight*lat + (1-r.LatencyWeight)*bw
}

// Feasible reports whether a measurement satisfies requirements 1 and 2.
func (r Requirements) Feasible(m Measurement) bool {
	return m.Latency <= r.MaxLatency && m.Bandwidth <= r.MaxBandwidthMBs
}

// ErrNoFeasibleConfig reports that no configuration satisfies the
// requirements — the situation where "the system notifies the operators
// that the tuning policy can no longer be honored" (§4.3).
var ErrNoFeasibleConfig = errors.New("knobs: no feasible configuration")

// PolicyRow is one row of the scalability policy (Table 2).
type PolicyRow struct {
	Clients         int
	Config          LowLevel
	Latency         vtime.Duration
	Bandwidth       float64
	FaultsTolerated int
	Cost            float64
}

// SelectConfig runs the §4.3 selection for one client count: among
// feasible configurations, maximize faults tolerated, then minimize cost.
func SelectConfig(measurements []Measurement, clients int, req Requirements) (PolicyRow, error) {
	best := PolicyRow{Clients: clients, FaultsTolerated: -1, Cost: math.Inf(1)}
	for _, m := range measurements {
		if m.Clients != clients || !req.Feasible(m) {
			continue
		}
		ft := m.Config.FaultsTolerated()
		cost := req.Cost(m)
		if ft > best.FaultsTolerated || (ft == best.FaultsTolerated && cost < best.Cost) {
			best = PolicyRow{
				Clients:         clients,
				Config:          m.Config,
				Latency:         m.Latency,
				Bandwidth:       m.Bandwidth,
				FaultsTolerated: ft,
				Cost:            cost,
			}
		}
	}
	if best.FaultsTolerated < 0 {
		return PolicyRow{}, fmt.Errorf("%w for %d clients", ErrNoFeasibleConfig, clients)
	}
	return best, nil
}

// ScalabilityPolicy computes the full policy table (Table 2) for client
// counts 1..maxClients. Client counts with no feasible configuration get a
// zero Config row and are reported in the returned infeasible list.
func ScalabilityPolicy(measurements []Measurement, maxClients int, req Requirements) ([]PolicyRow, []int) {
	rows := make([]PolicyRow, 0, maxClients)
	var infeasible []int
	for n := 1; n <= maxClients; n++ {
		row, err := SelectConfig(measurements, n, req)
		if err != nil {
			infeasible = append(infeasible, n)
			continue
		}
		rows = append(rows, row)
	}
	return rows, infeasible
}

// AvailabilityKnob is the Table 1 "availability" high-level knob: given a
// per-replica availability (fraction of time a single replica is up), it
// computes the smallest replica count whose group availability meets the
// target — the mapping from an external property to the #replicas and
// style knobs.
type AvailabilityKnob struct {
	// ReplicaAvailability is the availability of one replica (e.g. 0.99).
	ReplicaAvailability float64
	// MaxReplicas bounds the search (resource limits).
	MaxReplicas int
}

// Plan returns the low-level settings achieving target availability.
// Active replication masks faults with zero failover gap, so it is chosen
// for the most demanding targets; warm passive suffices otherwise (its
// failover gap is folded into a small availability penalty).
func (k AvailabilityKnob) Plan(target float64) (LowLevel, error) {
	if target <= 0 {
		return LowLevel{}, fmt.Errorf("knobs: availability target must be in (0,1), got %v (zero or negative availability is meaningless)", target)
	}
	if target >= 1 {
		return LowLevel{}, fmt.Errorf("knobs: availability target must be in (0,1), got %v (perfect availability is unattainable with fallible replicas)", target)
	}
	if k.ReplicaAvailability <= 0 || k.ReplicaAvailability >= 1 {
		return LowLevel{}, errors.New("knobs: replica availability must be in (0,1)")
	}
	maxR := k.MaxReplicas
	if maxR <= 0 {
		maxR = 5
	}
	// Warm passive failover makes the group unavailable for a short
	// window; model it as one extra "nine" of loss versus active.
	const passivePenalty = 0.1
	for r := 1; r <= maxR; r++ {
		down := math.Pow(1-k.ReplicaAvailability, float64(r))
		availActive := 1 - down
		availPassive := 1 - down - passivePenalty*down
		if availPassive < 0 {
			availPassive = 0
		}
		// availPassive < availActive; prefer the cheaper style when it
		// suffices.
		if availPassive >= target {
			return LowLevel{Style: replication.WarmPassive, Replicas: r, CheckpointEvery: 10}, nil
		}
		if availActive >= target {
			return LowLevel{Style: replication.Active, Replicas: r}, nil
		}
	}
	return LowLevel{}, fmt.Errorf("%w: availability %.6f unreachable with %d replicas",
		ErrNoFeasibleConfig, target, maxR)
}
