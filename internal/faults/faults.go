// Package faults orchestrates fault injection against the simulated
// network fabric, covering the fault classes the paper assumes (§3.1):
// process and node crash faults, partitions, and — through one link rule
// (transport.Rule) — transient communication faults (loss, duplication,
// reordering, corruption) and performance/timing faults (added delay).
//
// A Schedule is a deterministic script of timed fault actions; the
// evaluation harness and the failure-injection tests use it to crash
// primaries mid-protocol, create loss bursts, and partition groups at
// controlled points of an experiment.
package faults

import (
	"time"

	"versadep/internal/simnet"
	"versadep/internal/transport"
)

// Action is one fault operation applied to the fabric.
type Action func(net *simnet.Network)

// Crash kills the process at addr.
func Crash(addr string) Action {
	return func(n *simnet.Network) { n.Crash(addr) }
}

// SetLink sets the rule on a link ("*" wildcards allowed; see
// simnet.Network.SetLink for which entry applies). A loss burst is two
// steps: the rule, then the zero Rule.
func SetLink(from, to string, r transport.Rule) Action {
	return func(n *simnet.Network) { n.SetLink(from, to, r) }
}

// Partition moves addr into partition id.
func Partition(addr string, id int) Action {
	return func(n *simnet.Network) { n.Partition(addr, id) }
}

// Heal removes all partitions and clears every link rule.
func Heal() Action {
	return func(n *simnet.Network) { n.Heal() }
}

// HealAddr returns just addr to partition 0, leaving other partitions in
// place — the targeted counterpart of Heal for scripts that reconnect one
// node (a joiner mid-state-transfer) while a wider fault persists.
func HealAddr(addr string) Action {
	return func(n *simnet.Network) { n.HealAddr(addr) }
}

// Step is a timed action.
type Step struct {
	// After is the real-time delay from schedule start (liveness
	// machinery — failure detection, retransmission — runs in real
	// time, so faults are injected on the same clock).
	After time.Duration
	// Do is the fault action.
	Do Action
	// Name labels the step in logs.
	Name string
}

// Schedule is a deterministic fault script.
type Schedule struct {
	steps []Step
}

// At appends a step firing after d.
func (s *Schedule) At(d time.Duration, name string, a Action) *Schedule {
	s.steps = append(s.steps, Step{After: d, Do: a, Name: name})
	return s
}

// Steps returns a copy of the script, for logging and for comparing two
// generated schedules (the chaos planner's determinism contract).
func (s *Schedule) Steps() []Step {
	return append([]Step(nil), s.steps...)
}

// Run executes the schedule against net asynchronously; the returned
// channel closes once every step has fired. Each call gets its own
// completion channel, so schedules can run back-to-back or at once.
func Run(net *simnet.Network, s *Schedule) <-chan struct{} {
	steps := s.Steps()
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for _, st := range steps {
			if wait := st.After - time.Since(start); wait > 0 {
				<-time.After(wait)
			}
			st.Do(net)
		}
	}()
	return done
}
