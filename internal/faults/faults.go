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
	"sync"
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

// Injector runs schedules against a fabric.
type Injector struct {
	net *simnet.Network

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}
	applied []string
}

// NewInjector creates an injector for net.
func NewInjector(net *simnet.Network) *Injector {
	return &Injector{net: net, stop: make(chan struct{})}
}

// Run executes the schedule asynchronously; the returned channel closes
// when every step has fired (or the injector is stopped early). Each call
// gets its own completion channel, so an injector can run schedules
// back-to-back; a stopped injector's schedules complete immediately
// without firing anything.
func (i *Injector) Run(s *Schedule) <-chan struct{} {
	steps := append([]Step(nil), s.steps...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for _, st := range steps {
			wait := st.After - time.Since(start)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-i.stop:
					return
				}
			}
			select {
			case <-i.stop:
				return
			default:
			}
			st.Do(i.net)
			i.mu.Lock()
			i.applied = append(i.applied, st.Name)
			i.mu.Unlock()
		}
	}()
	return done
}

// Applied returns the names of the steps that have fired so far.
func (i *Injector) Applied() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]string(nil), i.applied...)
}

// Stop aborts a running schedule.
func (i *Injector) Stop() {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.stopped {
		i.stopped = true
		close(i.stop)
	}
}
