package replicator

import (
	"errors"
	"fmt"

	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/trace"
	"versadep/internal/vtime"
)

// This file wires the autonomic policy layer onto a live replica node:
// sensors (Signals sampling), actuation (the three low-level knobs,
// including runtime replica elasticity), and the crash-vs-graceful fault
// meter fed from view-change notices.

// Faults exposes the node's fault meter: crash departures observed in
// view changes accumulate here, and the AvailabilityTarget policy plans
// replica counts against its availability estimate.
func (n *ReplicaNode) Faults() *policy.FaultMeter { return n.faults }

// Retire requests the graceful retirement of addr via the agreed stream
// (the replica-count knob turned downward at runtime). The named node's
// host observes the directive and leaves the group on its own.
func (n *ReplicaNode) Retire(addr string, now vtime.Time) error {
	return n.engine.RequestRetire(addr, now)
}

// Sensors builds a policy.Signals sampler over this node's live state:
// request rate, style and group size from the engine, tail latency from
// the execution histogram, per-replica availability from the fault meter.
// A node does not meter bandwidth; a harness that owns the fabric fills
// that signal in (experiment.Scenario).
func (n *ReplicaNode) Sensors() func() policy.Signals {
	execHist := n.trace.Histogram(trace.SubReplication, "exec_us")
	return func() policy.Signals {
		st := n.engine.StatsSnapshot()
		sig := policy.Signals{
			Rate:                st.Rate,
			Style:               st.Style,
			Replicas:            st.Members,
			CheckpointEvery:     n.engine.CheckpointEvery(),
			ReplicaAvailability: n.faults.Availability(),
		}
		if execHist != nil {
			sig.P99Micros = execHist.Quantile(0.99)
		}
		return sig
	}
}

// PolicyGate restricts a controller to this node while it is the synced
// primary, so a group of replicas runs exactly one control loop at a
// time (the loop migrates with the primary role on failover).
func (n *ReplicaNode) PolicyGate() func() bool {
	return func() bool {
		st := n.engine.StatsSnapshot()
		return st.Synced && st.Role == replication.RolePrimary
	}
}

// ElasticActuator turns policy decisions into engine and group actions
// on a live node, implementing policy.Actuator. Style switches and
// checkpoint retuning ride the agreed stream; Grow launches a fresh
// replica through the Spawn hook (it joins, receives a checkpoint plus
// log suffix, and goes live in a totally ordered view); Shrink retires
// the highest-ranked member gracefully.
type ElasticActuator struct {
	// Node is the replica the actuator drives (usually the primary). An
	// actuator made by Group.Actuator has none: it drives the group's
	// first live replica, looked up at every action.
	Node *ReplicaNode
	// Spawn launches one fresh replica seeded on the given members.
	// Required for Grow; the experiment harness spawns simulated nodes,
	// vdnode shells out to an operator-supplied command.
	Spawn func(seeds []string) error
	// Now supplies the virtual send instant for knob multicasts
	// (default: zero, fine for live deployments where virtual time is
	// unused).
	Now func() vtime.Time
	// TuneRetry, when set, applies a dial-retry decision to the node's
	// transport (vdnode wires it to tcptransport.Endpoint.SetRetry). Nil
	// on simulated fabrics, where there is nothing to dial.
	TuneRetry func(attempts, backoffMs int) error

	group *Group // set by Group.Actuator in place of Node
}

func (a *ElasticActuator) now() vtime.Time {
	if a.Now != nil {
		return a.Now()
	}
	return 0
}

// node is the replica this action drives.
func (a *ElasticActuator) node() (*ReplicaNode, error) {
	if a.group == nil {
		return a.Node, nil
	}
	live := a.group.Live()
	if len(live) == 0 {
		return nil, errors.New("replicator: no live replica to actuate on")
	}
	return live[0], nil
}

// SwitchStyle implements policy.Actuator.
func (a *ElasticActuator) SwitchStyle(target replication.Style) error {
	n, err := a.node()
	if err != nil {
		return err
	}
	n.Engine().RequestSwitch(target, a.now())
	return nil
}

// SetCheckpointEvery implements policy.Actuator.
func (a *ElasticActuator) SetCheckpointEvery(every int) error {
	if every <= 0 {
		return fmt.Errorf("replicator: checkpoint interval must be positive, got %d", every)
	}
	n, err := a.node()
	if err != nil {
		return err
	}
	n.Engine().SetCheckpointEvery(every, a.now())
	return nil
}

// Grow implements policy.Actuator: one new replica, seeded on the
// current membership.
func (a *ElasticActuator) Grow() error {
	if a.Spawn == nil {
		return errors.New("replicator: no spawn hook configured; cannot grow")
	}
	n, err := a.node()
	if err != nil {
		return err
	}
	view, err := n.Member().View()
	if err != nil {
		return err
	}
	return a.Spawn(append([]string(nil), view.Members...))
}

// TuneDialRetry implements policy.RetryTuner by delegating to the
// TuneRetry hook.
func (a *ElasticActuator) TuneDialRetry(attempts, backoffMs int) error {
	if a.TuneRetry == nil {
		return errors.New("replicator: no retry tuner configured (simulated transport has no dials)")
	}
	return a.TuneRetry(attempts, backoffMs)
}

// Shrink implements policy.Actuator: gracefully retire the
// highest-ranked member (never the primary, which is rank 0 — so a
// shrink costs no handoff when it can be avoided).
func (a *ElasticActuator) Shrink() error {
	n, err := a.node()
	if err != nil {
		return err
	}
	view, err := n.Member().View()
	if err != nil {
		return err
	}
	if len(view.Members) <= 1 {
		return errors.New("replicator: cannot shrink below one replica")
	}
	victim := view.Members[len(view.Members)-1]
	return n.Retire(victim, a.now())
}
