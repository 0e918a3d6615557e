package replicator

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
)

// This file is the one replica-group harness: the mechanism behind the
// paper's #replicas knob — start a replica seeded on members, wait for the
// view, know who is live, retire one, tear everything down — for every
// caller that runs a whole group in one process. Policy stays with the
// caller: address names, which members a joiner is seeded on, boot order,
// GCS configuration, what to wait for after a change (DESIGN decision 19).

// Fabric is the network a Group's nodes live on, reduced to what the
// harness asks of it, so a Group runs the same over the simulated fabric
// and over pre-bound TCP endpoints.
type Fabric struct {
	// Endpoint opens the endpoint named addr.
	Endpoint func(addr string) (transport.MultiEndpoint, error)
	// Crashed reports whether the process at addr has been killed on the
	// fabric — by the caller, a fault schedule, a servant that takes its
	// host down. Crashing is the fabric's own operation; the group only
	// observes it.
	Crashed func(addr string) bool
}

// SimFabric is the simulated network as a Fabric.
func SimFabric(net *simnet.Network) Fabric {
	return Fabric{
		Endpoint: func(addr string) (transport.MultiEndpoint, error) { return net.Endpoint(addr) },
		Crashed:  net.Crashed,
	}
}

// ShardedClient starts a router-fronted client, which belongs to no one
// group, on the endpoint named addr. The caller stops it.
func (f Fabric) ShardedClient(addr string, cfg ShardedClientConfig) (*ClientNode, error) {
	ep, err := f.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	return StartShardedClient(ep, cfg), nil
}

// Eventually polls cond every step until it holds or timeout has passed,
// and reports whether it held.
func Eventually(timeout, step time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(step)
	}
	return true
}

// Group is one replica group and its clients, run in this process on a
// Fabric. Methods are safe for concurrent use: a policy controller grows
// the group while clients and observers walk it.
type Group struct {
	fab Fabric

	mu sync.Mutex
	// nodes is every replica ever added, in Add order, crashed and retired
	// ones included: their counters stay readable and belong in a snapshot.
	nodes   []*ReplicaNode
	clients []*ClientNode
}

// NewGroup returns an empty group on f.
func NewGroup(f Fabric) *Group { return &Group{fab: f} }

// Add starts a replica on the endpoint named addr, joining through seeds
// (none bootstraps the group). It returns as soon as the node runs; the
// caller registers its servants and waits for what it needs (WaitSize).
func (g *Group) Add(addr string, seeds []string, cfg ReplicaConfig) (*ReplicaNode, error) {
	ep, err := g.fab.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	cfg.Seeds = seeds
	node := StartReplica(ep, cfg)
	g.mu.Lock()
	g.nodes = append(g.nodes, node)
	g.mu.Unlock()
	return node, nil
}

// Nodes returns every replica ever added, in Add order.
func (g *Group) Nodes() []*ReplicaNode {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*ReplicaNode(nil), g.nodes...)
}

// Live returns the replicas still running, in Add order: not crashed on
// the fabric and not stopped (by Retire, or by leaving on their own when
// the agreed stream retires them). A joiner that has no view yet is live.
func (g *Group) Live() []*ReplicaNode {
	var live []*ReplicaNode
	for _, n := range g.Nodes() {
		if g.fab.Crashed(n.Addr()) {
			continue
		}
		if _, err := n.Member().View(); errors.Is(err, gcs.ErrStopped) {
			continue
		}
		live = append(live, n)
	}
	return live
}

// Members lists the addresses of the live replicas.
func (g *Group) Members() []string {
	var out []string
	for _, n := range g.Live() {
		out = append(out, n.Addr())
	}
	return out
}

// WaitSize blocks until every live replica reports a view of n members.
func (g *Group) WaitSize(n int, timeout time.Duration) error {
	ok := Eventually(timeout, 5*time.Millisecond, func() bool {
		live := g.Live()
		for _, node := range live {
			if v, err := node.Member().View(); err != nil || len(v.Members) != n {
				return false
			}
		}
		return len(live) > 0
	})
	if !ok {
		return fmt.Errorf("replicator: group did not converge on %d members within %v", n, timeout)
	}
	return nil
}

// Retire gracefully removes the live replica at addr: it announces a leave,
// the view reconfigures, and the node stops. (ReplicaNode.Retire is the
// other way down: a directive on the agreed stream that the named replica
// obeys by leaving on its own.)
func (g *Group) Retire(addr string) error {
	for _, n := range g.Live() {
		if n.Addr() == addr {
			n.Leave()
			return nil
		}
	}
	return fmt.Errorf("replicator: no live replica %s", addr)
}

// Client starts a client on the endpoint named addr. The group stops it when
// it closes.
func (g *Group) Client(addr string, cfg ClientConfig) (*ClientNode, error) {
	ep, err := g.fab.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	c := StartClient(ep, cfg)
	g.mu.Lock()
	g.clients = append(g.clients, c)
	g.mu.Unlock()
	return c, nil
}

// Clients returns the group's clients in the order they were started.
func (g *Group) Clients() []*ClientNode {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*ClientNode(nil), g.clients...)
}

// TraceSnapshot merges the trace of every replica ever added — crashed and
// retired ones contribute their final counters — and of every client into
// one system-wide snapshot (per-subsystem counters sum across processes).
func (g *Group) TraceSnapshot() trace.Snapshot {
	var snaps []trace.Snapshot
	for _, n := range g.Nodes() {
		snaps = append(snaps, n.TraceSnapshot())
	}
	for _, c := range g.Clients() {
		snaps = append(snaps, c.TraceSnapshot())
	}
	return trace.Merge(snaps...)
}

// Close stops the clients, then every replica ever added. The fabric, which
// may carry other groups, is the caller's to close.
func (g *Group) Close() {
	for _, c := range g.Clients() {
		c.Stop()
	}
	for _, n := range g.Nodes() {
		n.Stop()
	}
}

// Actuator returns the policy actuator over the group: every action
// resolves the first live replica anew, so the actuator outlives any single
// node. spawn launches one fresh replica (see ElasticActuator.Spawn).
func (g *Group) Actuator(spawn func(seeds []string) error) *ElasticActuator {
	return &ElasticActuator{group: g, Spawn: spawn}
}
