package replicator

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/replication"
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
	closed  bool
	// wake is closed, and replaced, to wake the Awaits in progress, which
	// waiters counts; with nobody waiting a notice costs one atomic load.
	wake    chan struct{}
	waiters atomic.Int32
}

// NewGroup returns an empty group on f.
func NewGroup(f Fabric) *Group { return &Group{fab: f, wake: make(chan struct{})} }

// Add starts a replica on the endpoint named addr, joining through seeds
// (none bootstraps the group). It returns as soon as the node runs; the
// caller registers its servants and waits for what it needs (Await).
func (g *Group) Add(addr string, seeds []string, cfg ReplicaConfig) (*ReplicaNode, error) {
	ep, err := g.fab.Endpoint(addr)
	if err != nil {
		return nil, err
	}
	cfg.Seeds = seeds
	node := startReplica(ep, cfg, g.notice)
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
	return g.Await(timeout, func(recs map[string]replication.Stats) bool {
		for _, r := range recs {
			if r.Members != n {
				return false
			}
		}
		return len(recs) > 0
	})
}

// Await blocks until pred holds of the live replicas' progress records
// (replication.Stats, keyed by address), or timeout passes. It evaluates
// pred once at the start and again only when a replica's engine raises a
// notice or a replica stops: nothing polls. On timeout the error prints
// every record pred last saw; on a closed group it returns at once.
func (g *Group) Await(timeout time.Duration, pred func(map[string]replication.Stats) bool) error {
	g.waiters.Add(1)
	defer g.waiters.Add(-1)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Taken before the records are read: a move after the reading
		// closes this channel, so none goes unseen.
		g.mu.Lock()
		wake, closed := g.wake, g.closed
		g.mu.Unlock()
		if closed {
			return errors.New("replicator: group closed")
		}
		recs := make(map[string]replication.Stats)
		for _, n := range g.Live() {
			recs[n.Addr()] = n.Engine().StatsSnapshot()
		}
		if pred(recs) {
			return nil
		}
		select {
		case <-wake:
		case <-timer.C:
			return fmt.Errorf("replicator: group did not reach the awaited state within %v: %+v", timeout, recs)
		}
	}
}

// CaughtUp is the Await predicate that holds when the live replicas stand
// at one point of the agreed stream: one view that holds them all, the
// same last delivered seq, every executor at the last request any replica
// executed, and no state transfer pending.
func CaughtUp(recs map[string]replication.Stats) bool {
	var ref replication.Stats
	for _, r := range recs {
		ref.View, ref.Delivered = r.View, r.Delivered
		ref.Executed = max(ref.Executed, r.Executed)
	}
	for _, r := range recs {
		if r.View != ref.View || r.Members != len(recs) || r.Delivered != ref.Delivered || r.Transferring {
			return false
		}
		executor := r.Synced && (r.Style.AllExecute() || r.Role == replication.RolePrimary)
		if executor && r.Executed != ref.Executed {
			return false
		}
	}
	return len(recs) > 0
}

// notice wakes every Await in progress.
func (g *Group) notice() {
	if g.waiters.Load() == 0 {
		return
	}
	g.mu.Lock()
	close(g.wake)
	g.wake = make(chan struct{})
	g.mu.Unlock()
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
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.notice()
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
