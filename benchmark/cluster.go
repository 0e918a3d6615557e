package main

import (
	"fmt"
	"sync"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/transport/tcptransport"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// execCost is the servant's virtual execution cost, the evaluation
// harness's calibrated default. It is charged to the virtual-time ledger
// only and takes no wall time.
const execCost = 15 * vtime.Microsecond

// cluster is one running system: the transport fabric, a replica group and
// the client nodes, every node behind the harness's taps.
type cluster struct {
	spec workloadSpec
	seed uint64
	taps *taps
	net  *simnet.Network // nil on TCP

	mu sync.Mutex
	// replicas holds every replica ever started, crashed ones included:
	// their counters stay readable and belong in the round's totals.
	replicas []*replica
	clients  []*replicator.ClientNode
	tcp      []*tcptransport.Endpoint

	notices *noticeLog
	// reaped waits for the crashed nodes' goroutines, stopped in the
	// background so a crash costs the measured window nothing.
	reaped sync.WaitGroup
}

type replica struct {
	addr    string
	node    *replicator.ReplicaNode
	app     *workload.BenchApp
	crashed bool
}

// replicaAddr names the i-th replica ever started. Zero padding keeps
// string order equal to start order, so a replacement always ranks behind
// the survivors and the next primary is the oldest of them.
func replicaAddr(i int) string { return fmt.Sprintf("r%02d", i+1) }

func clientAddr(i int) string { return fmt.Sprintf("c%d", i+1) }

// buildCluster boots the replica group and the clients of spec.
func buildCluster(spec workloadSpec, seed uint64, traced bool) (*cluster, error) {
	clients := make([]string, spec.Conns)
	for i := range clients {
		clients[i] = clientAddr(i)
	}
	c := &cluster{
		spec:    spec,
		seed:    seed,
		taps:    newTaps(traced, clients, spec.Conns*max(spec.InFlight, 1) == 1 && spec.OpenRate == 0),
		notices: &noticeLog{},
	}

	endpoints := make(map[string]transport.MultiEndpoint)
	if spec.TCP {
		// Every endpoint binds 127.0.0.1:0 first and every peers map is
		// filled from the bound addresses before any node starts, so
		// there is no free-port race and no endpoint ever has to learn
		// (and write) an address while traffic flows. Each endpoint owns
		// its map: the transport guards it with a per-endpoint mutex.
		names := replicaNames(replicas)
		names = append(names, clients...)
		maps := make([]map[string]string, len(names))
		for i, name := range names {
			maps[i] = make(map[string]string)
			ep, err := tcptransport.Listen(name, "127.0.0.1:0", maps[i])
			if err != nil {
				c.close()
				return nil, err
			}
			c.tcp = append(c.tcp, ep)
			endpoints[name] = ep
		}
		for _, m := range maps {
			for _, ep := range c.tcp {
				m[ep.Addr()] = ep.BoundAddr()
			}
		}
	} else {
		c.net = simnet.New(simnet.WithSeed(seed))
	}

	for i := 0; i < replicas; i++ {
		if err := c.startReplica(endpoints[replicaAddr(i)]); err != nil {
			c.close()
			return nil, err
		}
		if err := c.waitJoined(i+1, 10*time.Second); err != nil {
			c.close()
			return nil, err
		}
	}

	members := replicaNames(replicas)
	for _, addr := range clients {
		ep := endpoints[addr]
		if ep == nil {
			sep, err := c.net.Endpoint(addr)
			if err != nil {
				c.close()
				return nil, err
			}
			ep = sep
		}
		c.clients = append(c.clients, replicator.StartClient(c.taps.wrapEndpoint(ep), replicator.ClientConfig{
			Members: members,
			Model:   vtime.DefaultCostModel(),
			Timeout: clientTimeout,
			Retries: clientRetries,
		}))
	}
	return c, nil
}

func replicaNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = replicaAddr(i)
	}
	return out
}

// startReplica starts the next replica, seeded on the live members. ep is
// the pre-bound endpoint on TCP and nil on simnet, where the fabric hands
// one out.
func (c *cluster) startReplica(ep transport.MultiEndpoint) error {
	c.mu.Lock()
	idx := len(c.replicas)
	var seeds []string
	for _, r := range c.replicas {
		if !r.crashed {
			seeds = append(seeds, r.addr)
		}
	}
	c.mu.Unlock()

	addr := replicaAddr(idx)
	if ep == nil {
		sep, err := c.net.Endpoint(addr)
		if err != nil {
			return err
		}
		ep = sep
	}
	app := workload.NewBenchApp(c.spec.StateBytes, execCost, c.spec.ReplyBytes)
	var state replication.Checkpointable = app
	if c.taps.traced {
		state = &tapState{inner: app, t: c.taps, node: addr}
	}
	gcfg := gcs.DefaultConfig()
	gcfg.Seed = c.seed*1000 + uint64(idx) + 1
	node := replicator.StartReplica(c.taps.wrapEndpoint(ep), replicator.ReplicaConfig{
		Seeds: seeds,
		GCS:   &gcfg,
		Replication: replication.Config{
			Style:           c.spec.Style,
			CheckpointEvery: c.spec.CheckpointEvery,
			Model:           vtime.DefaultCostModel(),
			State:           state,
			Observer:        c.notices.observer(addr),
		},
	})
	if c.taps.traced {
		node.Register("Bench", &tapServant{inner: app, t: c.taps, node: addr})
	} else {
		node.Register("Bench", app)
	}
	c.mu.Lock()
	c.replicas = append(c.replicas, &replica{addr: addr, node: node, app: app})
	c.mu.Unlock()
	return nil
}

// live returns the replicas not crashed by the harness, oldest first.
func (c *cluster) live() []*replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*replica
	for _, r := range c.replicas {
		if !r.crashed {
			out = append(out, r)
		}
	}
	return out
}

// waitJoined blocks until every live replica reports a view of n members
// and the newest of them — unless it bootstrapped the group — has taken its
// state transfer, so no request ever races a joiner's catch-up by accident.
func (c *cluster) waitJoined(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		live := c.live()
		ok := true
		for _, r := range live {
			v, err := r.node.Member().View()
			if err != nil || len(v.Members) != n {
				ok = false
				break
			}
		}
		if ok && n > 1 {
			_, ok = c.notices.first(time.Time{}, live[len(live)-1].addr, replication.NoticeTransfer)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("group did not reach %d synced members within %v", n, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// crashPrimary kills the current primary — the oldest live replica, which
// is the lowest-ranked member and so both sequencer and passive primary —
// the way a process dies: the fabric stops carrying its traffic at once.
// The dead node's goroutines are reaped in the background.
func (c *cluster) crashPrimary() time.Time {
	victim := c.live()[0]
	c.net.Crash(victim.addr)
	// Stamped once the fabric has cut it off: a request due from here on
	// cannot have reached the old primary.
	at := time.Now()
	c.mu.Lock()
	victim.crashed = true
	c.mu.Unlock()
	c.reaped.Add(1)
	go func() {
		defer c.reaped.Done()
		victim.node.Stop()
	}()
	return at
}

// snapshot sums the trace counters of every node, dead or alive.
func (c *cluster) snapshot() trace.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snaps := make([]trace.Snapshot, 0, len(c.replicas)+len(c.clients))
	for _, r := range c.replicas {
		snaps = append(snaps, r.node.TraceSnapshot())
	}
	for _, cl := range c.clients {
		snaps = append(snaps, cl.TraceSnapshot())
	}
	return trace.Merge(snaps...)
}

// tcpStats sums the wire counters of the TCP endpoints.
func (c *cluster) tcpStats() (dropped, dials uint64) {
	for _, ep := range c.tcp {
		s := ep.Stats()
		dropped += s.Dropped
		dials += s.Dials
	}
	return
}

func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Stop()
	}
	for _, r := range c.live() {
		r.node.Stop()
	}
	c.reaped.Wait()
	if c.net != nil {
		c.net.Close()
	}
	// TCP endpoints handed to a node were closed by its Stop; closing
	// again is a no-op, and covers endpoints of a boot that failed midway.
	for _, ep := range c.tcp {
		_ = ep.Close()
	}
}

// noticeLog is the engine-observer seam: it keeps the instants of the few
// notices the failover workload times (view changes that report a crash,
// promotions, completed state transfers). Observers run on engine
// goroutines and must not block; appending under a mutex does not.
type noticeLog struct {
	mu      sync.Mutex
	entries []noticeAt
}

type noticeAt struct {
	at   time.Time
	addr string
	kind replication.NoticeKind
}

func (l *noticeLog) observer(addr string) func(replication.Notice) {
	return func(n replication.Notice) {
		switch n.Kind {
		case replication.NoticeView:
			if n.Crashed == 0 {
				return
			}
		case replication.NoticeFailover:
		case replication.NoticeTransfer:
			// A joiner's transfer is complete when the contiguous cursor
			// reaches the chunk count. Stats.Synced is no substitute: it
			// is already true on a fresh joiner.
			if n.Chunks == 0 || n.Chunk != n.Chunks {
				return
			}
		default:
			return
		}
		now := time.Now()
		l.mu.Lock()
		l.entries = append(l.entries, noticeAt{at: now, addr: addr, kind: n.Kind})
		l.mu.Unlock()
	}
}

// first returns the earliest logged notice of one of the kinds at or after
// since, optionally restricted to one reporting replica.
func (l *noticeLog) first(since time.Time, addr string, kinds ...replication.NoticeKind) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.entries {
		if e.at.Before(since) || (addr != "" && e.addr != addr) {
			continue
		}
		for _, k := range kinds {
			if e.kind == k {
				return e.at, true
			}
		}
	}
	return time.Time{}, false
}
