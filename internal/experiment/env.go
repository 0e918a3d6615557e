// Package experiment is the evaluation harness: one runner per table and
// figure of the paper's evaluation (§4), regenerating the same rows and
// series the paper reports.
//
// Absolute numbers come from the virtual-time cost model (calibrated to
// the paper's Figure 3 component costs), so they are not expected to match
// the 2004 testbed exactly; the relational results — which style wins,
// by roughly what factor, where the feasibility crossovers fall — are the
// reproduction targets, recorded in EXPERIMENTS.md.
package experiment

import (
	"fmt"
	"sync"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/interceptor"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// Options parameterize an experiment run.
type Options struct {
	// Requests is the per-client cycle length. The paper uses 10,000;
	// tests and quick runs use less.
	Requests int
	// Seed drives all deterministic randomness.
	Seed uint64
	// Model is the virtual-time cost model.
	Model vtime.CostModel
	// RequestBytes and ReplyBytes pad application messages (Table 1's
	// request/response sizes).
	RequestBytes, ReplyBytes int
	// StateBytes is the application state size (Table 1).
	StateBytes int
	// ExecCost is the servant's execution time per request.
	ExecCost vtime.Duration
	// CheckpointEvery is the passive-style checkpoint frequency knob.
	CheckpointEvery int
	// Voting enables majority voting instead of first-response
	// filtering at clients.
	Voting bool
	// TraceSink, when set, receives each environment's merged cross-node
	// trace snapshot (counters, histograms, causal spans of every replica
	// and client) as the environment shuts down, labeled
	// "<style>-r<replicas>-c<clients>". vdbench -trace wires this to a
	// JSON dump per scenario.
	TraceSink func(label string, snap trace.Snapshot)
	// TransferChunkBytes overrides the joiner state-transfer chunk size
	// (0 = engine default).
	TransferChunkBytes int
	// TransferRetryEvery overrides the transfer retry tick (0 = default).
	TransferRetryEvery time.Duration
	// SuspectAfter overrides the GCS failure-detector timeout (0 =
	// default). Fault-injection runs raise it so scripted partitions
	// exercise transfer resume instead of view exclusion.
	SuspectAfter time.Duration
	// PhiThreshold overrides the accrual failure detector: positive sets
	// the suspicion threshold, negative disables accrual (fixed
	// SuspectAfter silence only), zero keeps the stock default.
	PhiThreshold float64
}

// gcsConfig returns the GCS override implied by the options (nil = stock).
func (o Options) gcsConfig() *gcs.Config {
	if o.SuspectAfter <= 0 && o.PhiThreshold == 0 {
		return nil
	}
	g := gcs.DefaultConfig()
	if o.SuspectAfter > 0 {
		g.SuspectAfter = o.SuspectAfter
	}
	switch {
	case o.PhiThreshold > 0:
		g.PhiThreshold = o.PhiThreshold
	case o.PhiThreshold < 0:
		g.PhiThreshold = 0
	}
	return &g
}

// DefaultOptions returns the calibrated configuration used throughout the
// evaluation: micro-benchmark sizes chosen so that the Figure 3 breakdown,
// the Figure 7 latency/bandwidth shapes and the Table 2 feasibility
// crossovers reproduce the paper's.
func DefaultOptions() Options {
	return Options{
		Requests:        400,
		Seed:            1,
		Model:           vtime.DefaultCostModel(),
		RequestBytes:    200,
		ReplyBytes:      160,
		StateBytes:      6144,
		ExecCost:        15 * vtime.Microsecond,
		CheckpointEvery: 5,
	}
}

// env is a running system: fabric, replica group and clients.
type env struct {
	net     *simnet.Network
	nodes   []*replicator.ReplicaNode
	apps    []*workload.BenchApp
	clients []*replicator.ClientNode
	opts    Options
	label   string

	// mu guards nodes/apps/nextReplica against concurrent growth: the
	// controller can spawn replicas while clients and observers iterate.
	mu sync.Mutex
	// adapt and observer are reapplied to replicas spawned at runtime.
	adapt    replication.AdaptPolicy
	observer func(replication.Notice)
	// nextReplica numbers runtime-spawned replicas ("replica-a" + i).
	nextReplica int
}

// buildEnv boots a group of n replicas in the given style plus c clients.
// The adaptation policy and observer apply to every replica.
func buildEnv(o Options, style replication.Style, replicas, clients int,
	adapt replication.AdaptPolicy, observer func(replication.Notice)) (*env, error) {
	model := o.Model
	net := simnet.New(simnet.WithCostModel(model), simnet.WithSeed(o.Seed))
	e := &env{net: net, opts: o, label: fmt.Sprintf("%s-r%d-c%d", style, replicas, clients),
		adapt: adapt, observer: observer, nextReplica: replicas}

	var seeds []string
	for i := 0; i < replicas; i++ {
		addr := fmt.Sprintf("replica-%c", 'a'+i)
		ep, err := net.Endpoint(addr)
		if err != nil {
			net.Close()
			return nil, err
		}
		app := workload.NewBenchApp(o.StateBytes, o.ExecCost, o.ReplyBytes)
		node := replicator.StartReplica(ep, replicator.ReplicaConfig{
			Seeds: seeds,
			GCS:   o.gcsConfig(),
			Replication: replication.Config{
				Style:              style,
				CheckpointEvery:    o.CheckpointEvery,
				Model:              model,
				State:              app,
				Adapt:              adapt,
				Observer:           observer,
				TransferChunkBytes: o.TransferChunkBytes,
				TransferRetryEvery: o.TransferRetryEvery,
			},
		})
		node.Register("Bench", app)
		e.nodes = append(e.nodes, node)
		e.apps = append(e.apps, app)
		if i == 0 {
			seeds = []string{addr}
		}
		if err := e.waitGroupSize(i + 1); err != nil {
			e.close()
			return nil, err
		}
	}

	members := make([]string, 0, replicas)
	for _, n := range e.nodes {
		members = append(members, n.Addr())
	}
	for i := 0; i < clients; i++ {
		addr := fmt.Sprintf("client-%d", i+1)
		ep, err := net.Endpoint(addr)
		if err != nil {
			e.close()
			return nil, err
		}
		cfg := replicator.ClientConfig{
			Members: members,
			Model:   model,
			Timeout: 500 * time.Millisecond,
			Retries: 20,
		}
		if o.Voting {
			cfg.Filter = interceptor.FilterMajority
			cfg.ExpectedReplies = replicas
		}
		e.clients = append(e.clients, replicator.StartClient(ep, cfg))
	}
	return e, nil
}

// waitGroupSize blocks until every live replica reports a view of the
// given size.
func (e *env) waitGroupSize(want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := 0
		for _, n := range e.nodes {
			v, err := n.Member().View()
			if err == nil && len(v.Members) == want {
				ok++
			}
		}
		if ok == len(e.nodes) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("experiment: group did not reach %d members", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveNodes returns the replicas that are neither crashed nor stopped
// (retired replicas stop their group membership, so a View() error marks
// them as departed even though the fabric never "crashed" them).
func (e *env) liveNodes() []*replicator.ReplicaNode {
	e.mu.Lock()
	nodes := append([]*replicator.ReplicaNode(nil), e.nodes...)
	e.mu.Unlock()
	var out []*replicator.ReplicaNode
	for _, n := range nodes {
		if e.net.Crashed(n.Addr()) {
			continue
		}
		if _, err := n.Member().View(); err != nil {
			continue
		}
		out = append(out, n)
	}
	return out
}

// spawnReplica starts one fresh replica at runtime, seeded on a live group
// member and mirroring the group's current style and checkpoint frequency.
// It returns the new replica's address once its join has been proposed.
func (e *env) spawnReplica() (string, error) {
	live := e.liveNodes()
	if len(live) == 0 {
		return "", fmt.Errorf("experiment: no live replica to seed a join from")
	}
	ref := live[0]
	style := ref.Engine().Style()
	ckpt := ref.Engine().CheckpointEvery()

	e.mu.Lock()
	idx := e.nextReplica
	e.nextReplica++
	e.mu.Unlock()

	addr := fmt.Sprintf("replica-%c", 'a'+idx)
	ep, err := e.net.Endpoint(addr)
	if err != nil {
		return "", err
	}
	app := workload.NewBenchApp(e.opts.StateBytes, e.opts.ExecCost, e.opts.ReplyBytes)
	node := replicator.StartReplica(ep, replicator.ReplicaConfig{
		Seeds: []string{ref.Addr()},
		GCS:   e.opts.gcsConfig(),
		Replication: replication.Config{
			Style:              style,
			CheckpointEvery:    ckpt,
			Model:              e.opts.Model,
			State:              app,
			Adapt:              e.adapt,
			Observer:           e.observer,
			TransferChunkBytes: e.opts.TransferChunkBytes,
			TransferRetryEvery: e.opts.TransferRetryEvery,
		},
	})
	node.Register("Bench", app)
	e.mu.Lock()
	e.nodes = append(e.nodes, node)
	e.apps = append(e.apps, app)
	e.mu.Unlock()
	return addr, nil
}

func (e *env) close() {
	e.mu.Lock()
	nodes := append([]*replicator.ReplicaNode(nil), e.nodes...)
	e.mu.Unlock()
	if e.opts.TraceSink != nil {
		snaps := make([]trace.Snapshot, 0, len(nodes)+len(e.clients))
		for _, n := range nodes {
			snaps = append(snaps, n.TraceSnapshot())
		}
		for _, c := range e.clients {
			snaps = append(snaps, c.TraceSnapshot())
		}
		e.opts.TraceSink(e.label, trace.Merge(snaps...))
	}
	for _, c := range e.clients {
		c.Stop()
	}
	for _, n := range nodes {
		n.Stop()
	}
	e.net.Close()
}

// runClosedLoop drives every client through a full request cycle
// concurrently and merges the results.
func (e *env) runClosedLoop(keepLedgers bool) []*workload.Result {
	results := make([]*workload.Result, len(e.clients))
	done := make(chan int)
	for i, c := range e.clients {
		go func(i int, c *replicator.ClientNode) {
			cl := workload.ClosedLoop{
				Client:       c,
				Requests:     e.opts.Requests,
				RequestBytes: e.opts.RequestBytes,
				KeepLedgers:  keepLedgers,
			}
			results[i] = cl.Run()
			done <- i
		}(i, c)
	}
	for range e.clients {
		<-done
	}
	return results
}
