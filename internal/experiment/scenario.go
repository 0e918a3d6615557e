package experiment

import (
	"fmt"
	"sync"
	"time"

	"versadep/internal/interceptor"
	"versadep/internal/monitor"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// Scenario is a running system the experiments and cmd/vdsim drive through
// Run: a fabric, one replica group of benchmark servants and its clients.
// The group mechanism is replicator.Group's; what
// is decided here is the evaluation's own: replicas are "replica-a",
// "replica-b", … in start order and clients "client-1", …, every joiner is
// seeded on one member (the first at boot, the first live one later), and
// boot waits for each replica's view before starting the next.
type Scenario struct {
	net   *simnet.Network
	group *replicator.Group
	opts  Options
	label string
	// observer applies to every replica, boot-time or spawned.
	observer func(replication.Notice)

	// mu guards what growth and Run's clients touch concurrently: the
	// controller can spawn replicas while clients run.
	mu     sync.Mutex
	next   int        // numbers the replicas ever started
	maxEnd vtime.Time // the latest reply of Run so far
}

// replicaAddr names the i-th replica ever started.
func replicaAddr(i int) string { return fmt.Sprintf("replica-%c", 'a'+i) }

// NewScenario boots a group of replicas in the given style plus clients.
// observer, which may be nil, applies to every replica. Group bootstrap
// traffic is excluded from the fabric's byte counters.
func NewScenario(o Options, style replication.Style, replicas, clients int,
	observer func(replication.Notice)) (*Scenario, error) {
	net := simnet.New(simnet.WithCostModel(o.Model), simnet.WithSeed(o.Seed))
	s := &Scenario{net: net, group: replicator.NewGroup(replicator.SimFabric(net)), opts: o,
		label: fmt.Sprintf("%s-r%d-c%d", style, replicas, clients), observer: observer}

	var seeds []string
	for i := 0; i < replicas; i++ {
		_, err := s.addReplica(style, o.CheckpointEvery, seeds)
		if err == nil {
			err = s.group.WaitSize(i+1, 10*time.Second)
		}
		if err != nil {
			s.Close()
			return nil, err
		}
		seeds = []string{replicaAddr(0)}
	}

	cfg := replicator.ClientConfig{Members: s.group.Members(), Model: o.Model}
	if o.Voting {
		cfg.Filter = interceptor.FilterMajority
		cfg.ExpectedReplies = replicas
	}
	for i := 0; i < clients; i++ {
		cfg.Trace = trace.New() // each client records its own spans
		if _, err := s.group.Client(fmt.Sprintf("client-%d", i+1), cfg); err != nil {
			s.Close()
			return nil, err
		}
	}
	net.ResetStats()
	return s, nil
}

// addReplica starts the next replica, joining through seeds, and returns
// its address once the node runs.
func (s *Scenario) addReplica(style replication.Style, checkpointEvery int, seeds []string) (string, error) {
	s.mu.Lock()
	addr := replicaAddr(s.next)
	s.next++
	s.mu.Unlock()

	app := workload.NewBenchApp(s.opts.StateBytes, s.opts.ExecCost, s.opts.ReplyBytes)
	node, err := s.group.Add(addr, seeds, replicator.ReplicaConfig{
		GCS:   s.opts.GCS,
		Trace: trace.New(),
		Replication: replication.Config{
			Style:              style,
			CheckpointEvery:    checkpointEvery,
			Model:              s.opts.Model,
			State:              app,
			Observer:           s.observer,
			TransferChunkBytes: s.opts.TransferChunkBytes,
		},
	})
	if err != nil {
		return "", err
	}
	node.Register("Bench", app)
	return addr, nil
}

// Close shuts the scenario down, handing the merged cross-node trace to
// Options.TraceSink first.
func (s *Scenario) Close() {
	if s.opts.TraceSink != nil {
		s.opts.TraceSink(s.label, s.group.TraceSnapshot())
	}
	s.group.Close()
	s.net.Close()
}

// Grow spawns one fresh replica at runtime, seeded on the first live member
// and mirroring the group's current style and checkpoint frequency. It joins
// the group over the totally ordered channel, receives a state transfer, and
// goes live; the new replica's address is returned once its join has been
// proposed.
func (s *Scenario) Grow() (string, error) {
	live := s.group.Live()
	if len(live) == 0 {
		return "", fmt.Errorf("experiment: no live replica to seed a join from")
	}
	ref := live[0]
	st := ref.Engine().StatsSnapshot()
	return s.addReplica(st.Style, st.CheckpointEvery, []string{ref.Addr()})
}

// Style reports the current style at the first live replica.
func (s *Scenario) Style() replication.Style {
	if live := s.group.Live(); len(live) > 0 {
		return live[0].Engine().StatsSnapshot().Style
	}
	return 0
}

// Settle waits until the group has caught up with itself
// (replicator.CaughtUp), so what is read next — state, counters, the
// fabric's bytes — is final.
func (s *Scenario) Settle(timeout time.Duration) error {
	return s.group.Await(timeout, replicator.CaughtUp)
}

// poll checks cond every step until it holds or timeout passes. It serves
// only the waits that read no replica's progress, so no notice wakes them:
// the goroutine census after a chaos run's teardown, and the crash-to-
// suspicion sample of MeasureDetectionLatency, a wall-clock measurement
// whose resolution is its step.
func poll(timeout, step time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(step) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Members lists live replica addresses.
func (s *Scenario) Members() []string { return s.group.Members() }

// TraceSnapshot merges every node's and client's trace counters into one
// system-wide snapshot (per-subsystem counters sum across processes).
// Retired and crashed replicas contribute their final snapshots.
func (s *Scenario) TraceSnapshot() trace.Snapshot { return s.group.TraceSnapshot() }

// sensors returns the policy.Signals sampler a plan's controller reads: it
// reads the first live replica each call, so the sample survives crashes,
// retirements and growth of individual nodes. The bandwidth is the
// fabric's, metered as BandwidthMBs does over the run so far.
func (s *Scenario) sensors() func() policy.Signals {
	return func() policy.Signals {
		live := s.group.Live()
		if len(live) == 0 {
			return policy.Signals{}
		}
		sig := live[0].Sensors()()
		sig.BandwidthMBs = s.BandwidthMBs()
		return sig
	}
}

// BandwidthMBs reports the fabric's bytes sent over the virtual time Run
// has covered so far (0 before its first reply).
func (s *Scenario) BandwidthMBs() float64 {
	s.mu.Lock()
	end := s.maxEnd
	s.mu.Unlock()
	return monitor.Bandwidth(s.net.Stats().BytesSent, end.Sub(0))
}
