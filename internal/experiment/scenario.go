package experiment

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"versadep/internal/faults"
	"versadep/internal/faults/chaos"
	"versadep/internal/interceptor"
	"versadep/internal/monitor"
	"versadep/internal/orb"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// Scenario is a running system the experiments and cmd/vdsim drive: a
// fabric, one replica group of benchmark servants and its clients, with
// hooks for mid-run events. The group mechanism is replicator.Group's; what
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

	// mu guards what growth and the drivers touch concurrently: the
	// controller can spawn replicas while clients run.
	mu     sync.Mutex
	next   int        // numbers the replicas ever started
	maxEnd vtime.Time // the latest reply of RunClosedLoop so far
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
		GCS:   s.opts.gcsConfig(),
		Trace: trace.New(),
		Replication: replication.Config{
			Style:              style,
			CheckpointEvery:    checkpointEvery,
			Model:              s.opts.Model,
			State:              app,
			Observer:           s.observer,
			TransferChunkBytes: s.opts.TransferChunkBytes,
			TransferRetryEvery: s.opts.TransferRetryEvery,
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

// Chaos parses a "SPEC[:SEED]" chaos argument (chaos.ParseSpec syntax)
// and launches the resulting deterministic fault schedule against the
// scenario's fabric over the given window, targeting the current replica
// set. It returns a channel closed when the schedule (including its final
// heal-all step) has run, plus the schedule's step names for display.
func (s *Scenario) Chaos(arg string, window time.Duration) (<-chan struct{}, []string, error) {
	spec, seed, err := chaos.ParseSpec(arg)
	if err != nil {
		return nil, nil, err
	}
	plan := spec.Plan(seed, chaos.Targets{Replicas: s.Members(), Duration: window})
	var names []string
	for _, st := range plan.Steps() {
		names = append(names, fmt.Sprintf("%v %s", st.After, st.Name))
	}
	done := faults.NewInjector(s.net).Run(plan)
	return done, names, nil
}

// drive runs every client through a closed request cycle concurrently and
// returns their results in client order, pacing their virtual clocks if
// paced (see pacer; a run that measures no virtual time need not). onReply,
// when set, sees each request's end with its client's index and may end that
// client's cycle (workload.ClosedLoop.OnReply).
func (s *Scenario) drive(requests int, paced bool,
	onReply func(client, i int, out *orb.Outcome, err error) bool) []*workload.Result {
	clients := s.group.Clients()
	results := make([]*workload.Result, len(clients))
	pace := newPacer(len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		cl := workload.ClosedLoop{Client: c, Requests: requests, RequestBytes: s.opts.RequestBytes}
		cl.OnReply = func(i int, out *orb.Outcome, err error) bool {
			if onReply != nil && !onReply(ci, i, out, err) {
				return false
			}
			if err == nil && paced {
				pace.advance(ci, out.DoneVT)
			}
			return true
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pace.stop(ci)
			results[ci] = cl.Run()
		}()
	}
	wg.Wait()
	return results
}

// lagWindow is how far a paced client's virtual clock may run ahead of the
// slowest running client's: a few round trips.
const lagWindow = 5 * vtime.Millisecond

// pacer keeps closed-loop clients' virtual clocks together. A client's clock
// advances only as fast as the Go scheduler runs its goroutine, so one client
// may issue many requests while another waits for a processor. Its requests
// are then ordered first, and the other client's later deliveries inherit its
// virtual time: a latency the model never put there, sized by the scheduler.
// The pacer holds a client that would send more than lagWindow ahead of
// another running client until that one catches up or stops; the client with
// the earliest clock is never held.
type pacer struct {
	mu    sync.Mutex
	moved *sync.Cond
	clock []vtime.Time // each client's next send; a stopped one's is the end of time
}

func newPacer(clients int) *pacer {
	p := &pacer{clock: make([]vtime.Time, clients)}
	p.moved = sync.NewCond(&p.mu)
	return p
}

// advance records that client i sends next at t, and returns once no client
// is more than lagWindow behind it.
func (p *pacer) advance(i int, t vtime.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock[i] = t
	p.moved.Broadcast()
	for slices.Min(p.clock) < t.Add(-lagWindow) {
		p.moved.Wait()
	}
}

// stop takes client i, whose cycle has ended, out of the pacing.
func (p *pacer) stop(i int) {
	p.mu.Lock()
	p.clock[i] = math.MaxInt64
	p.moved.Broadcast()
	p.mu.Unlock()
}

// RunClosedLoop drives every client through the configured request cycle.
// onReply observes the first client's replies (request index, virtual
// completion time, round trip) so callers can inject events at specific
// points of the run. A client stops at its first failed request.
func (s *Scenario) RunClosedLoop(onReply func(i int, vt vtime.Time, rtt vtime.Duration)) error {
	errs := make([]error, len(s.group.Clients()))
	s.drive(s.opts.Requests, true, func(ci, i int, out *orb.Outcome, err error) bool {
		if err != nil {
			errs[ci] = fmt.Errorf("client %d request %d: %w", ci, i, err)
			return false
		}
		s.mu.Lock()
		if out.DoneVT.After(s.maxEnd) {
			s.maxEnd = out.DoneVT
		}
		s.mu.Unlock()
		if ci == 0 && onReply != nil {
			onReply(i, out.DoneVT, out.RTT())
		}
		return true
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Switch requests a runtime replication-style switch.
func (s *Scenario) Switch(target replication.Style, vt vtime.Time) {
	if live := s.group.Live(); len(live) > 0 {
		live[0].Engine().RequestSwitch(target, vt)
	}
}

// CrashPrimary kills the rank-0 replica.
func (s *Scenario) CrashPrimary() {
	if live := s.group.Live(); len(live) > 0 {
		s.net.Crash(live[0].Addr())
	}
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
	return s.addReplica(ref.Engine().Style(), ref.Engine().CheckpointEvery(), []string{ref.Addr()})
}

// Retire gracefully removes addr from the group ("" retires the
// highest-ranked member, never the primary). The directive rides the
// agreed stream; the named replica takes a parting checkpoint if it is a
// passive primary and then leaves.
func (s *Scenario) Retire(addr string, vt vtime.Time) error {
	if addr == "" {
		act := s.group.Actuator(nil)
		act.Now = func() vtime.Time { return vt }
		return act.Shrink()
	}
	live := s.group.Live()
	if len(live) == 0 {
		return fmt.Errorf("experiment: no live replica to issue retirement from")
	}
	return live[0].Retire(addr, vt)
}

// Style reports the current style at the first live replica.
func (s *Scenario) Style() replication.Style {
	if live := s.group.Live(); len(live) > 0 {
		return live[0].Engine().Style()
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

// Sensors returns a policy.Signals sampler over the scenario: it reads
// the first live replica each call, so the sample survives crashes,
// retirements and growth of individual nodes. The bandwidth is the
// fabric's, metered as BandwidthMBs does over the run so far.
func (s *Scenario) Sensors() func() policy.Signals {
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

// Actuator returns a policy.Actuator driving this scenario: switches and
// checkpoint retuning on the first live replica, Grow through Scenario.Grow,
// Shrink through graceful retirement. Like Sensors, every call re-resolves
// the live group, so the actuator outlives any single replica.
func (s *Scenario) Actuator() policy.Actuator {
	return s.group.Actuator(func([]string) error { _, err := s.Grow(); return err })
}

// BandwidthMBs reports the fabric's bytes sent over the virtual time
// RunClosedLoop has covered so far (0 before its first reply).
func (s *Scenario) BandwidthMBs() float64 {
	s.mu.Lock()
	end := s.maxEnd
	s.mu.Unlock()
	return monitor.Bandwidth(s.net.Stats().BytesSent, end.Sub(0))
}
