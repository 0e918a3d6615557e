package replicator_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/interceptor"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// counterApp is a deterministic checkpointable servant: a named-counter
// store.
type counterApp struct {
	mu     sync.Mutex
	counts map[string]int64
}

func newCounterApp() *counterApp {
	return &counterApp{counts: make(map[string]int64)}
}

func (a *counterApp) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "add":
		if len(args) != 2 {
			return nil, fmt.Errorf("add wants 2 args, got %d", len(args))
		}
		a.counts[args[0].Str] += args[1].Int
		return []codec.Value{codec.Int(a.counts[args[0].Str])}, nil
	case "get":
		return []codec.Value{codec.Int(a.counts[args[0].Str])}, nil
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}

func (a *counterApp) State() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := make([]string, 0, len(a.counts))
	for k := range a.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e := codec.NewEncoder(16 * (1 + len(keys)))
	e.PutUint32(uint32(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		e.PutInt64(a.counts[k])
	}
	return e.Bytes()
}

func (a *counterApp) Restore(state []byte) error {
	d := codec.NewDecoder(state)
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	counts := make(map[string]int64, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.String()
		if err != nil {
			return err
		}
		v, err := d.Int64()
		if err != nil {
			return err
		}
		counts[k] = v
	}
	a.mu.Lock()
	a.counts = counts
	a.mu.Unlock()
	return nil
}

func (a *counterApp) value(key string) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts[key]
}

// cluster bundles a replica group plus apps for assertions.
type cluster struct {
	net   *simnet.Network
	group *replicator.Group
	nodes []*replicator.ReplicaNode
	apps  []*counterApp
}

type observerLog struct {
	mu      sync.Mutex
	notices []replication.Notice
}

func (o *observerLog) observe(n replication.Notice) {
	o.mu.Lock()
	o.notices = append(o.notices, n)
	o.mu.Unlock()
}

func (o *observerLog) find(k replication.NoticeKind) []replication.Notice {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []replication.Notice
	for _, n := range o.notices {
		if n.Kind == k {
			out = append(out, n)
		}
	}
	return out
}

func startCluster(t *testing.T, net *simnet.Network, n int, style replication.Style, ckptEvery int, obs func(replication.Notice)) *cluster {
	t.Helper()
	return startClusterVia(t, net, n, style, ckptEvery, obs, nil)
}

// startClusterVia is startCluster with each replica's endpoint passed
// through wrap (when not nil) before the replica starts on it.
func startClusterVia(t *testing.T, net *simnet.Network, n int, style replication.Style, ckptEvery int, obs func(replication.Notice), wrap func(transport.MultiEndpoint) transport.MultiEndpoint) *cluster {
	t.Helper()
	fab := replicator.SimFabric(net)
	if wrap != nil {
		fab.Endpoint = func(addr string) (transport.MultiEndpoint, error) {
			ep, err := net.Endpoint(addr)
			if err != nil {
				return nil, err
			}
			return wrap(ep), nil
		}
	}
	c := &cluster{net: net, group: replicator.NewGroup(fab)}
	t.Cleanup(c.group.Close)
	var seeds []string
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("r%c", 'a'+i)
		c.add(t, addr, seeds, style, ckptEvery, obs)
		seeds = []string{"ra"}
		// Let each join settle before the next: the view installed
		// everywhere and the joiner's state transfer done.
		c.await(t, 5*time.Second, func(recs map[string]replication.Stats) bool {
			return len(recs) == i+1 && replicator.CaughtUp(recs)
		})
	}
	return c
}

// add starts one more counter replica in the cluster's group.
func (c *cluster) add(t *testing.T, addr string, seeds []string, style replication.Style, ckptEvery int, obs func(replication.Notice)) (*replicator.ReplicaNode, *counterApp) {
	t.Helper()
	app := newCounterApp()
	node, err := c.group.Add(addr, seeds, replicator.ReplicaConfig{
		Replication: replication.Config{
			Style:           style,
			CheckpointEvery: ckptEvery,
			Model:           c.net.CostModel(),
			State:           app,
			Observer:        obs,
		},
		Trace: trace.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Register("Counter", app)
	c.nodes = append(c.nodes, node)
	c.apps = append(c.apps, app)
	return node, app
}

func (c *cluster) waitGroupSize(t *testing.T, want int) {
	t.Helper()
	if err := c.group.WaitSize(want, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// await fails the test unless pred comes to hold of the live replicas'
// progress records within timeout.
func (c *cluster) await(t *testing.T, timeout time.Duration, pred func(map[string]replication.Stats) bool) {
	t.Helper()
	if err := c.group.Await(timeout, pred); err != nil {
		t.Fatal(err)
	}
}

// allStyle is an Await predicate: every live replica runs style.
func allStyle(style replication.Style) func(map[string]replication.Stats) bool {
	return func(recs map[string]replication.Stats) bool {
		for _, r := range recs {
			if r.Style != style {
				return false
			}
		}
		return true
	}
}

func (c *cluster) members() []string {
	var out []string
	for _, node := range c.nodes {
		if !c.net.Crashed(node.Addr()) {
			out = append(out, node.Addr())
		}
	}
	return out
}

func startTestClient(t *testing.T, net *simnet.Network, name string, members []string, opts ...func(*replicator.ClientConfig)) *replicator.ClientNode {
	t.Helper()
	ep, err := net.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := replicator.ClientConfig{
		Members: members,
		Model:   net.CostModel(),
		Timeout: 300 * time.Millisecond,
		Retries: 10,
		Trace:   trace.New(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	cl := replicator.StartClient(ep, cfg)
	t.Cleanup(cl.Stop)
	return cl
}

func TestActiveReplicationBasic(t *testing.T) {
	net := simnet.New(simnet.WithSeed(41))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 10; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("add %d returned %d", i, got)
		}
		vt = out.DoneVT
	}
	// Every replica executed every request (state-machine replication).
	c.await(t, 3*time.Second, replicator.CaughtUp)
	for _, app := range c.apps {
		if got := app.value("x"); got != 10 {
			t.Fatalf("replica state = %d, want 10", got)
		}
	}
	for _, node := range c.nodes {
		st := node.Engine().StatsSnapshot()
		if st.RequestsExecuted != 10 {
			t.Fatalf("%s executed %d requests", node.Addr(), st.RequestsExecuted)
		}
	}
}

func TestActiveReplicationSurvivesCrash(t *testing.T) {
	net := simnet.New(simnet.WithSeed(43))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 5; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	// Crash one replica (the group coordinator, the hardest case).
	net.Crash(c.nodes[0].Addr())

	for i := 6; i <= 12; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d after crash: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("add %d returned %d", i, got)
		}
		vt = out.DoneVT
	}
}

func TestWarmPassivePrimaryExecutesBackupsLog(t *testing.T) {
	net := simnet.New(simnet.WithSeed(47))
	defer net.Close()
	c := startCluster(t, net, 3, replication.WarmPassive, 4, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 10; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("add %d returned %d", i, got)
		}
		vt = out.DoneVT
	}
	// The backups hold the state of the last checkpoint (request 8).
	c.await(t, 3*time.Second, func(recs map[string]replication.Stats) bool {
		return replicator.CaughtUp(recs) && c.apps[1].value("x") >= 8
	})
	prim := c.nodes[0].Engine().StatsSnapshot()
	if prim.Role != replication.RolePrimary || prim.RequestsExecuted != 10 {
		t.Fatalf("primary stats: %+v", prim)
	}
	if prim.Checkpoints < 2 {
		t.Fatalf("primary took %d checkpoints, want >= 2", prim.Checkpoints)
	}
	back := c.nodes[1].Engine().StatsSnapshot()
	if back.RequestsExecuted != 0 || back.RequestsLogged == 0 {
		t.Fatalf("backup stats: %+v", back)
	}
	// Backups' state tracks checkpoints: after >= 2 checkpoints (8 reqs),
	// state is at least 8.
	if got := c.apps[1].value("x"); got < 8 {
		t.Fatalf("backup state = %d, want >= 8", got)
	}
}

func TestWarmPassiveFailover(t *testing.T) {
	net := simnet.New(simnet.WithSeed(53))
	defer net.Close()
	obs := &observerLog{}
	c := startCluster(t, net, 3, replication.WarmPassive, 4, obs.observe)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 10; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	// Kill the primary: rb must replay the logged tail and take over
	// without losing any of the 10 increments.
	net.Crash(c.nodes[0].Addr())

	out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
	if err != nil {
		t.Fatalf("invoke after failover: %v", err)
	}
	if got := out.Results[0].Int; got != 11 {
		t.Fatalf("post-failover add returned %d, want 11 (state lost?)", got)
	}
	if len(obs.find(replication.NoticeFailover)) == 0 {
		t.Fatal("no failover notice observed")
	}
	st := c.nodes[1].Engine().StatsSnapshot()
	if st.Role != replication.RolePrimary || st.Failovers != 1 {
		t.Fatalf("new primary stats: %+v", st)
	}
}

func TestColdPassiveFailoverPaysColdStart(t *testing.T) {
	net := simnet.New(simnet.WithSeed(59))
	defer net.Close()
	obs := &observerLog{}
	c := startCluster(t, net, 2, replication.ColdPassive, 3, obs.observe)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 7; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	// Cold backups do not apply state while the primary lives.
	if got := c.apps[1].value("x"); got != 0 {
		t.Fatalf("cold backup applied state early: %d", got)
	}
	net.Crash(c.nodes[0].Addr())
	out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
	if err != nil {
		t.Fatalf("invoke after cold failover: %v", err)
	}
	if got := out.Results[0].Int; got != 8 {
		t.Fatalf("post-failover add returned %d, want 8", got)
	}
	fos := obs.find(replication.NoticeFailover)
	if len(fos) == 0 {
		t.Fatal("no failover notice")
	}
	model := net.CostModel()
	if fos[0].Delay < model.ColdStart {
		t.Fatalf("cold failover delay %v below cold-start cost %v", fos[0].Delay, model.ColdStart)
	}
}

func TestSwitchPassiveToActiveUnderTraffic(t *testing.T) {
	net := simnet.New(simnet.WithSeed(61))
	defer net.Close()
	obs := &observerLog{}
	c := startCluster(t, net, 3, replication.WarmPassive, 5, obs.observe)
	cl := startTestClient(t, net, "client", c.members())

	results := make([]int64, 0, 30)
	var vt vtime.Time
	for i := 1; i <= 30; i++ {
		if i == 10 {
			c.nodes[1].Engine().RequestSwitch(replication.Active, vt)
		}
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		results = append(results, out.Results[0].Int)
		vt = out.DoneVT
	}
	// The counter must be exactly sequential: nothing lost, duplicated
	// or reordered across the switch.
	for i, got := range results {
		if got != int64(i+1) {
			t.Fatalf("result %d = %d; switch broke linearity", i, got)
		}
	}
	c.await(t, 3*time.Second, allStyle(replication.Active))
	dones := obs.find(replication.NoticeSwitchDone)
	if len(dones) < 3 {
		t.Fatalf("switch-done notices = %d, want >= 3", len(dones))
	}
	// §4.2: the switch delay is comparable to the average response time
	// (the closing checkpoint round), not orders of magnitude above it.
	for _, d := range dones {
		if d.Delay > 100*vtime.Millisecond {
			t.Fatalf("switch delay %v implausibly large", d.Delay)
		}
	}
}

func TestSwitchActiveToPassiveUnderTraffic(t *testing.T) {
	net := simnet.New(simnet.WithSeed(67))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 5, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 30; i++ {
		if i == 15 {
			c.nodes[0].Engine().RequestSwitch(replication.WarmPassive, vt)
		}
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("result %d = %d", i, got)
		}
		vt = out.DoneVT
	}
	c.await(t, 3*time.Second, func(recs map[string]replication.Stats) bool {
		return allStyle(replication.WarmPassive)(recs) && replicator.CaughtUp(recs)
	})
	// After the switch only the primary executes.
	exec0 := c.nodes[0].Engine().StatsSnapshot().RequestsExecuted
	exec1 := c.nodes[1].Engine().StatsSnapshot().RequestsExecuted
	if exec0 <= exec1 {
		t.Fatalf("primary executed %d, backup %d; roles wrong", exec0, exec1)
	}
	if c.nodes[1].Engine().StatsSnapshot().RequestsLogged == 0 {
		t.Fatal("backup logged nothing after switch")
	}
}

func TestSwitchSurvivesPrimaryCrashMidSwitch(t *testing.T) {
	// Figure 5, case 1 crash branch: the primary dies after the switch
	// message but before (or while) sending the closing checkpoint; the
	// backups replay their logs and go active.
	net := simnet.New(simnet.WithSeed(71))
	defer net.Close()
	c := startCluster(t, net, 3, replication.WarmPassive, 100, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 8; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}
	// Cut the primary off from the others and crash it just as the
	// switch is requested — its closing checkpoint never arrives.
	net.SetLink(c.nodes[0].Addr(), "*", transport.Rule{Drop: 1.0})
	c.nodes[1].Engine().RequestSwitch(replication.Active, vt)
	time.Sleep(30 * time.Millisecond)
	net.Crash(c.nodes[0].Addr())

	out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
	if err != nil {
		t.Fatalf("invoke after mid-switch crash: %v", err)
	}
	if got := out.Results[0].Int; got != 9 {
		t.Fatalf("post-crash add returned %d, want 9 (log replay lost state?)", got)
	}
	c.await(t, 3*time.Second, allStyle(replication.Active))
}

func TestJoinerReceivesStateTransfer(t *testing.T) {
	net := simnet.New(simnet.WithSeed(73))
	defer net.Close()
	c := startCluster(t, net, 2, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 6; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}

	// Add a third replica at runtime (the #replicas knob moving up).
	_, app := c.add(t, "rz", c.members(), replication.Active, 0, nil)

	// The joiner must converge to the pre-join state plus new traffic.
	settled := func(recs map[string]replication.Stats) bool {
		return len(recs) == 3 && replicator.CaughtUp(recs)
	}
	c.await(t, 5*time.Second, settled)
	if got := app.value("x"); got != 6 {
		t.Fatalf("joiner state = %d, want 6", got)
	}
	out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Results[0].Int; got != 7 {
		t.Fatalf("post-join add returned %d", got)
	}
	c.await(t, 3*time.Second, settled)
	if got := app.value("x"); got != 7 {
		t.Fatalf("joiner missed post-join traffic: %d", got)
	}
}

func TestMajorityVotingFilter(t *testing.T) {
	net := simnet.New(simnet.WithSeed(79))
	defer net.Close()
	c := startCluster(t, net, 3, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members(), func(cfg *replicator.ClientConfig) {
		cfg.Filter = interceptor.FilterMajority
		cfg.ExpectedReplies = 3
	})

	var vt vtime.Time
	for i := 1; i <= 5; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("voted invoke %d: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("voted result = %d", got)
		}
		vt = out.DoneVT
	}
}

func TestAdaptivePolicySwitchesOnRate(t *testing.T) {
	// The Figure 6 mechanism in miniature: a controller running a threshold
	// policy on the primary switches to active replication when the arrival
	// rate crosses a threshold, stepping after every reply.
	net := simnet.New(simnet.WithSeed(83))
	defer net.Close()
	c := startCluster(t, net, 2, replication.WarmPassive, 5, nil)
	nodes := c.nodes
	cl := startTestClient(t, net, "client", c.members())

	var replied vtime.Time
	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{policy.RateStyle{High: 400, Low: 150}},
		Sample:   nodes[0].Sensors(),
		Actuator: &replicator.ElasticActuator{Node: nodes[0], Now: func() vtime.Time { return replied }},
		Gate:     nodes[0].PolicyGate(),
	})
	invoke := func(vt vtime.Time) {
		t.Helper()
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		replied = out.DoneVT
		ctrl.Step()
	}

	// High-rate phase: requests 1ms apart in virtual time (1000 req/s).
	var vt vtime.Time
	for i := 0; i < 20; i++ {
		invoke(vt)
		vt = vt.Add(vtime.Millisecond)
	}
	c.await(t, 3*time.Second, allStyle(replication.Active))

	// Low-rate phase: requests 10ms apart (100 req/s) — switch back once
	// the engine's 32-request rate window is mostly low-rate stamps.
	for i := 0; i < 40; i++ {
		invoke(vt)
		vt = vt.Add(10 * vtime.Millisecond)
	}
	c.await(t, 3*time.Second, allStyle(replication.WarmPassive))
}
