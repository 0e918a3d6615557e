package replicator_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"versadep/internal/introspect"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/vtime"
)

// healthy is a replica fault meter's availability with no crash in its
// window: the prior. Any crash in the 60 s window at the 1 s MTTR lowers it,
// to 1/(1+n/60) for n crashes.
const healthy = 0.99

func TestGracefulRetireBackup(t *testing.T) {
	net := simnet.New(simnet.WithSeed(89))
	defer net.Close()
	obs := &observerLog{}
	c := startCluster(t, net, 3, replication.Active, 0, obs.observe)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 5; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}

	// Turn the replica-count knob down: retire the highest-ranked member.
	if err := c.nodes[0].Retire("rc", vt); err != nil {
		t.Fatal(err)
	}
	c.waitGroupSize(t, 2)

	// Service continues, state intact.
	for i := 6; i <= 10; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d after retirement: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("add %d returned %d", i, got)
		}
		vt = out.DoneVT
	}

	// A graceful departure is not a fault: no failover ran, no crash was
	// observed, and the retirement directive was delivered everywhere.
	for _, node := range c.nodes[:2] {
		st := node.Engine().StatsSnapshot()
		if st.Failovers != 0 {
			t.Fatalf("%s ran %d failovers on a graceful retirement", node.Addr(), st.Failovers)
		}
		if st.Retirements == 0 {
			t.Fatalf("%s observed no retirement directive", node.Addr())
		}
		if got := node.Faults().Availability(); got != healthy {
			t.Fatalf("%s fault meter reads availability %v after a graceful leave, want the prior %v", node.Addr(), got, healthy)
		}
	}
	if len(obs.find(replication.NoticeRetire)) == 0 {
		t.Fatal("no retirement notice observed")
	}
}

func TestGracefulRetirePrimaryHandsOff(t *testing.T) {
	net := simnet.New(simnet.WithSeed(97))
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

	// Retire the primary itself: it takes a parting checkpoint and the
	// next-ranked backup is promoted by handoff, not failover.
	if err := c.nodes[1].Retire("ra", vt); err != nil {
		t.Fatal(err)
	}
	c.waitGroupSize(t, 2)

	out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
	if err != nil {
		t.Fatalf("invoke after primary retirement: %v", err)
	}
	if got := out.Results[0].Int; got != 11 {
		t.Fatalf("post-handoff add returned %d, want 11 (state lost?)", got)
	}

	st := c.nodes[1].Engine().StatsSnapshot()
	if st.Role != replication.RolePrimary {
		t.Fatalf("rb did not take over: %+v", st)
	}
	if st.Failovers != 0 || st.Handoffs != 1 {
		t.Fatalf("failovers=%d handoffs=%d, want a handoff and no failover", st.Failovers, st.Handoffs)
	}
	if got := c.nodes[1].Faults().Availability(); got != healthy {
		t.Fatalf("fault meter reads availability %v after a graceful handoff, want the prior %v", got, healthy)
	}
}

func TestRetireRefusesLastReplica(t *testing.T) {
	net := simnet.New(simnet.WithSeed(101))
	defer net.Close()
	c := startCluster(t, net, 1, replication.Active, 0, nil)
	if err := c.nodes[0].Retire("ra", 0); err == nil {
		t.Fatal("retiring the last replica was accepted")
	}
}

func TestCrashDuringJoinKeepsServiceAndClosesSpans(t *testing.T) {
	// A replica crash racing a join: the coordinator dies while the third
	// replica's state transfer is in flight. The group must stabilize with
	// the survivor plus the joiner, lose no state, and leak no open causal
	// spans.
	net := simnet.New(simnet.WithSeed(103))
	defer net.Close()
	c := startCluster(t, net, 2, replication.WarmPassive, 3, nil)
	cl := startTestClient(t, net, "client", c.members())

	var vt vtime.Time
	for i := 1; i <= 6; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatal(err)
		}
		vt = out.DoneVT
	}

	joiner, app := c.add(t, "rz", c.members(), replication.WarmPassive, 3, nil)

	// Crash the primary while the join is still settling.
	time.Sleep(5 * time.Millisecond)
	net.Crash(c.nodes[0].Addr())

	c.waitGroupSize(t, 2)
	for i := 7; i <= 10; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d after crash-during-join: %v", i, err)
		}
		if got := out.Results[0].Int; got != int64(i) {
			t.Fatalf("post-crash add returned %d, want %d", got, i)
		}
		vt = out.DoneVT
	}
	// The joiner converges to the transferred state plus post-crash
	// traffic; as a passive backup it applies state at checkpoint
	// boundaries (every 3 requests), so request 9's checkpoint must land.
	c.await(t, 5*time.Second, func(map[string]replication.Stats) bool { return app.value("x") >= 9 })

	// The survivor observed a genuine crash (it feeds the fault meter).
	if got, want := c.nodes[1].Faults().Availability(), 1/(1+1.0/60); math.Abs(got-want) > 1e-9 {
		t.Fatalf("survivor's fault meter reads availability %v, want %v (1 crash)", got, want)
	}

	// Same invariant as the span leak detector: every span that opened on
	// a surviving node closed, even across the crash/join race.
	merged := trace.Merge(c.nodes[1].TraceSnapshot(), joiner.TraceSnapshot(), cl.TraceSnapshot())
	if merged.SpansOpen != 0 {
		t.Fatalf("%d spans still open after crash-during-join", merged.SpansOpen)
	}
}

func TestClusterFlapDampingBoundsSwitchSpans(t *testing.T) {
	// End-to-end flap damping: load oscillating across both RateStyle
	// thresholds on every sample, actuated on a real cluster. The cooldown
	// must bound the group to at most one style switch per window — the
	// trace's switch spans count the switches that actually ran.
	net := simnet.New(simnet.WithSeed(109))
	defer net.Close()
	c := startCluster(t, net, 2, replication.WarmPassive, 5, nil)
	cl := startTestClient(t, net, "client", c.members())

	primary := c.nodes[0]
	base := primary.Sensors()
	flip := false
	sample := func() policy.Signals {
		sig := base()
		flip = !flip
		if flip {
			sig.Rate = 600 // above High: wants active
		} else {
			sig.Rate = 100 // below Low: wants warm passive
		}
		return sig
	}
	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{policy.RateStyle{High: 400, Low: 150}},
		Sample:   sample,
		Actuator: &replicator.ElasticActuator{Node: primary},
		Gate:     primary.PolicyGate(),
		Cooldown: time.Hour, // one window spans the whole test
	})

	var vt vtime.Time
	for i := 0; i < 30; i++ {
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		vt = out.DoneVT
		ctrl.Step()
	}
	// Let the one switch complete.
	c.await(t, 3*time.Second, func(recs map[string]replication.Stats) bool {
		for _, r := range recs {
			if r.Switches != 1 || r.Style != replication.Active {
				return false
			}
		}
		return true
	})

	switches := map[string]bool{}
	merged := trace.Merge(c.nodes[0].TraceSnapshot(), c.nodes[1].TraceSnapshot())
	for _, s := range merged.Spans {
		if strings.HasPrefix(s.Trace, "switch:") {
			switches[s.Trace] = true
		}
	}
	if len(switches) != 1 {
		t.Fatalf("%d distinct switches ran inside one cooldown window, want 1: %v",
			len(switches), switches)
	}
	st := ctrl.Status()
	if st.Suppressed == 0 {
		t.Fatal("no decisions were suppressed despite oscillating load")
	}
	if st.Actuations != 1 {
		t.Fatalf("actuations = %d, want 1", st.Actuations)
	}
}

func TestAutonomicAvailabilityLoop(t *testing.T) {
	// The acceptance scenario: an AvailabilityTarget policy watching the
	// observed fault rate grows the group 2→3 by live state transfer when
	// crashes push the availability estimate down, and shrinks back to 2
	// by graceful retirement when it recovers — with client requests
	// completing throughout and the decision log visible over /policy.
	net := simnet.New(simnet.WithSeed(107))
	defer net.Close()
	c := startCluster(t, net, 2, replication.Active, 0, nil)
	cl := startTestClient(t, net, "client", c.members())

	primary := c.nodes[0]
	meter := primary.Faults()
	meter.SetPrior(healthy)
	// The meter's clock runs ahead of the wall by skew, so the test can
	// age the observed crashes out of its 60 s window.
	var skew atomic.Int64
	meter.SetClock(func() time.Time { return time.Now().Add(time.Duration(skew.Load())) })

	// The spawn hook launches simulated replicas named after "rb" so the
	// shrink path (highest rank first) retires them before the originals.
	spawned := 0
	var joiners []*replicator.ReplicaNode
	spawn := func(seeds []string) error {
		addr := fmt.Sprintf("rx%d", spawned)
		spawned++
		node, _ := c.add(t, addr, seeds, replication.Active, 0, nil)
		joiners = append(joiners, node)
		return nil
	}

	avail := policy.AvailabilityTarget{Target: 0.995}
	avail.Knob.MaxReplicas = 3
	// The cooldown does real work here: a join takes a few view rounds to
	// land, and without damping every intermediate step would re-grow.
	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{avail},
		Sample:   primary.Sensors(),
		Actuator: &replicator.ElasticActuator{Node: primary, Spawn: spawn},
		Gate:     primary.PolicyGate(),
		Cooldown: time.Second,
	})

	srv, err := introspect.Start("127.0.0.1:0", primary.Trace().Snapshot,
		introspect.WithJSON("/policy", func() any { return ctrl.Status() }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var vt vtime.Time
	invoke := func() {
		t.Helper()
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, vt)
		if err != nil {
			t.Fatalf("invoke: %v", err)
		}
		vt = out.DoneVT
	}

	// Phase 1 — healthy: per-replica availability is the 0.99 prior, so
	// Plan(0.995) = 2 replicas. The controller holds the group steady.
	for i := 0; i < 5; i++ {
		invoke()
		ctrl.Step()
	}
	if st := ctrl.Status(); st.Actuations != 0 {
		t.Fatalf("healthy group actuated: %+v", st.Decisions)
	}
	if got := len(c.members()); got != 2 {
		t.Fatalf("healthy group size = %d", got)
	}

	// Phase 2 — elevated fault rate: 5 crashes/min at 1s MTTR gives
	// A = 1/(1+5/60) ≈ 0.923, and Plan(0.995) needs 3 replicas. The
	// controller grows the group by one live join + state transfer.
	meter.ObserveCrashes(5)
	deadline := time.Now().Add(5 * time.Second)
	for {
		invoke()
		ctrl.Step()
		if v, err := primary.Member().View(); err == nil && len(v.Members) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never grew the group to 3 (status %+v)", ctrl.Status())
		}
	}
	if len(joiners) != 1 {
		t.Fatalf("spawned %d replicas, want 1", len(joiners))
	}
	// The joiner catches up to the live state (checkpoint + log suffix).
	invoke()
	c.await(t, 5*time.Second, func(recs map[string]replication.Stats) bool {
		j := recs[joiners[0].Addr()]
		return j.Members == 3 && j.Synced
	})

	// Phase 3 — recovery: the fault observations age out of the window,
	// availability returns to the prior, and the controller retires the
	// extra replica gracefully.
	skew.Store(int64(61 * time.Second))
	deadline = time.Now().Add(5 * time.Second)
	for {
		invoke()
		ctrl.Step()
		if v, err := primary.Member().View(); err == nil && len(v.Members) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("controller never shrank back to 2 (status %+v)", ctrl.Status())
		}
	}
	// The spawned replica, not an original, was retired — and gracefully.
	v, err := primary.Member().View()
	if err != nil {
		t.Fatal(err)
	}
	if v.Members[0] != "ra" || v.Members[1] != "rb" {
		t.Fatalf("final members = %v, want the originals", v.Members)
	}
	if st := primary.Engine().StatsSnapshot(); st.Failovers != 0 {
		t.Fatalf("shrink caused %d failovers", st.Failovers)
	}
	if got := meter.Availability(); got != healthy {
		t.Fatalf("graceful shrink fed the fault meter: availability %v, want the prior %v", got, healthy)
	}

	// Requests kept completing throughout; the counter stayed linear.
	out, err := cl.Invoke("Counter", "get", []interface{}{"x"}, vt)
	if err != nil {
		t.Fatal(err)
	}
	total := out.Results[0].Int
	if total < 7 { // 5 healthy + at least one per adaptation phase
		t.Fatalf("counter = %d; requests lost during adaptation?", total)
	}

	// The decision log is visible over the /policy introspection endpoint,
	// which shows the signals of the last step. The controller samples the
	// primary's engine, whose view lags the member's that ended the loop
	// above: step once the engine has installed the 2-member view too.
	c.await(t, 5*time.Second, func(recs map[string]replication.Stats) bool {
		return recs[primary.Addr()].Members == 2
	})
	ctrl.Step()
	resp, err := http.Get("http://" + srv.Addr() + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status policy.Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	var sawGrow, sawShrink bool
	for _, e := range status.Decisions {
		if e.Knob != "replicas" {
			continue
		}
		if e.Action == "grow 2→3" {
			sawGrow = true
		}
		if e.Action == "shrink 3→2" {
			sawShrink = true
		}
	}
	if !sawGrow || !sawShrink {
		t.Fatalf("/policy decisions missing grow/shrink: %+v", status.Decisions)
	}
	if status.Knobs.Replicas != 2 {
		t.Fatalf("/policy reports %d replicas", status.Knobs.Replicas)
	}
}

// A control request the engine refuses reaches the decision log with its
// reason instead of passing for an actuation. The sensor here reports a
// stale warm-passive style, so the rule asks for the active style the
// group already has.
func TestRefusedActuationIsLoggedWithReason(t *testing.T) {
	net := simnet.New(simnet.WithSeed(91))
	defer net.Close()
	c := startCluster(t, net, 2, replication.Active, 0, nil)
	act := &replicator.ElasticActuator{Node: c.nodes[0]}
	sense := c.nodes[0].Sensors()
	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{policy.RateStyle{High: 100, Low: 10}},
		Sample: func() policy.Signals {
			sig := sense()
			sig.Rate, sig.Style = 1000, replication.WarmPassive
			return sig
		},
		Actuator: act,
	})
	entries := ctrl.Step()
	if len(entries) != 1 || entries[0].Err != replication.ErrAlreadyStyle.Error() {
		t.Fatalf("entries = %+v, want one refusal: %v", entries, replication.ErrAlreadyStyle)
	}
	if st := ctrl.Status(); st.Actuations != 0 || len(st.Decisions) != 1 {
		t.Fatalf("status = %+v, want the refusal logged and not counted", st)
	}
	if err := act.SetCheckpointEvery(0); !errors.Is(err, replication.ErrBadInterval) {
		t.Fatalf("SetCheckpointEvery(0) = %v, want %v", err, replication.ErrBadInterval)
	}
}
