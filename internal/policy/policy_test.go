package policy_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"versadep/internal/policy"
	"versadep/internal/replication"
)

func TestRateStyleDecisionGrid(t *testing.T) {
	p := policy.RateStyle{High: 400, Low: 150}
	cases := []struct {
		name  string
		rate  float64
		style replication.Style
		want  replication.Style // 0 = no decision
	}{
		{"high rate from passive", 500, replication.WarmPassive, replication.Active},
		{"high rate already active", 500, replication.Active, 0},
		{"low rate from active", 100, replication.Active, replication.WarmPassive},
		{"low rate already passive", 100, replication.WarmPassive, 0},
		{"hysteresis band from active", 300, replication.Active, 0},
		{"hysteresis band from passive", 300, replication.WarmPassive, 0},
		{"warm-up window (rate 0) from active", 0, replication.Active, 0},
		{"exactly high", 400, replication.WarmPassive, 0},
		{"exactly low", 150, replication.Active, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := p.Decide(policy.Signals{Rate: tc.rate, Style: tc.style})
			if d.Style != tc.want {
				t.Fatalf("Decide(rate=%v, style=%v).Style = %v, want %v",
					tc.rate, tc.style, d.Style, tc.want)
			}
			if tc.want != 0 && d.Reason == "" {
				t.Fatal("decision carries no reason")
			}
		})
	}
}

func TestAvailabilityTargetPlansReplicaCount(t *testing.T) {
	p := policy.AvailabilityTarget{Target: 0.995}
	p.Knob.MaxReplicas = 5

	// Healthy prior 0.99: two replicas reach 0.995 (1-(0.01)^2 = 0.9999).
	d := p.Decide(policy.Signals{Replicas: 2, ReplicaAvailability: 0.99})
	if d.Replicas != 0 || d.MinReplicas != 2 {
		t.Fatalf("healthy at size 2: %+v, want no change with floor 2", d)
	}
	// Degraded to ~0.8955 (the acceptance scenario's 14 crashes/minute):
	// three replicas needed.
	d = p.Decide(policy.Signals{Replicas: 2, ReplicaAvailability: 0.8955})
	if d.Replicas != 3 || d.MinReplicas != 3 {
		t.Fatalf("degraded at size 2: %+v, want grow to 3", d)
	}
	// Recovery at size 3: shrink back to 2.
	d = p.Decide(policy.Signals{Replicas: 3, ReplicaAvailability: 0.99})
	if d.Replicas != 2 || d.MinReplicas != 2 {
		t.Fatalf("recovered at size 3: %+v, want shrink to 2", d)
	}
	// No fault observations yet: no opinion at all.
	d = p.Decide(policy.Signals{Replicas: 2})
	if d != (policy.Decision{}) {
		t.Fatalf("no observations: %+v, want empty decision", d)
	}
	// Unreachable target: hold the resource bound and say why.
	hard := policy.AvailabilityTarget{Target: 0.9999999}
	hard.Knob.MaxReplicas = 3
	d = hard.Decide(policy.Signals{Replicas: 2, ReplicaAvailability: 0.5})
	if d.Replicas != 3 || d.MinReplicas != 3 {
		t.Fatalf("unreachable target: %+v, want hold at 3", d)
	}
	if !strings.Contains(d.Reason, "unreachable") {
		t.Fatalf("unreachable reason = %q", d.Reason)
	}
	// A perfect observed availability is clamped into the open interval
	// rather than crashing Plan's domain validation.
	d = p.Decide(policy.Signals{Replicas: 1, ReplicaAvailability: 1.0})
	if d.MinReplicas < 1 {
		t.Fatalf("clamped availability: %+v", d)
	}
}

func TestResourceCapShedsCheckpointsBeforeReplicas(t *testing.T) {
	p := policy.ResourceCap{BandwidthMBs: 3.0, MinReplicas: 2, MaxCheckpointEvery: 20}

	// Under budget: no opinion.
	if d := p.Decide(policy.Signals{BandwidthMBs: 2.0, Replicas: 3}); d != (policy.Decision{}) {
		t.Fatalf("under budget: %+v", d)
	}
	// Over budget, passive: stretch the checkpoint interval first.
	sig := policy.Signals{
		BandwidthMBs: 4.0, Style: replication.WarmPassive,
		Replicas: 3, CheckpointEvery: 5,
	}
	if d := p.Decide(sig); d.CheckpointEvery != 10 || d.Replicas != 0 {
		t.Fatalf("passive over budget: %+v, want checkpoint stretch to 10", d)
	}
	// Stretching is capped at MaxCheckpointEvery.
	sig.CheckpointEvery = 15
	if d := p.Decide(sig); d.CheckpointEvery != 20 {
		t.Fatalf("stretch past cap: %+v, want 20", d)
	}
	// At the cap, shed a replica instead.
	sig.CheckpointEvery = 20
	if d := p.Decide(sig); d.Replicas != 2 || d.CheckpointEvery != 0 {
		t.Fatalf("at stretch cap: %+v, want shed to 2", d)
	}
	// Active style has no checkpoints to stretch: shed directly.
	active := policy.Signals{BandwidthMBs: 4.0, Style: replication.Active, Replicas: 3}
	if d := p.Decide(active); d.Replicas != 2 {
		t.Fatalf("active over budget: %+v, want shed to 2", d)
	}
	// Never shed below the floor.
	active.Replicas = 2
	if d := p.Decide(active); d != (policy.Decision{}) {
		t.Fatalf("at min replicas: %+v, want no decision", d)
	}
}

func TestParseSpec(t *testing.T) {
	ps, err := policy.ParseSpec("avail=0.995:5, rate=500:250, bwcap=3:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("parsed %d policies", len(ps))
	}
	wantNames := []string{"availability-target", "rate-style", "resource-cap"}
	for i, p := range ps {
		if p.Name() != wantNames[i] {
			t.Fatalf("policy %d = %s, want %s (spec order is priority order)", i, p.Name(), wantNames[i])
		}
	}
	for _, bad := range []string{
		"", "  ,  ", "rate", "rate=500", "rate=a:b",
		"avail=", "avail=0.9:0", "bwcap=", "bwcap=3:0", "turbo=1",
	} {
		if _, err := policy.ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestFaultMeterAvailabilityMath(t *testing.T) {
	clk := time.Unix(1000, 0)
	m := policy.NewFaultMeter(60*time.Second, time.Second)
	m.SetClock(func() time.Time { return clk })
	check := func(what string, want float64) {
		t.Helper()
		if a := m.Availability(); a < want-1e-9 || a > want+1e-9 {
			t.Fatalf("availability %s = %v, want %v", what, a, want)
		}
	}

	// No crashes: the healthy prior.
	check("when healthy", 0.99)
	// 14 crashes/minute, MTTR 1s: λ=14/60, A = 1/(1+(14/60)·1) ≈ 0.8108.
	m.ObserveCrashes(14)
	check("after 14 crashes", 1/(1+14.0/60.0))
	// Events age out of the window: the prior again.
	clk = clk.Add(61 * time.Second)
	check("after the window", 0.99)
	// One crash only: 1/(1+1/60) ≈ 0.9836 — still below the prior, so no
	// clamping artifact.
	m.ObserveCrashes(1)
	check("after 1 crash", 1/(1+1.0/60.0))
	// Half a window on, the crash still counts.
	clk = clk.Add(30 * time.Second)
	check("half a window after 1 crash", 1/(1+1.0/60.0))
	// The estimate never rises above the healthy prior.
	m.SetPrior(0.9)
	check("with prior 0.9", 0.9)
}

// fakeActuator records actuations for white-box controller tests.
type fakeActuator struct {
	mu       sync.Mutex
	switches []replication.Style
	ckpts    []int
	grows    int
	shrinks  int
}

func (a *fakeActuator) SwitchStyle(target replication.Style) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.switches = append(a.switches, target)
	return nil
}

func (a *fakeActuator) SetCheckpointEvery(every int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ckpts = append(a.ckpts, every)
	return nil
}

func (a *fakeActuator) Grow() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.grows++
	return nil
}

func (a *fakeActuator) Shrink() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.shrinks++
	return nil
}

func (a *fakeActuator) switchCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.switches)
}

// staticPolicy is a fixed-decision policy for merge tests.
type staticPolicy struct {
	name string
	d    policy.Decision
}

func (p staticPolicy) Name() string                          { return p.name }
func (p staticPolicy) Decide(policy.Signals) policy.Decision { return p.d }

func TestControllerFlapDamping(t *testing.T) {
	// Load oscillating across both thresholds every step must actuate at
	// most one switch per cooldown window.
	clk := time.Unix(0, 0)
	act := &fakeActuator{}
	sig := policy.Signals{Rate: 600, Style: replication.WarmPassive, Replicas: 2}
	var mu sync.Mutex
	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{policy.RateStyle{High: 400, Low: 150}},
		Sample: func() policy.Signals {
			mu.Lock()
			defer mu.Unlock()
			return sig
		},
		Actuator: act,
		Cooldown: 10 * time.Second,
		Now:      func() time.Time { return clk },
	})

	flip := func() {
		mu.Lock()
		defer mu.Unlock()
		if sig.Style == replication.Active {
			sig.Style, sig.Rate = replication.WarmPassive, 600
		} else {
			sig.Style, sig.Rate = replication.Active, 100
		}
	}

	// 20 oscillating steps inside one cooldown window: exactly one switch.
	for i := 0; i < 20; i++ {
		if len(ctrl.Step()) > 0 {
			flip() // the actuation "took effect"; load immediately flips back
		}
		clk = clk.Add(100 * time.Millisecond)
	}
	if got := act.switchCount(); got != 1 {
		t.Fatalf("switches inside one cooldown window = %d, want exactly 1", got)
	}
	st := ctrl.Status()
	if st.Suppressed == 0 {
		t.Fatal("cooldown suppressed nothing despite oscillating load")
	}

	// After the window passes, the next flap may actuate exactly once more.
	clk = clk.Add(10 * time.Second)
	for i := 0; i < 10; i++ {
		if len(ctrl.Step()) > 0 {
			flip()
		}
		clk = clk.Add(100 * time.Millisecond)
	}
	if got := act.switchCount(); got != 2 {
		t.Fatalf("switches after second window = %d, want 2", got)
	}
}

func TestControllerPriorityMergeAndFloor(t *testing.T) {
	// A fault-tolerance floor from a high-priority policy clamps a
	// lower-priority shed: 4 replicas, shed wants 2, floor is 3.
	act := &fakeActuator{}
	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{
			staticPolicy{name: "floor", d: policy.Decision{MinReplicas: 3}},
			staticPolicy{name: "shed", d: policy.Decision{Replicas: 2, Reason: "over budget"}},
		},
		Sample:   func() policy.Signals { return policy.Signals{Replicas: 4} },
		Actuator: act,
	})
	out := ctrl.Step()
	if len(out) != 1 || out[0].Knob != "replicas" {
		t.Fatalf("entries = %+v", out)
	}
	if act.shrinks != 1 || act.grows != 0 {
		t.Fatalf("shrinks=%d grows=%d, want one shrink", act.shrinks, act.grows)
	}
	if want := "shrink 4→3"; out[0].Action != want {
		t.Fatalf("action = %q, want %q (clamped to the floor, not the request)", out[0].Action, want)
	}
	if !strings.Contains(out[0].Reason, "clamped to fault-tolerance floor") {
		t.Fatalf("reason = %q, want clamp annotation", out[0].Reason)
	}

	// When the clamp lands on the current size, the shed disappears.
	act2 := &fakeActuator{}
	ctrl2 := policy.New(policy.Config{
		Policies: []policy.Policy{
			staticPolicy{name: "floor", d: policy.Decision{MinReplicas: 3}},
			staticPolicy{name: "shed", d: policy.Decision{Replicas: 2, Reason: "over budget"}},
		},
		Sample:   func() policy.Signals { return policy.Signals{Replicas: 3} },
		Actuator: act2,
	})
	if out := ctrl2.Step(); len(out) != 0 || act2.shrinks != 0 {
		t.Fatalf("floored shed actuated: entries=%+v shrinks=%d", out, act2.shrinks)
	}

	// Highest-priority opinion wins per knob; a grow far above the current
	// size still takes one elasticity step per iteration.
	act3 := &fakeActuator{}
	ctrl3 := policy.New(policy.Config{
		Policies: []policy.Policy{
			staticPolicy{name: "grow", d: policy.Decision{Replicas: 5, Reason: "need more"}},
			staticPolicy{name: "shed", d: policy.Decision{Replicas: 1, Reason: "over budget"}},
		},
		Sample:   func() policy.Signals { return policy.Signals{Replicas: 2} },
		Actuator: act3,
	})
	out = ctrl3.Step()
	if act3.grows != 1 || act3.shrinks != 0 {
		t.Fatalf("grows=%d shrinks=%d, want exactly one grow", act3.grows, act3.shrinks)
	}
	if len(out) != 1 || out[0].Policy != "grow" {
		t.Fatalf("entries = %+v, want the higher-priority policy to win", out)
	}
}

func TestControllerGateAndBoundedLog(t *testing.T) {
	gated := true
	act := &fakeActuator{}
	styles := []replication.Style{replication.WarmPassive, replication.Active}
	step := 0
	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{policy.RateStyle{High: 400, Low: 150}},
		Sample: func() policy.Signals {
			step++
			if step%2 == 1 {
				return policy.Signals{Rate: 600, Style: styles[0], Replicas: 2}
			}
			return policy.Signals{Rate: 100, Style: styles[1], Replicas: 2}
		},
		Actuator: act,
		Gate:     func() bool { return !gated },
	})
	// Gated: no sampling, no actuation.
	for i := 0; i < 5; i++ {
		if out := ctrl.Step(); len(out) != 0 {
			t.Fatalf("gated step produced %+v", out)
		}
	}
	if act.switchCount() != 0 || ctrl.Status().Steps != 0 {
		t.Fatal("gated controller acted")
	}
	// Ungated with no cooldown: every oscillation actuates, but the log
	// stays bounded at 64 entries with the newest retained.
	gated = false
	for i := 0; i < 71; i++ {
		ctrl.Step()
	}
	st := ctrl.Status()
	if len(st.Decisions) != 64 {
		t.Fatalf("log depth = %d, want 64", len(st.Decisions))
	}
	if st.Actuations != 71 || act.switchCount() != 71 {
		t.Fatalf("actuations = %d/%d, want 71", st.Actuations, act.switchCount())
	}
	if last := st.Decisions[63].Action; last != "switch to active" {
		t.Fatalf("newest entry = %q, want the 71st step's switch to active", last)
	}
	if st.Knobs.Replicas != 2 || len(st.Policies) != 1 || st.Policies[0] != "rate-style" {
		t.Fatalf("status = %+v", st)
	}
}
