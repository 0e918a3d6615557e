package experiment

import (
	"strings"
	"testing"
	"time"

	"versadep/internal/knobs"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/vtime"
)

// quick returns fast options for tests.
func quickOpts() Options {
	o := DefaultOptions()
	o.Requests = 150
	return o
}

func TestFig3BreakdownMatchesPaperShape(t *testing.T) {
	res, err := RunFig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: app 15, ORB 398, GC 620, replicator 154, total ≈ 1187 µs.
	checks := []struct {
		c        vtime.Component
		lo, hi   float64 // µs
		paperVal float64
	}{
		{vtime.ComponentApp, 10, 25, 15},
		{vtime.ComponentORB, 360, 440, 398},
		{vtime.ComponentGC, 560, 700, 620},
		{vtime.ComponentReplicator, 135, 175, 154},
	}
	for _, ch := range checks {
		got := res.Breakdown[ch.c].Seconds() * 1e6
		if got < ch.lo || got > ch.hi {
			t.Errorf("%s = %.1fµs, want within [%v,%v] (paper %.0f)", ch.c, got, ch.lo, ch.hi, ch.paperVal)
		}
	}
	// GC must dominate, as the paper observes.
	if res.Breakdown[vtime.ComponentGC] <= res.Breakdown[vtime.ComponentORB] {
		t.Error("GC is not the dominant contributor")
	}
	if total := res.MeanRTT.Seconds() * 1e6; total < 1050 || total > 1350 {
		t.Errorf("total RTT %.1fµs outside the paper's ≈1187µs band", total)
	}
	out := RenderFig3(res)
	if !strings.Contains(out, "GroupCommunication") {
		t.Errorf("render missing components:\n%s", out)
	}
}

func TestFig4OrderingMatchesPaper(t *testing.T) {
	rows, err := RunFig4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	base := byName["no interceptor"].Mean
	ci := byName["client intercepted"].Mean
	si := byName["server intercepted"].Mean
	both := byName["server & client intercepted"].Mean
	wp := byName["warm passive (1 replica)"].Mean
	act := byName["active (1 replica)"].Mean

	// The paper's qualitative result: interception adds little overhead;
	// the replication mechanisms add real latency and jitter.
	if !(base < ci && base < si && ci < both && si < both) {
		t.Errorf("interception ordering broken: base=%v ci=%v si=%v both=%v", base, ci, si, both)
	}
	if !(both < wp && both < act) {
		t.Errorf("replicated modes not slower than interception-only: both=%v wp=%v act=%v", both, wp, act)
	}
	// Interception overhead per intercepted side ≈ 2 crossings ≈ 76µs.
	if d := ci - base; d < 50*vtime.Microsecond || d > 110*vtime.Microsecond {
		t.Errorf("client interception overhead %v outside expected band", d)
	}
	// Replicated jitter exceeds the baseline's.
	if byName["active (1 replica)"].Jitter <= byName["no interceptor"].Jitter {
		t.Error("replication did not increase jitter")
	}
	_ = RenderFig4(rows)
}

func TestFig7ShapesMatchPaper(t *testing.T) {
	o := quickOpts()
	get := func(style replication.Style, r, c int) Fig7Point {
		t.Helper()
		p, err := RunFig7ForConfig(o, style, r, c)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	a1 := get(replication.Active, 3, 1)
	a5 := get(replication.Active, 3, 5)
	p1 := get(replication.WarmPassive, 3, 1)
	p5 := get(replication.WarmPassive, 3, 5)

	// 7a: passive much slower than active, with the gap widening under
	// load — "with five clients, passive replication is roughly three
	// times slower than active replication".
	if p1.MeanLatency <= a1.MeanLatency {
		t.Errorf("passive not slower at 1 client: %v vs %v", p1.MeanLatency, a1.MeanLatency)
	}
	ratio := float64(p5.MeanLatency) / float64(a5.MeanLatency)
	if ratio < 2.0 || ratio > 5.0 {
		t.Errorf("latency ratio at 5 clients = %.2f, paper ≈ 3", ratio)
	}
	// Latency grows with clients for both styles.
	if p5.MeanLatency <= p1.MeanLatency || a5.MeanLatency <= a1.MeanLatency {
		t.Error("latency does not grow with client count")
	}
	// 7b: bandwidth grows with clients; active's growth is steeper and
	// its absolute usage higher at 5 clients.
	if a5.BandwidthMBs <= a1.BandwidthMBs || p5.BandwidthMBs <= p1.BandwidthMBs {
		t.Error("bandwidth does not grow with client count")
	}
	bwRatio := a5.BandwidthMBs / p5.BandwidthMBs
	if bwRatio < 1.3 || bwRatio > 3.0 {
		t.Errorf("active/passive bandwidth ratio at 5 clients = %.2f, paper ≈ 2", bwRatio)
	}
}

func TestTable2ReproducesPaperPolicy(t *testing.T) {
	o := quickOpts()
	// The A(3) bandwidth feasibility boundary sits between 2 and 3
	// clients by ~±2%; cycles shorter than ~250 requests let bootstrap
	// transients blur it (margins verified stable for 250-600).
	o.Requests = 250
	// The five competitive configurations (full sweep is exercised by
	// the benchmarks; the policy only needs these plus the losers).
	var points []Fig7Point
	for _, cfg := range []struct {
		style replication.Style
		r     int
	}{
		{replication.Active, 2},
		{replication.Active, 3},
		{replication.WarmPassive, 2},
		{replication.WarmPassive, 3},
	} {
		for c := 1; c <= 5; c++ {
			p, err := RunFig7ForConfig(o, cfg.style, cfg.r, c)
			if err != nil {
				t.Fatal(err)
			}
			points = append(points, p)
		}
	}

	rows, infeasible := RunTable2(points, knobs.PaperRequirements(), 5)
	if len(infeasible) != 0 {
		t.Fatalf("infeasible client counts: %v", infeasible)
	}
	want := []string{"A(3)", "A(3)", "P(3)", "P(3)", "P(2)"}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, w := range want {
		if rows[i].Config.String() != w {
			t.Errorf("Ncli=%d chose %s, paper chose %s (lat=%v bw=%.2f)",
				rows[i].Clients, rows[i].Config, w, rows[i].Latency, rows[i].Bandwidth)
		}
	}
	// Fault-tolerance column: 2,2,2,2,1 as in the paper.
	wantFT := []int{2, 2, 2, 2, 1}
	for i, ft := range wantFT {
		if rows[i].FaultsTolerated != ft {
			t.Errorf("Ncli=%d faults=%d, want %d", rows[i].Clients, rows[i].FaultsTolerated, ft)
		}
	}
	// Cost increases with load while the configuration class persists
	// (rows 1-4 in Table 2; the switch to P(2) at five clients resets
	// the trade-off).
	for i := 1; i < 4; i++ {
		if rows[i].Cost <= rows[i-1].Cost {
			t.Errorf("cost not increasing: %.3f after %.3f", rows[i].Cost, rows[i-1].Cost)
		}
	}
	if rows[4].Cost <= rows[0].Cost {
		t.Errorf("five-client cost %.3f not above one-client cost %.3f", rows[4].Cost, rows[0].Cost)
	}
	out := RenderTable2(rows, infeasible, knobs.PaperRequirements())
	if !strings.Contains(out, "A(3)") || !strings.Contains(out, "P(2)") {
		t.Errorf("render:\n%s", out)
	}

	// Figure 9: normalize the dataset; for every matched configuration
	// (same replicas, same load) the active point lies strictly on the
	// higher-performance side of the passive point — the styles carve
	// out separate regions of the design space.
	f9 := RunFig9(points)
	byKey := map[[2]int]map[replication.Style]Fig9Point{}
	for _, p := range f9 {
		k := [2]int{p.Replicas, p.Clients}
		if byKey[k] == nil {
			byKey[k] = map[replication.Style]Fig9Point{}
		}
		byKey[k][p.Style] = p
	}
	for k, styles := range byKey {
		a, okA := styles[replication.Active]
		p, okP := styles[replication.WarmPassive]
		if !okA || !okP {
			continue
		}
		if a.Performance <= p.Performance {
			t.Errorf("r=%d c=%d: active perf %.3f not above passive %.3f",
				k[0], k[1], a.Performance, p.Performance)
		}
	}
	_ = RenderFig9(f9)
}

func TestFig6AdaptiveReplication(t *testing.T) {
	o := quickOpts()
	o.Requests = 240
	profile := DefaultFig6Profile(o.Requests)
	res, err := RunFig6(o, profile, DefaultFig6Thresholds())
	if err != nil {
		t.Fatal(err)
	}
	// The style switches up to active in the no-think peak (phase 2) and
	// back down to warm passive as the load ramps down (phase 3). A switch's
	// phase is that of the last request delivered before it.
	phase := func(sw StyleChange) int {
		n := 0
		for _, p := range res.Points {
			if !p.VT.After(sw.VT) {
				n++
			}
		}
		for i, ph := range profile {
			if n -= ph.Requests; n <= 0 {
				return i
			}
		}
		return len(profile)
	}
	want := []struct {
		style replication.Style
		phase int
	}{{replication.Active, 2}, {replication.WarmPassive, 3}}
	if len(res.Switches) != len(want) {
		t.Fatalf("switches = %d, want %d:\n%s", len(res.Switches), len(want), RenderFig6(res, 10))
	}
	for i, w := range want {
		sw := res.Switches[i]
		if sw.Style != w.style || phase(sw) != w.phase {
			t.Fatalf("switch %d = %v in phase %d, want %v in phase %d: %+v",
				i, sw.Style, phase(sw), w.style, w.phase, res.Switches)
		}
	}
	// Adaptive throughput beats static passive (paper: +4.1%).
	if res.GainPct <= 0 {
		t.Errorf("adaptive gain = %.2f%%, want > 0", res.GainPct)
	}
	if res.GainPct > 40 {
		t.Errorf("adaptive gain %.2f%% implausibly large", res.GainPct)
	}
	if len(res.Points) == 0 {
		t.Error("no rate timeline collected")
	}
}

func TestSwitchDelayComparableToResponseTime(t *testing.T) {
	o := quickOpts()
	o.Requests = 200
	res, err := RunSwitchDelay(o, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SwitchDelays) == 0 {
		t.Fatal("no switch delays measured")
	}
	// §4.2: "the observed delays required to complete the switch are
	// comparable to the average response time" — within an order of
	// magnitude, not orders above.
	for _, d := range res.SwitchDelays {
		if d > 10*res.MeanRTT {
			t.Errorf("switch delay %v >> mean RTT %v", d, res.MeanRTT)
		}
	}
	_ = RenderSwitchDelay(res)
}

func TestVotingConfiguration(t *testing.T) {
	o := quickOpts()
	o.Requests = 50
	o.Voting = true
	s, err := NewScenario(o, replication.Active, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.drive(o.Requests, true, nil)[0]
	if res.Errors != 0 || res.Requests != 50 {
		t.Fatalf("voting run: %d ok, %d errors", res.Requests, res.Errors)
	}
}

// The scenario's sensors meter the fabric's bandwidth, so a bandwidth cap
// under the run's traffic stretches a passive group's checkpoint interval.
// The floor of three replicas and the cap on the interval leave that one
// doubling as the only thing the policy can do.
func TestBandwidthCapStretchesCheckpoints(t *testing.T) {
	o := quickOpts()
	o.Requests = 60
	o.CheckpointEvery = 5
	s, err := NewScenario(o, replication.WarmPassive, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctrl := policy.New(policy.Config{
		Policies: []policy.Policy{policy.ResourceCap{BandwidthMBs: 0.001, MinReplicas: 3, MaxCheckpointEvery: 10}},
		Sample:   s.Sensors(),
		Actuator: s.Actuator(),
	})
	err = s.RunClosedLoop(func(i int, vt vtime.Time, rtt vtime.Duration) {
		if i > 0 && i%10 == 0 {
			ctrl.Step()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.BandwidthMBs() <= 0.001 {
		t.Fatalf("bandwidth %.4f MB/s is not over the cap", s.BandwidthMBs())
	}
	// The retune rides the agreed stream; its delivery is a progress move.
	if err := s.group.Await(2*time.Second, func(recs map[string]replication.Stats) bool {
		for _, st := range recs {
			if st.CheckpointEvery != 10 {
				return false
			}
		}
		return true
	}); err != nil {
		t.Fatalf("%v; decisions %+v", err, ctrl.Status().Decisions)
	}
	if st := ctrl.Status(); st.Actuations == 0 || st.Decisions[0].Policy != "resource-cap" {
		t.Fatalf("controller status = %+v", st)
	}
}
