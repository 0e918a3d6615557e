package experiment

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"versadep/internal/interceptor"
	"versadep/internal/knobs"
	"versadep/internal/monitor"
	"versadep/internal/orb"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace/hist"
	"versadep/internal/transport"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// ---------------------------------------------------------------- Figure 3

// Fig3Result is the round-trip breakdown of Figure 3.
type Fig3Result struct {
	// Breakdown is the mean per-component contribution.
	Breakdown map[vtime.Component]vtime.Duration
	// MeanRTT is the mean round-trip time (includes queueing idle time
	// not attributed to any component).
	MeanRTT vtime.Duration
	// Requests is the population size.
	Requests int
}

// RunFig3 measures the component breakdown with one client and one active
// replica, the configuration of the paper's Figure 3.
func RunFig3(o Options) (*Fig3Result, error) {
	s, err := NewScenario(o, replication.Active, 1, 1, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var ledgers []vtime.Ledger
	out, err := s.Run(Plan{OnReply: func(_, _ int, out *orb.Outcome) { ledgers = append(ledgers, out.Ledger) }})
	if err != nil {
		return nil, err
	}
	res := out.Results[0]
	return &Fig3Result{
		Breakdown: monitor.LedgerBreakdown(ledgers),
		MeanRTT:   vtime.Duration(res.Latency.Snapshot().Mean()),
		Requests:  res.Requests,
	}, nil
}

// ---------------------------------------------------------------- Figure 4

// Fig4Row is one bar of Figure 4: a configuration's mean latency and
// jitter.
type Fig4Row struct {
	Name   string
	Mean   vtime.Duration
	Jitter vtime.Duration
}

// RunFig4 measures the six configurations of Figure 4: the unreplicated
// baseline, the interception-only modes, and single-replica warm-passive
// and active replication.
func RunFig4(o Options) ([]Fig4Row, error) {
	rows := make([]Fig4Row, 0, 6)
	for _, d := range []struct {
		name                             string
		clientIntercept, serverIntercept bool
	}{
		{"no interceptor", false, false},
		{"client intercepted", true, false},
		{"server intercepted", false, true},
		{"server & client intercepted", true, true},
	} {
		st, err := runDirectPair(o, d.clientIntercept, d.serverIntercept)
		if err != nil {
			return nil, err
		}
		rows = append(rows, fig4Row(d.name, st))
	}
	for _, r := range []struct {
		name  string
		style replication.Style
	}{
		{"warm passive (1 replica)", replication.WarmPassive},
		{"active (1 replica)", replication.Active},
	} {
		s, err := NewScenario(o, r.style, 1, 1, nil)
		if err != nil {
			return nil, err
		}
		out, err := s.Run(Plan{})
		s.Close()
		if err != nil {
			return nil, err
		}
		rows = append(rows, fig4Row(r.name, out.Results[0].Latency.Snapshot()))
	}
	return rows, nil
}

// fig4Row reads a bar of Figure 4 off its round-trip population.
func fig4Row(name string, lat hist.Snapshot) Fig4Row {
	return Fig4Row{Name: name, Mean: vtime.Duration(lat.Mean()), Jitter: vtime.Duration(lat.StdDev())}
}

// runDirectPair measures the point-to-point (non-replicated) client/server
// configurations of Figure 4.
func runDirectPair(o Options, clientIntercept, serverIntercept bool) (hist.Snapshot, error) {
	net := simnet.New(simnet.WithCostModel(o.Model), simnet.WithSeed(o.Seed))
	defer net.Close()

	sEP, err := net.Endpoint("server")
	if err != nil {
		return hist.Snapshot{}, err
	}
	sd := transport.NewDemux(sEP)
	adapter := orb.NewAdapter(o.Model)
	adapter.Register("Bench", workload.NewBenchApp(o.StateBytes, o.ExecCost, o.ReplyBytes))
	var cpu vtime.Server
	var sopts []orb.ServerOption
	if serverIntercept {
		sopts = append(sopts, orb.WithServerIntercept(o.Model.Intercept))
	}
	srv := orb.NewServer(sd.Conn(transport.ProtoVIOP), adapter, &cpu, o.Model, sopts...)
	sd.Handle(transport.ProtoVIOP, srv.HandleTransport)
	sd.Start()
	defer func() { srv.Stop(); _ = sd.Close() }()

	cEP, err := net.Endpoint("client")
	if err != nil {
		return hist.Snapshot{}, err
	}
	cd := transport.NewDemux(cEP)
	dw := orb.NewDirectWire(cd.Conn(transport.ProtoVIOP), "server", o.Model)
	cd.Handle(transport.ProtoVIOP, dw.HandleTransport)
	cd.Start()
	var wire orb.Wire = dw
	if clientIntercept {
		wire = interceptor.NewPassthrough(dw, o.Model)
	}
	client := orb.NewClient("client", wire, o.Model, orb.WithTimeout(500*time.Millisecond))
	defer func() { _ = client.Close(); _ = cd.Close() }()

	var lat hist.Snapshot
	var vt vtime.Time
	args := []interface{}{make([]byte, o.RequestBytes)}
	vals, err := replicator.ToValues(args)
	if err != nil {
		return hist.Snapshot{}, err
	}
	for i := 0; i < o.Requests; i++ {
		out, err := client.Invoke("Bench", "work", vals, vt)
		if err != nil {
			return hist.Snapshot{}, fmt.Errorf("direct invoke %d: %w", i, err)
		}
		lat.Observe(int64(out.RTT()))
		vt = out.DoneVT
	}
	return lat, nil
}

// ---------------------------------------------------------------- Figure 6

// Fig6Result captures the adaptive-replication experiment: the arrival
// rate seen at the server over virtual time, the style in force, and the
// throughput comparison against static passive replication (the paper
// reports adaptive 4.1% higher).
type Fig6Result struct {
	// Points samples (virtual time, request rate, style) at the server.
	Points []monitor.TimePoint
	// Switches lists the style changes with their virtual times.
	Switches []StyleChange
	// AdaptiveThroughput and StaticThroughput are completed requests per
	// virtual second across the whole profile.
	AdaptiveThroughput, StaticThroughput float64
	// GainPct is the adaptive gain over static passive, in percent.
	GainPct float64
}

// StyleChange records one completed switch.
type StyleChange struct {
	VT    vtime.Time
	Style replication.Style
	Delay vtime.Duration
}

// DefaultFig6Profile ramps the offered load up and back down, crossing the
// adaptation thresholds in both directions like the paper's Figure 6.
func DefaultFig6Profile(requests int) []ThinkPhase {
	per := requests / 6
	if per < 10 {
		per = 10
	}
	return []ThinkPhase{
		{Think: 8 * vtime.Millisecond, Requests: per},
		{Think: 3 * vtime.Millisecond, Requests: per},
		{Think: 0, Requests: 2 * per},
		{Think: 3 * vtime.Millisecond, Requests: per},
		{Think: 8 * vtime.Millisecond, Requests: per},
	}
}

// Fig6Thresholds are the adaptation policy's switching thresholds in
// requests per virtual second (switch to active above High, back to warm
// passive below Low; the gap is hysteresis).
type Fig6Thresholds struct {
	High, Low float64
}

// DefaultFig6Thresholds switch to active above 500 req/s and back below
// 250 req/s.
func DefaultFig6Thresholds() Fig6Thresholds { return Fig6Thresholds{High: 500, Low: 250} }

// RunFig6 runs the adaptive-replication experiment and its static-passive
// control. The switching rule is the policy layer's RateStyle, run by a
// policy.Controller as on a live node.
func RunFig6(o Options, profile []ThinkPhase, th Fig6Thresholds) (*Fig6Result, error) {
	res := &Fig6Result{}
	var mu sync.Mutex
	rate := monitor.NewRateMeter(24)
	currentStyle := replication.WarmPassive
	observer := func(n replication.Notice) {
		if n.Addr != "replica-a" {
			return // one deterministic stream: the rank-0 replica
		}
		mu.Lock()
		defer mu.Unlock()
		switch n.Kind {
		case replication.NoticeRequest:
			rate.Record(n.VT)
			res.Points = append(res.Points, monitor.TimePoint{
				VT: n.VT, Value: rate.Rate(), Label: currentStyle.Short(),
			})
		case replication.NoticeSwitchDone:
			currentStyle = n.Style
			res.Switches = append(res.Switches, StyleChange{VT: n.VT, Style: n.Style, Delay: n.Delay})
		}
	}

	adaptive, err := runFig6Profile(o, profile, policy.RateStyle{High: th.High, Low: th.Low}, observer)
	if err != nil {
		return nil, err
	}
	static, err := runFig6Profile(o, profile, nil, nil)
	if err != nil {
		return nil, err
	}
	res.AdaptiveThroughput = adaptive
	res.StaticThroughput = static
	if static > 0 {
		res.GainPct = (adaptive - static) / static * 100
	}
	return res, nil
}

// runFig6Profile drives the think-time profile against a 2-replica group
// and returns the achieved throughput. A controller running rule, if it is
// not nil, steps after every reply. The observer sees every replica's
// notices (filter on Notice.Addr for a single deterministic stream).
func runFig6Profile(o Options, profile []ThinkPhase, rule policy.Policy,
	observer func(replication.Notice)) (float64, error) {
	s, err := NewScenario(o, replication.WarmPassive, 2, 1, observer)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	// The rate the rule reads is the engine's, over the send stamps of the
	// agreed stream, so it is the same at every replica.
	p := Plan{Phases: profile}
	if rule != nil {
		p.Control = &Control{Policies: []policy.Policy{rule}}
	}
	out, err := s.Run(p)
	if err != nil {
		return 0, fmt.Errorf("fig6: %w", err)
	}
	return out.Results[0].Throughput(), nil
}

// ---------------------------------------------------------------- Figure 7

// Fig7Point is one configuration of the Figure 7 sweep.
type Fig7Point struct {
	Style           replication.Style
	Replicas        int
	Clients         int
	MeanLatency     vtime.Duration
	Jitter          vtime.Duration
	BandwidthMBs    float64
	FaultsTolerated int
	Throughput      float64
}

// RunFig7 sweeps {active, warm-passive} × replicas × clients, measuring
// mean latency (Figure 7a) and bandwidth (Figure 7b) for each point.
func RunFig7(o Options, maxReplicas, maxClients int) ([]Fig7Point, error) {
	var points []Fig7Point
	for _, style := range []replication.Style{replication.Active, replication.WarmPassive} {
		for r := 1; r <= maxReplicas; r++ {
			for c := 1; c <= maxClients; c++ {
				p, err := RunFig7ForConfig(o, style, r, c)
				if err != nil {
					return nil, fmt.Errorf("fig7 %s r=%d c=%d: %w", style, r, c, err)
				}
				points = append(points, p)
			}
		}
	}
	return points, nil
}

// RunFig7ForConfig measures a single configuration of the sweep.
func RunFig7ForConfig(o Options, style replication.Style, replicas, clients int) (Fig7Point, error) {
	s, err := NewScenario(o, style, replicas, clients, nil)
	if err != nil {
		return Fig7Point{}, err
	}
	defer s.Close()

	out, err := s.Run(Plan{})
	if err != nil {
		return Fig7Point{}, err
	}
	var all hist.Snapshot
	var maxEnd vtime.Time
	total := 0
	for _, r := range out.Results {
		total += r.Requests
		if r.EndVT.After(maxEnd) {
			maxEnd = r.EndVT
		}
		all.Merge(r.Latency.Snapshot())
	}
	// Replicas off the clients' critical path may still be replying, in
	// real time, when the last client finishes; that traffic is the run's.
	// A reply leaves inside the execution that makes it, so the bytes are
	// all counted once every replica has caught up.
	if err := s.Settle(10 * time.Second); err != nil {
		return Fig7Point{}, err
	}
	bytes := s.net.Stats().BytesSent
	span := maxEnd.Sub(0)
	return Fig7Point{
		Style:           style,
		Replicas:        replicas,
		Clients:         clients,
		MeanLatency:     vtime.Duration(all.Mean()),
		Jitter:          vtime.Duration(all.StdDev()),
		BandwidthMBs:    monitor.Bandwidth(bytes, span),
		FaultsTolerated: replicas - 1,
		Throughput:      float64(total) / span.Seconds(),
	}, nil
}

// ---------------------------------------------------------------- Table 2

// Table2Row pairs the knobs policy row with its source point.
type Table2Row = knobs.PolicyRow

// RunTable2 applies the §4.3 scalability-knob selection to a Figure 7
// dataset.
func RunTable2(points []Fig7Point, req knobs.Requirements, maxClients int) ([]Table2Row, []int) {
	ms := make([]knobs.Measurement, 0, len(points))
	for _, p := range points {
		ms = append(ms, knobs.Measurement{
			Config: knobs.LowLevel{
				Style:    p.Style,
				Replicas: p.Replicas,
			},
			Clients:   p.Clients,
			Latency:   p.MeanLatency,
			Jitter:    p.Jitter,
			Bandwidth: p.BandwidthMBs,
		})
	}
	return knobs.ScalabilityPolicy(ms, maxClients, req)
}

// ---------------------------------------------------------------- Figure 9

// Fig9Point is a configuration in the normalized dependability design
// space of Figure 9: each axis scaled to its maximum over the dataset.
type Fig9Point struct {
	Style          replication.Style
	Replicas       int
	Clients        int
	FaultTolerance float64 // faults tolerated / max
	Performance    float64 // (1/latency) / max(1/latency)
	Resources      float64 // bandwidth / max
}

// RunFig9 normalizes a Figure 7 dataset into the design space of Figure 9.
func RunFig9(points []Fig7Point) []Fig9Point {
	var maxFT float64
	var maxPerf float64
	var maxBW float64
	for _, p := range points {
		if f := float64(p.FaultsTolerated); f > maxFT {
			maxFT = f
		}
		if p.MeanLatency > 0 {
			if perf := 1 / p.MeanLatency.Seconds(); perf > maxPerf {
				maxPerf = perf
			}
		}
		if p.BandwidthMBs > maxBW {
			maxBW = p.BandwidthMBs
		}
	}
	out := make([]Fig9Point, 0, len(points))
	for _, p := range points {
		fp := Fig9Point{Style: p.Style, Replicas: p.Replicas, Clients: p.Clients}
		if maxFT > 0 {
			fp.FaultTolerance = float64(p.FaultsTolerated) / maxFT
		}
		if maxPerf > 0 && p.MeanLatency > 0 {
			fp.Performance = (1 / p.MeanLatency.Seconds()) / maxPerf
		}
		if maxBW > 0 {
			fp.Resources = p.BandwidthMBs / maxBW
		}
		out = append(out, fp)
	}
	return out
}

// ------------------------------------------------------------ Switch delay

// SwitchDelayResult quantifies the §4.2 claim that the switch delay is
// comparable to the average response time.
type SwitchDelayResult struct {
	MeanRTT      vtime.Duration
	SwitchDelays []vtime.Duration
}

// RunSwitchDelay measures passive→active switch completion times under
// load against the average response time.
func RunSwitchDelay(o Options, switches int) (*SwitchDelayResult, error) {
	var mu sync.Mutex
	var delays []vtime.Duration
	observer := func(n replication.Notice) {
		if n.Kind == replication.NoticeSwitchDone && n.Delay > 0 {
			mu.Lock()
			delays = append(delays, n.Delay)
			mu.Unlock()
		}
	}
	s, err := NewScenario(o, replication.WarmPassive, 3, 1, observer)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// A switch every per replies, alternating targets. A refused one (a
	// switch still in flight) multicasts nothing, so only an accepted one
	// is waited for.
	var p Plan
	targets := [2]replication.Style{replication.Active, replication.WarmPassive}
	for k := 1; k <= switches; k++ {
		p.Events = append(p.Events, Event{At: k * max(o.Requests/(switches+1), 5), Switch: targets[(k-1)%2]})
	}
	out, err := s.Run(p)
	if err != nil {
		return nil, err
	}
	requested, last := 0, replication.WarmPassive
	for _, f := range out.Fired {
		if f.Err == nil {
			requested, last = requested+1, f.Switch
		}
	}
	// The last switch may still be completing at replicas off the
	// client's path; its delay is the run's.
	if err := s.group.Await(10*time.Second, func(recs map[string]replication.Stats) bool {
		for _, r := range recs {
			if r.Switches < requested || r.Style != last {
				return false
			}
		}
		return true
	}); err != nil {
		return nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	return &SwitchDelayResult{
		MeanRTT:      vtime.Duration(out.Results[0].Latency.Snapshot().Mean()),
		SwitchDelays: slices.Clone(delays),
	}, nil
}
