// Command vdsim runs a single versatile-dependability scenario from flags:
// a replica group, a set of closed-loop clients, and optional mid-run
// events (crash a replica, switch the replication style), printing the
// measured latency/bandwidth/fault-tolerance outcome.
//
// Examples:
//
//	vdsim -style active -replicas 3 -clients 2 -requests 500
//	vdsim -style warm-passive -replicas 3 -crash-primary-at 200
//	vdsim -style warm-passive -switch-to active -switch-at 250
//	vdsim -style active -replicas 2 -grow-at 100 -retire-at 300
//	vdsim -style active -clients 4 -adapt rate=2000:500
//
// -switch-to, -detector, -chaos, -slo and -adapt are parsed by the packages
// that own their grammars while the command line is parsed, so a malformed
// one exits with status 2 and the usage before any scenario boots.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"versadep/internal/experiment"
	"versadep/internal/faults/chaos"
	"versadep/internal/gcs"
	"versadep/internal/introspect"
	"versadep/internal/obsplane"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

var (
	styleName = flag.String("style", "active", "replication style: active, warm-passive, cold-passive")
	replicas  = flag.Int("replicas", 3, "number of replicas")
	clients   = flag.Int("clients", 1, "number of closed-loop clients")
	requests  = flag.Int("requests", 500, "requests per client")
	ckpt      = flag.Int("checkpoint-every", 5, "checkpoint frequency (passive styles)")
	seed      = flag.Uint64("seed", 1, "deterministic seed")
	switchAt  = flag.Int("switch-at", 0, "request index at which to switch")
	crashAt   = flag.Int("crash-primary-at", 0, "request index at which to crash the rank-0 replica")
	traceDump = flag.Bool("trace", false, "dump the merged trace-counter registry as JSON on exit")
	spanDump  = flag.Int("spans", 0, "print causal span timelines for the first N request traces plus all protocol phases")
	growAt    = flag.Int("grow-at", 0, "request index at which to spawn one fresh replica (live join + state transfer)")
	retireAt  = flag.Int("retire-at", 0, "request index at which to gracefully retire the highest-ranked replica")
	cooldown  = flag.Duration("adapt-cooldown", 200*time.Millisecond, "per-knob cooldown between controller actuations")
	stateB    = flag.Int("state-bytes", 0, "application state size in bytes (0 = harness default; sets the joiner transfer volume)")
	xferChunk = flag.Int("transfer-chunk", 0, "joiner state-transfer chunk size in bytes (0 = engine default)")
	chaosFor  = flag.Duration("chaos-for", 500*time.Millisecond, "chaos schedule window (faults injected and healed inside it)")
	intro     = flag.String("introspect", "", "host:port for a live introspection endpoint over the running simulation (/metrics, /trace, and /slo when -slo is set)")
	timelines = flag.Int("timelines", 0, "print the first N stitched cross-node request timelines")
	shards    = flag.Int("shards", 1, "shard the object space over N independent replica groups (active replication, -replicas each) and drive an open-loop sharded client across them; >1 switches to sharded mode and ignores the mid-run event flags")
)

// The spec flags, each set inside flag.Parse by its owner's parser.
var (
	switchTo  replication.Style // zero without -switch-to
	gcsCfg    *gcs.Config       // the group defaults with -detector's threshold
	chaosSpec *chaos.Spec
	chaosSeed uint64
	sloSpec   obsplane.Spec   // Raw is "" without -slo
	policies  []policy.Policy // -adapt, in priority order
)

func main() {
	specFlag(&switchTo, "switch-to", "style to switch to mid-run", replication.ParseStyle)
	specFlag(&gcsCfg, "detector", "failure detector: \"phi\" or \"phi:THRESH\" (accrual suspicion) or \"timeout\" (fixed silence window only); default = group default", func(s string) (*gcs.Config, error) {
		g := gcs.DefaultConfig()
		phi, err := gcs.ParseDetector(s)
		g.PhiThreshold = phi
		return &g, err
	})
	specFlag(&chaosSpec, "chaos", "inject a deterministic chaos schedule during the run, \"SPEC[:SEED]\" (e.g. \"all:7\" or \"drop=0.1,partition=1\"; see internal/faults/chaos)", func(s string) (*chaos.Spec, error) {
		spec, seed, err := chaos.ParseSpec(s)
		chaosSeed = seed
		return &spec, err
	})
	specFlag(&sloSpec, "slo", "grade the run against an SLO spec, e.g. \"p99<10ms,avail>0.999:25ms\" (windows are virtual time)", obsplane.ParseSLO)
	specFlag(&policies, "adapt", "comma-separated policy specs driving an autonomic controller, e.g. rate=2000:500,avail=0.995:5,bwcap=3.0 (see internal/policy)", policy.ParseSpec)
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vdsim:", err)
		os.Exit(1)
	}
}

// specFlag defines a flag that parse reads into *dst. An empty value
// leaves the flag unset, as leaving it out does.
func specFlag[T any](dst *T, name, usage string, parse func(string) (T, error)) {
	flag.Func(name, usage, func(s string) (err error) {
		if s != "" {
			*dst, err = parse(s)
		}
		return err
	})
}

func run() error {
	style, err := replication.ParseStyle(*styleName)
	if err != nil {
		return err
	}

	o := experiment.DefaultOptions()
	o.Requests = *requests
	o.Seed = *seed
	o.CheckpointEvery = *ckpt
	if *stateB > 0 {
		o.StateBytes = *stateB
	}
	o.TransferChunkBytes = *xferChunk
	o.GCS = gcsCfg

	if *shards > 1 {
		return runSharded(o)
	}

	var mu sync.Mutex
	var notices []replication.Notice
	observer := func(n replication.Notice) {
		if n.Kind == replication.NoticeRequest {
			return
		}
		mu.Lock()
		notices = append(notices, n)
		mu.Unlock()
	}

	scn, err := experiment.NewScenario(o, style, *replicas, *clients, observer)
	if err != nil {
		return err
	}
	defer scn.Close()

	fmt.Printf("scenario: %s, %d replicas, %d clients, %d requests/client\n",
		style, *replicas, *clients, *requests)

	// A flag left at 0, or -switch-at without -switch-to, fires nothing.
	var plan experiment.Plan
	for _, ev := range []experiment.Event{
		{At: *switchAt, Switch: switchTo},
		{At: *crashAt, CrashPrimary: true},
		{At: *growAt, Grow: true},
		{At: *retireAt, Retire: true},
	} {
		if ev.At > 0 && ev != (experiment.Event{At: ev.At}) {
			plan.Events = append(plan.Events, ev)
		}
	}
	if chaosSpec != nil {
		sched := chaosSpec.Plan(chaosSeed, chaos.Targets{Replicas: scn.Members(), Duration: *chaosFor})
		plan.Events = append(plan.Events, experiment.Event{Faults: sched})
		fmt.Printf("chaos schedule (%d steps over %v):\n", len(sched.Steps()), *chaosFor)
		for _, st := range sched.Steps() {
			fmt.Printf("  %v %s\n", st.After, st.Name)
		}
	}

	// SLO grading: every reply lands in a windowed store at its virtual
	// send instant; the engine evaluates the spec per window and the whole
	// run at the end.
	if sloSpec.Raw != "" {
		plan.SLO = obsplane.NewEngine(obsplane.NewStore(sloSpec.BucketWidth(), obsplane.SLORetain), sloSpec)
	}

	if *intro != "" {
		var iOpts []introspect.Option
		if plan.SLO != nil {
			iOpts = append(iOpts, introspect.WithJSON("/slo", func() any { return plan.SLO.Status() }))
		}
		srv, err := introspect.Start(*intro, scn.TraceSnapshot, iOpts...)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("introspection at http://%s/ (/metrics, /trace%s)\n",
			srv.Addr(), map[bool]string{true: ", /slo"}[plan.SLO != nil])
	}

	if policies != nil {
		// Step at a coarse cadence so each step sees fresh rate and
		// tail-latency samples rather than per-request noise.
		plan.Control = &experiment.Control{Policies: policies, Every: 25, Cooldown: *cooldown,
			OnEntry: func(e policy.Entry) {
				if e.Err != "" {
					fmt.Printf("  [policy %s] %s %s failed: %s\n", e.Policy, e.Knob, e.Action, e.Err)
					return
				}
				fmt.Printf("  [policy %s] %s: %s (%s)\n", e.Policy, e.Knob, e.Action, e.Reason)
			}}
	}

	out, err := scn.Run(plan)
	printFired(out.Fired)
	if err != nil {
		return err
	}
	if err := scn.Settle(10 * time.Second); err != nil {
		return err
	}

	st := out.Results[0].Latency.Snapshot()
	fmt.Printf("\nresults over %d requests:\n", st.Count)
	fmt.Printf("  latency  mean %.1fµs  jitter %.1fµs  p99 %.1fµs\n",
		vtime.Duration(st.Mean()).Seconds()*1e6, vtime.Duration(st.StdDev()).Seconds()*1e6,
		vtime.Duration(st.Quantile(0.99)).Seconds()*1e6)
	fmt.Printf("  bandwidth %.3f MB/s\n", scn.BandwidthMBs())
	fmt.Printf("  final style %s, faults tolerated %d\n", scn.Style(), len(scn.Members())-1)

	if plan.SLO != nil {
		overall := out.SLO
		verdict := "MET"
		for _, ob := range overall.Objectives {
			if !ob.Compliant {
				verdict = "VIOLATED"
			}
		}
		fmt.Printf("\nSLO %s: %s\n", overall.Spec.Raw, verdict)
		fmt.Printf("  attainment %.4f  burn %.2f  peak-window burn %.2f\n",
			overall.Attainment, overall.BurnRate, overall.PeakBurnRate)
		for _, ob := range overall.Objectives {
			fmt.Printf("  %-14s attainment %.4f (target %.4f)\n",
				ob.Objective.Name, ob.Attainment, ob.Objective.Target)
		}
	}

	if *timelines > 0 {
		printStitched(scn.TraceSnapshot(), *timelines)
	}

	if *traceDump {
		fmt.Printf("\ntrace:\n%s\n", scn.TraceSnapshot().JSON())
	}
	if *spanDump > 0 {
		printSpans(scn.TraceSnapshot(), *spanDump)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(notices) > 0 {
		printNotices(notices)
	}
	return nil
}

// printFired reports the events the run fired, at the reply index each
// fired at.
func printFired(fired []experiment.Fired) {
	for _, f := range fired {
		var what, failed string
		switch {
		case f.Switch != 0:
			what, failed = "switching to "+f.Switch.String(), "switch to "+f.Switch.String()
		case f.CrashPrimary:
			what, failed = "crashing rank-0 replica", "crash"
		case f.Grow:
			what, failed = "spawned "+f.Addr+" (live join + state transfer)", "grow"
		case f.Retire:
			what, failed = "retiring highest-ranked replica", "retire"
		default:
			continue // the chaos schedule, listed before the run
		}
		if f.Err != nil {
			what = fmt.Sprintf("%s failed: %v", failed, f.Err)
		}
		fmt.Printf("  [req %d] %s\n", f.At, what)
	}
}

// runSharded drives the sharded-deployment scenario: N independent
// active-replicated groups behind a consistent-hash routing tier, one
// open-loop client spraying the object keyspace across them. It prints
// the aggregate throughput and the per-shard load/latency split — the
// scale-out counterpart of the single-group closed-loop run.
func runSharded(o experiment.Options) error {
	fmt.Printf("scenario: %d shards × %d replicas (active), %d requests open-loop\n",
		*shards, *replicas, o.Requests)
	p, err := experiment.RunShardPoint(o, *shards, *replicas)
	if err != nil {
		return err
	}
	fmt.Printf("\nresults over %d requests (%d errors):\n", p.Requests, p.Errors)
	fmt.Printf("  aggregate throughput %.1f req/s (virtual)\n", p.ThroughputRPS)
	for _, s := range p.PerShard {
		fmt.Printf("  shard %d: %5d requests  mean %9.1fµs  p99 %9.1fµs\n",
			s.Shard, s.Requests, s.MeanMicros, s.P99Micros)
	}
	if p.Errors > 0 {
		return fmt.Errorf("%d requests failed", p.Errors)
	}
	return nil
}

// printStitched renders the first maxReq stitched cross-node request
// timelines: which nodes each request touched, where it executed, and
// whether it crossed a failover.
func printStitched(snap trace.Snapshot, maxReq int) {
	tls := obsplane.Stitch(snap.Spans)
	fmt.Printf("\nstitched timelines: %d requests\n", len(tls))
	shown := tls
	if len(shown) > maxReq {
		fmt.Printf("  (showing first %d; raise -timelines for more)\n", maxReq)
		shown = shown[:maxReq]
	}
	for _, tl := range shown {
		mark := ""
		if tl.FailedOver {
			mark = "  FAILED-OVER"
		}
		fmt.Printf("  %-24s %8.1fµs  nodes=%s  executed-on=%s%s\n",
			tl.Trace, tl.Duration().Seconds()*1e6,
			strings.Join(tl.Nodes, ","), strings.Join(tl.Executors, ","), mark)
	}
}

// printSpans renders per-request causal timelines (the paper's Figure 3
// round-trip breakdown, reconstructed from spans) for the first maxReq
// request traces, then every protocol-phase trace (switches, failovers,
// checkpoints) in full.
func printSpans(snap trace.Snapshot, maxReq int) {
	spans := snap.Spans
	var reqs, protos []string
	for _, tk := range span.Traces(spans) {
		if strings.HasPrefix(tk, "req:") {
			reqs = append(reqs, tk)
		} else {
			protos = append(protos, tk)
		}
	}
	fmt.Printf("\nspans: %d recorded (%d dropped, %d still open), %d request traces\n",
		len(spans), snap.SpansDropped, snap.SpansOpen, len(reqs))
	if len(reqs) > maxReq {
		fmt.Printf("  (showing first %d request traces; raise -spans for more)\n", maxReq)
		reqs = reqs[:maxReq]
	}
	for _, tk := range reqs {
		printTimeline(spans, tk)
		bd := span.Breakdown(spans, tk)
		comps := make([]string, 0, len(bd))
		for c := range bd {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		fmt.Printf("    breakdown:")
		for _, c := range comps {
			fmt.Printf(" %s=%.1fµs", c, bd[c].Seconds()*1e6)
		}
		fmt.Println()
	}
	for _, tk := range protos {
		printTimeline(spans, tk)
	}
}

func printTimeline(spans []span.Span, tk string) {
	tl := span.Timeline(spans, tk)
	fmt.Printf("  %s\n", tk)
	for _, s := range tl {
		line := fmt.Sprintf("    %-12s %-20s %10s → %-10s %8.1fµs",
			s.Node, s.Name, s.Start, s.End, s.Duration().Seconds()*1e6)
		if s.Comp != "" {
			line += "  [" + s.Comp + "]"
		}
		if s.Note != "" {
			line += "  (" + s.Note + ")"
		}
		if s.Value != 0 {
			line += fmt.Sprintf("  value=%d", s.Value)
		}
		fmt.Println(line)
	}
}

func printNotices(notices []replication.Notice) {
	fmt.Println("\nevents:")
	for _, n := range notices {
		switch n.Kind {
		case replication.NoticeSwitchStart:
			fmt.Printf("  %-10s switch to %s starting at t=%s\n", n.Addr, n.Style, n.VT)
		case replication.NoticeSwitchDone:
			fmt.Printf("  %-10s switch to %s done (delay %.1fµs)\n",
				n.Addr, n.Style, n.Delay.Seconds()*1e6)
		case replication.NoticeFailover:
			fmt.Printf("  %-10s failover complete (recovery %.1fµs)\n",
				n.Addr, n.Delay.Seconds()*1e6)
		case replication.NoticeRetire:
			fmt.Printf("  %-10s retirement directive for %s\n", n.Addr, n.Peer)
		case replication.NoticeView:
			fmt.Printf("  %-10s view change: %d members (%d crashed)\n",
				n.Addr, n.Members, n.Crashed)
		case replication.NoticeCheckpoint:
			// Checkpoints are frequent; summarize only.
		}
	}
}
