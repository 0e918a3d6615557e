package experiment

import (
	"fmt"
	"strings"
	"time"

	"versadep/internal/faults"
	"versadep/internal/obsplane"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/transport"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// DefaultSLOSpec is the objective the SLO grading experiment evaluates:
// 99% of requests under 10ms and 99.9% availability, per 25ms virtual
// window. The latency threshold sits a few× above the replicated
// steady-state p99, so a clean surge passes while the degraded scenario's
// injected timing fault (5ms of extra link delay per hop) lands squarely
// above it.
const DefaultSLOSpec = "p99<10ms,avail>0.999:25ms"

// SLOScenarioResult is one graded load scenario.
type SLOScenarioResult struct {
	// Name identifies the scenario ("surge", "partition-surge").
	Name string `json:"name"`
	// Partition reports whether mid-surge faults were injected.
	Partition bool `json:"partition"`
	// Requests and Errors are the load generator's outcome totals.
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Attainment is the whole-run minimum objective attainment.
	Attainment float64 `json:"attainment"`
	// BurnRate is the whole-run error-budget burn rate.
	BurnRate float64 `json:"burn_rate"`
	// PeakBurnRate is the hottest single SLO window of the run.
	PeakBurnRate float64 `json:"peak_burn_rate"`
	// Compliant reports every objective met over the whole run.
	Compliant bool `json:"compliant"`
	// Objectives carries the per-objective whole-run detail.
	Objectives []obsplane.ObjectiveStatus `json:"objectives"`
	// P99Micros and MeanMicros summarize the run's latency series.
	P99Micros  int64   `json:"p99_us"`
	MeanMicros float64 `json:"mean_us"`
	// Timelines counts stitched request timelines; CrossNode those
	// spanning more than one node; FailedOver those crossing a failover.
	Timelines  int `json:"timelines"`
	CrossNode  int `json:"cross_node_timelines"`
	FailedOver int `json:"failed_over_timelines"`
	// Suspicions is the failure detectors' suspicion total (the partition
	// scenario's fingerprint; zero on a clean run).
	Suspicions int64 `json:"suspicions"`
	// Actuations counts budget-burn controller actions taken mid-run.
	Actuations int `json:"actuations"`
	// FinalStyle is the replication style at the end of the run (the
	// budget-burn policy may have escalated it).
	FinalStyle string `json:"final_style"`
}

// SLOBenchResult is the committed benchmark artifact: both scenarios plus
// the top-level attainment/burn scalars CI tracks.
type SLOBenchResult struct {
	Spec string `json:"spec"`
	Seed uint64 `json:"seed"`
	// Attainment is the worst scenario's whole-run attainment.
	Attainment float64 `json:"attainment"`
	// BurnRate is the hottest scenario's whole-run burn rate.
	BurnRate float64 `json:"burn_rate"`
	// PeakBurnRate is the hottest single SLO window across scenarios.
	PeakBurnRate float64 `json:"peak_burn_rate"`
	// Passed reports that the clean surge met the SLO (the degraded
	// scenario is expected to burn budget; it is graded, not gated).
	Passed    bool                `json:"passed"`
	Scenarios []SLOScenarioResult `json:"scenarios"`
}

// sloPhases is the Figure 6-shaped arrival profile both scenarios run:
// steady base load, a 4× surge, then base load again. The surge rate
// sits just under the group's virtual-time capacity (~450 req/s at the
// calibrated cost model: ordering, execution and the per-5-requests
// checkpoint all serialize on the primary's virtual CPU, so sustained
// arrivals above that build an unbounded virtual queue). The surge
// stresses the group without tipping it into overload, which keeps the
// clean run compliant and makes the degraded run's burn attributable to
// the injected faults.
func sloPhases() []workload.Phase {
	return []workload.Phase{
		{Rate: 100, Requests: 80},
		{Rate: 400, Requests: 240},
		{Rate: 100, Requests: 80},
	}
}

// sloPace is the open-loop real-time pacing: half real speed keeps the
// whole 2.2s-virtual profile under ~1.1s of wall clock, long enough that
// the degraded scenario's real-time fault hold overlaps the load it is
// meant to degrade.
const sloPace = 500 * time.Millisecond

// RunSLOScenario drives the surge profile against a warm-passive group
// while the observability plane grades it: every reply and error lands in
// a time-series store at its virtual arrival instant, an SLO engine
// evaluates the spec per window, and a budget-burn policy controller
// (burn=2:0.25) escalates the replication style if the budget burns hot.
//
// When partition is true the run degrades mid-surge: after 250 replies a
// timing fault adds 5ms of virtual delay to every link and the rank-2
// backup is partitioned away; the faults heal after a real-time hold long
// enough for the failure detectors to suspect the silent backup. The
// injection is keyed to reply counts, so it always lands inside the surge
// phase regardless of wall-clock speed.
func RunSLOScenario(o Options, spec obsplane.Spec, name string, partition bool) (*SLOScenarioResult, error) {
	const replicas = 3
	scn, err := NewScenario(o, replication.WarmPassive, replicas, 1, nil)
	if err != nil {
		return nil, err
	}
	defer scn.Close()

	plan := Plan{
		Open:     sloPhases(),
		RealPace: sloPace,
		SLO:      obsplane.NewEngine(obsplane.NewStore(spec.BucketWidth(), obsplane.SLORetain), spec),
		Control: &Control{
			// MaxReplicas == current size keeps the escalation to a style
			// switch: growing a replica mid-partition would entangle the
			// grade with state-transfer timing, which has its own
			// experiments.
			Policies: []policy.Policy{policy.BudgetBurn{Hot: 2, Calm: 0.25, MaxReplicas: replicas}},
			Every:    25,
			Cooldown: 50 * time.Millisecond,
		},
	}
	if partition {
		plan.Events = []Event{{At: 250, Faults: new(faults.Schedule).
			At(0, "delay 5ms", faults.SetLink("*", "*", transport.Rule{Delay: 5 * vtime.Millisecond})).
			At(0, "partition replica-c", faults.Partition("replica-c", 1)).
			At(200*time.Millisecond, "heal", faults.Heal())}}
	}
	out, err := scn.Run(plan)
	if err != nil {
		return nil, err
	}
	load := out.Results[0]
	res := &SLOScenarioResult{Name: name, Partition: partition, Requests: load.Requests, Errors: load.Errors,
		Attainment: out.SLO.Attainment, BurnRate: out.SLO.BurnRate, PeakBurnRate: out.SLO.PeakBurnRate,
		Objectives: out.SLO.Objectives, Compliant: true, Actuations: out.Control.Actuations,
		P99Micros: out.Latency.Quantile(0.99), MeanMicros: out.Latency.Mean()}
	for _, ob := range out.SLO.Objectives {
		if !ob.Compliant {
			res.Compliant = false
		}
	}

	// Feed every node's final snapshot through the aggregator: the merged
	// view yields the stitched cross-node timelines and the cluster
	// counters (suspicions) the result reports.
	agg := obsplane.NewAggregator(spec.BucketWidth(), obsplane.SLORetain)
	endAt := int64(load.EndVT)
	for _, n := range scn.group.Nodes() {
		agg.Ingest(n.Addr(), endAt, n.TraceSnapshot())
	}
	for _, c := range scn.group.Clients() {
		agg.Ingest(c.Addr(), endAt, c.TraceSnapshot())
	}
	merged := agg.Merged()
	res.Suspicions = merged.Counters["gcs.heartbeat_misses"]
	for _, tl := range obsplane.Stitch(merged.Spans) {
		res.Timelines++
		if len(tl.Nodes) > 1 {
			res.CrossNode++
		}
		if tl.FailedOver {
			res.FailedOver++
		}
	}
	res.FinalStyle = scn.Style().String()
	return res, nil
}

// RunSLOBench runs both graded scenarios — a clean surge and a
// partition-during-surge — against the same spec and folds them into the
// committed benchmark artifact. A nil spec grades against DefaultSLOSpec.
func RunSLOBench(o Options, spec *obsplane.Spec) (*SLOBenchResult, error) {
	if spec == nil {
		def, err := obsplane.ParseSLO(DefaultSLOSpec)
		if err != nil {
			return nil, err
		}
		spec = &def
	}
	res := &SLOBenchResult{Spec: spec.Raw, Seed: o.Seed, Attainment: 1}
	surge, err := RunSLOScenario(o, *spec, "surge", false)
	if err != nil {
		return nil, err
	}
	degraded, err := RunSLOScenario(o, *spec, "partition-surge", true)
	if err != nil {
		return nil, err
	}
	res.Scenarios = []SLOScenarioResult{*surge, *degraded}
	res.Passed = surge.Compliant
	for _, sc := range res.Scenarios {
		if sc.Attainment < res.Attainment {
			res.Attainment = sc.Attainment
		}
		if sc.BurnRate > res.BurnRate {
			res.BurnRate = sc.BurnRate
		}
		if sc.PeakBurnRate > res.PeakBurnRate {
			res.PeakBurnRate = sc.PeakBurnRate
		}
	}
	return res, nil
}

// RenderSLO renders the grading table.
func RenderSLO(r *SLOBenchResult) string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "SLO grading (%s, seed %d): %s\n", r.Spec, r.Seed, verdict)
	fmt.Fprintf(&b, "  %-16s %6s %5s %9s %7s %9s %8s %7s %6s %6s\n",
		"scenario", "req", "err", "attain", "burn", "peakburn", "p99(µs)", "tlines", "xnode", "susp")
	for _, sc := range r.Scenarios {
		fmt.Fprintf(&b, "  %-16s %6d %5d %9.4f %7.2f %9.2f %8d %7d %6d %6d\n",
			sc.Name, sc.Requests, sc.Errors, sc.Attainment, sc.BurnRate, sc.PeakBurnRate,
			sc.P99Micros, sc.Timelines, sc.CrossNode, sc.Suspicions)
	}
	for _, sc := range r.Scenarios {
		fmt.Fprintf(&b, "  %s: final style %s, %d controller actuations\n",
			sc.Name, sc.FinalStyle, sc.Actuations)
	}
	return b.String()
}
