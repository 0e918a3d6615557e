package experiment

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"versadep/internal/faults/chaos"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/trace"
	"versadep/internal/workload"
)

// ChaosConfig parameterizes a chaos campaign: N seeded runs of the same
// fault composition against a fresh system each time.
type ChaosConfig struct {
	// Spec is the fault composition injected each run.
	Spec chaos.Spec
	// Seed derives every run's fault schedule and fabric jitter
	// (run i uses Seed+i); the same Seed replays the same campaign.
	Seed uint64
	// Runs is how many seeded runs to grade.
	Runs int
	// Duration is the per-run fault window (default 900ms of real time —
	// long enough for a crash, its detection, a view change and a heal).
	Duration time.Duration
	// Style, Replicas, Clients shape the system under test.
	Style    replication.Style
	Replicas int
	Clients  int
}

// withDefaults fills the unset fields: one run of 900 ms against three
// active replicas and two clients.
func (cc ChaosConfig) withDefaults() ChaosConfig {
	if cc.Runs <= 0 {
		cc.Runs = 1
	}
	if cc.Duration <= 0 {
		cc.Duration = 900 * time.Millisecond
	}
	if cc.Replicas <= 0 {
		cc.Replicas = 3
	}
	if cc.Clients <= 0 {
		cc.Clients = 2
	}
	if cc.Style == 0 {
		cc.Style = replication.Active
	}
	return cc
}

// ChaosRun is one graded campaign run.
type ChaosRun struct {
	Seed           uint64   `json:"seed"`
	Acked          int      `json:"acked"`
	StepsFired     []string `json:"steps_fired"`
	Crashed        int      `json:"crashed"`
	CorruptWire    int64    `json:"corrupt_wire"`    // frames damaged by the fabric
	CorruptDropped int64    `json:"corrupt_dropped"` // frames caught and dropped by checksums
	Suspicions     int64    `json:"suspicions"`      // heartbeat misses while the faults ran
	Violations     []string `json:"violations,omitempty"`
}

// ChaosReport aggregates a campaign.
type ChaosReport struct {
	Spec       string     `json:"spec"`
	Seed       uint64     `json:"seed"`
	Runs       []ChaosRun `json:"runs"`
	Violations []string   `json:"violations,omitempty"` // run-labeled, empty on a clean campaign
}

// Passed reports whether every run upheld every invariant.
func (r *ChaosReport) Passed() bool { return len(r.Violations) == 0 }

// TotalCorruptDropped sums checksum drops across runs.
func (r *ChaosReport) TotalCorruptDropped() int64 {
	var total int64
	for _, run := range r.Runs {
		total += run.CorruptDropped
	}
	return total
}

// RunChaosCampaign executes cc.Runs seeded chaos runs and grades four hard
// invariants after each:
//
//  1. exactly-once: every acknowledged client request is reflected exactly
//     once in every surviving replica's state (counter == acked);
//  2. convergence: after the final heal, every live replica — including
//     partitioned ones that rejoined — holds byte-identical state;
//  3. no leaked protocol phases: the merged causal-span ledger quiesces to
//     zero open spans;
//  4. no goroutine leaks: after teardown the process returns to its
//     pre-run goroutine census.
//
// A violation does not stop the campaign; it is recorded per run and
// surfaced in the report.
func RunChaosCampaign(o Options, cc ChaosConfig) (*ChaosReport, error) {
	cc = cc.withDefaults()
	report := &ChaosReport{Spec: cc.Spec.String(), Seed: cc.Seed}
	for run := 0; run < cc.Runs; run++ {
		runSeed := cc.Seed + uint64(run)
		res, err := runChaosOnce(o, cc, runSeed)
		if err != nil {
			return report, fmt.Errorf("chaos run %d (seed %d): %w", run, runSeed, err)
		}
		report.Runs = append(report.Runs, *res)
		for _, v := range res.Violations {
			report.Violations = append(report.Violations, fmt.Sprintf("run %d (seed %d): %s", run, runSeed, v))
		}
	}
	return report, nil
}

func runChaosOnce(o Options, cc ChaosConfig, runSeed uint64) (*ChaosRun, error) {
	baseline := runtime.NumGoroutine()
	o.Seed = runSeed
	s, err := NewScenario(o, cc.Style, cc.Replicas, cc.Clients, nil)
	if err != nil {
		return nil, err
	}
	res := &ChaosRun{Seed: runSeed}

	// Closed-loop clients hammer the group for the whole fault window;
	// every successful reply is a durability promise the grading holds the
	// group to.
	members := s.Members()
	plan := cc.Spec.Plan(runSeed, chaos.Targets{Replicas: members, Duration: cc.Duration})
	out, err := s.Run(Plan{UntilFaults: true, Events: []Event{{Faults: plan}}})
	if err != nil {
		res.Violations = append(res.Violations, err.Error())
	}
	for _, st := range plan.Steps() {
		res.StepsFired = append(res.StepsFired, st.Name)
	}
	for _, r := range out.Results {
		res.Acked += r.Requests
	}
	res.Suspicions = s.TraceSnapshot().Get(trace.SubGCS, "heartbeat_misses")
	acked := res.Acked

	for _, m := range members {
		if s.net.Crashed(m) {
			res.Crashed++
		}
	}

	// Invariants 1+2: every live replica converges to counter == acked
	// with byte-identical state. They are checked once the survivors have
	// caught up with each other.
	expectLive := len(members) - res.Crashed
	if err := s.group.Await(10*time.Second, func(recs map[string]replication.Stats) bool {
		return len(recs) == expectLive && replicator.CaughtUp(recs)
	}); err != nil {
		res.Violations = append(res.Violations, err.Error())
	}
	var refState []byte
	for i, n := range s.group.Live() {
		app := n.State().(*workload.BenchApp)
		if got := app.Counter(); got != int64(acked) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("replica %s counter %d != %d acked requests", n.Addr(), got, acked))
		}
		if st := app.State(); i == 0 {
			refState = st
		} else if !bytes.Equal(st, refState) {
			res.Violations = append(res.Violations, fmt.Sprintf("replica %s state diverged after heal", n.Addr()))
		}
	}

	// Corruption accounting: the fabric says how many frames it damaged,
	// the checksum layer how many it caught.
	res.CorruptWire = s.net.Stats().MessagesCorrupted

	// Corruption caught at checksum layers, counted across every process —
	// crashed replicas' drops count too.
	res.CorruptDropped = s.TraceSnapshot().Get(trace.SubTransport, "corrupt_frames_dropped")

	// Invariant 3: the causal-span ledger quiesces on every surviving
	// process — no protocol phase leaked its closer. (A crashed replica
	// legitimately dies mid-span; survivors must still close theirs.)
	var snaps []trace.Snapshot
	for _, n := range s.group.Live() {
		snaps = append(snaps, n.TraceSnapshot())
	}
	for _, c := range s.group.Clients() {
		snaps = append(snaps, c.TraceSnapshot())
	}
	if open := trace.Merge(snaps...).SpansOpen; open != 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d causal spans still open on survivors after quiesce", open))
	}

	s.Close()

	// Invariant 4: teardown returns the process to its pre-run goroutine
	// census (small slack for runtime background churn).
	if !poll(5*time.Second, 20*time.Millisecond, func() bool {
		return runtime.NumGoroutine() <= baseline+5
	}) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("goroutines leaked: %d after teardown, baseline %d", runtime.NumGoroutine(), baseline))
	}
	return res, nil
}

// ChaosBenchResult is the chaos/robustness perf-trajectory point: the
// campaign verdict plus the failure-detector's measured quality.
type ChaosBenchResult struct {
	Spec             string  `json:"spec"`
	Seed             uint64  `json:"seed"`
	Runs             int     `json:"runs"`
	Passed           bool    `json:"passed"`
	Violations       int     `json:"violations"`
	AckedTotal       int     `json:"acked_total"`
	CorruptWire      int64   `json:"corrupt_wire"`
	CorruptDropped   int64   `json:"corrupt_dropped"`
	DetectP50Ms      float64 `json:"detect_p50_ms"`
	DetectP99Ms      float64 `json:"detect_p99_ms"`
	FalseSuspectRuns int     `json:"false_suspect_runs"`
	FalseSuspectOf   int     `json:"false_suspect_of"`
}

// RunChaosBench runs the full robustness evaluation: a seeded chaos
// campaign over every fault class, a crash-detection latency sweep, and a
// false-suspicion count under a perturbation-only (spike) schedule where a
// healthy accrual detector must suspect nobody. The raw campaign report is
// returned alongside the summary for violation listings.
func RunChaosBench(o Options, runs int, seed uint64) (*ChaosBenchResult, *ChaosReport, error) {
	if runs <= 0 {
		runs = 20
	}
	cc := ChaosConfig{
		Spec:     chaos.DefaultSpec(),
		Seed:     seed,
		Runs:     runs,
		Duration: 700 * time.Millisecond,
		Replicas: 3,
		Clients:  2,
	}
	report, err := RunChaosCampaign(o, cc)
	if err != nil {
		return nil, report, err
	}
	res := &ChaosBenchResult{
		Spec:           report.Spec,
		Seed:           seed,
		Runs:           runs,
		Passed:         report.Passed(),
		Violations:     len(report.Violations),
		CorruptDropped: report.TotalCorruptDropped(),
	}
	for _, run := range report.Runs {
		res.AckedTotal += run.Acked
		res.CorruptWire += run.CorruptWire
	}

	detRuns := runs
	if detRuns > 10 {
		detRuns = 10
	}
	samples, err := MeasureDetectionLatency(o, 3, detRuns, seed)
	if err != nil {
		return nil, report, err
	}
	lats := make([]time.Duration, len(samples))
	for i, s := range samples {
		lats[i] = s.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		idx := int(p * float64(len(lats)-1))
		return float64(lats[idx]) / float64(time.Millisecond)
	}
	res.DetectP50Ms = pct(0.50)
	res.DetectP99Ms = pct(0.99)

	fsRuns := runs
	if fsRuns > 5 {
		fsRuns = 5
	}
	fcc := cc
	fcc.Runs = fsRuns
	suspectRuns, total, err := MeasureFalseSuspicion(o, fcc)
	if err != nil {
		return nil, report, err
	}
	res.FalseSuspectRuns = suspectRuns
	res.FalseSuspectOf = total
	return res, report, nil
}

// RenderChaos renders the campaign verdict and detector quality, with every
// violation listed when the campaign failed.
func RenderChaos(r *ChaosBenchResult, report *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos campaign (%s, seed %d, %d runs)\n", r.Spec, r.Seed, r.Runs)
	verdict := "PASS"
	if !r.Passed {
		verdict = fmt.Sprintf("FAIL (%d violations)", r.Violations)
	}
	fmt.Fprintf(&b, "  invariants:        %s — exactly-once, convergence, span quiesce, goroutine census\n", verdict)
	fmt.Fprintf(&b, "  acked requests:    %d across all runs\n", r.AckedTotal)
	fmt.Fprintf(&b, "  wire corruption:   %d frames damaged, %d caught+dropped by checksums\n", r.CorruptWire, r.CorruptDropped)
	fmt.Fprintf(&b, "  crash detection:   p50 %.1f ms, p99 %.1f ms\n", r.DetectP50Ms, r.DetectP99Ms)
	fmt.Fprintf(&b, "  false suspicions:  %d of %d perturbation-only runs\n", r.FalseSuspectRuns, r.FalseSuspectOf)
	if report != nil {
		for _, v := range report.Violations {
			fmt.Fprintf(&b, "  violation: %s\n", v)
		}
	}
	return b.String()
}

// DetectionSample is one crash-to-suspicion measurement.
type DetectionSample struct {
	Seed    uint64        `json:"seed"`
	Latency time.Duration `json:"latency"`
}

// MeasureDetectionLatency runs `runs` seeded kill experiments against an
// otherwise idle group and measures real time from the kill to the first
// survivor suspecting (or excluding) the victim. suspectAfter==0 uses the
// stock config (accrual detection on).
func MeasureDetectionLatency(o Options, replicas, runs int, seed uint64) ([]DetectionSample, error) {
	if replicas < 3 {
		replicas = 3
	}
	var out []DetectionSample
	for run := 0; run < runs; run++ {
		o.Seed = seed + uint64(run)
		s, err := NewScenario(o, replication.Active, replicas, 0, nil)
		if err != nil {
			return out, err
		}
		// Let the detectors calibrate on the heartbeat rhythm.
		time.Sleep(400 * time.Millisecond)
		members := s.Members()
		victim := members[len(members)-1]
		start := time.Now()
		s.net.Crash(victim)
		detected := poll(5*time.Second, 2*time.Millisecond, func() bool {
			for _, n := range s.group.Live() {
				for _, sus := range n.Member().Suspects() {
					if sus == victim {
						return true
					}
				}
				if v, err := n.Member().View(); err == nil && !v.Contains(victim) {
					return true
				}
			}
			return false
		})
		lat := time.Since(start)
		s.Close()
		if !detected {
			return out, fmt.Errorf("chaos: crash of %s never detected (seed %d)", victim, o.Seed)
		}
		out = append(out, DetectionSample{Seed: o.Seed, Latency: lat})
	}
	return out, nil
}

// MeasureFalseSuspicion runs a campaign of cc.Runs seeded runs under a
// perturbation-only schedule — loss, duplication, reordering, corruption and
// a timing fault, but no crash and no partition — and counts runs in which
// any member recorded a suspicion. With accrual detection every suspicion
// here is false (nothing died), so a healthy detector scores zero.
func MeasureFalseSuspicion(o Options, cc ChaosConfig) (suspectRuns int, total int, err error) {
	cc.Spec.Crashes, cc.Spec.Partitions = 0, 0
	report, err := RunChaosCampaign(o, cc)
	for _, run := range report.Runs {
		if run.Suspicions > 0 {
			suspectRuns++
		}
	}
	return suspectRuns, len(report.Runs), err
}
