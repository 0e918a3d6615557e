// Package policy closes the paper's adaptation loop (§2, §5): it watches
// the live signals the stack already produces — request arrival rate,
// latency quantiles, observed fault rate, bandwidth — and turns the three
// low-level dependability knobs at runtime: the replication style (via the
// Figure 5 switch protocol), the checkpointing frequency, and the number
// of replicas (via runtime replica elasticity: totally ordered joins and
// graceful retirements).
//
// A Policy is one adaptation rule mapping Signals to a Decision; a
// Controller stacks policies in priority order, merges their decisions
// per knob (highest priority wins, fault-tolerance floors always beat
// resource pressure), damps flapping with a per-knob cooldown, and
// actuates through an Actuator. Every actuation lands in a bounded
// decision log served at the /policy introspection endpoint.
package policy

import (
	"fmt"
	"strconv"
	"strings"

	"versadep/internal/knobs"
	"versadep/internal/replication"
)

// Signals is one sample of the system state a policy decides over.
type Signals struct {
	// Rate is the request arrival rate in requests per (virtual) second,
	// from the engine's deterministic sliding window.
	Rate float64 `json:"rate"`
	// P99Micros is the tail of the per-request replica turnaround in µs,
	// from the replication.exec_us histogram.
	P99Micros int64 `json:"p99_us"`
	// Style is the current replication style.
	Style replication.Style `json:"style"`
	// Replicas is the current group size.
	Replicas int `json:"replicas"`
	// CheckpointEvery is the current checkpointing frequency.
	CheckpointEvery int `json:"checkpoint_every"`
	// BandwidthMBs is the measured network usage in MB/s (0 = unmetered).
	BandwidthMBs float64 `json:"bandwidth_mbs"`
	// ReplicaAvailability is the observed per-replica availability
	// estimate in (0,1], derived from the crash rate seen in view changes
	// (0 = no observation yet).
	ReplicaAvailability float64 `json:"replica_availability"`
	// SLOAttainment and SLOBurnRate are the observability plane's SLO
	// evaluation over the last window: the worst objective attainment in
	// [0,1] and the hottest error-budget burn rate (1.0 = consuming the
	// budget exactly at the sustainable pace). Both zero when no SLO
	// engine feeds the sampler or nothing has been graded yet.
	SLOAttainment float64 `json:"slo_attainment,omitempty"`
	SLOBurnRate   float64 `json:"slo_burn_rate,omitempty"`
}

// Decision is one policy's opinion on the low-level knobs. Zero fields
// mean "no opinion": the controller falls through to the next policy.
type Decision struct {
	// Style is the replication style to adopt (0 = leave unchanged).
	Style replication.Style
	// Replicas is the absolute replica-count target (0 = no opinion).
	Replicas int
	// MinReplicas is a fault-tolerance floor this policy insists on even
	// when it requests no change itself: lower-priority policies cannot
	// shed the group below the highest floor in the stack.
	MinReplicas int
	// CheckpointEvery is the checkpoint interval to adopt (0 = unchanged).
	CheckpointEvery int
	// Reason explains the decision for the decision log.
	Reason string
}

// Policy is one adaptation rule. Decide must be a pure function of its
// input: the controller calls it on every step, and a decision over
// signals derived from the agreed stream (the request rate) is then the
// same wherever and whenever it is taken at one stream position.
type Policy interface {
	Name() string
	Decide(sig Signals) Decision
}

// ---------------------------------------------------------------- RateStyle

// RateStyle is the paper's Figure 6 policy generalized: switch to active
// replication when the arrival rate exceeds High, fall back to warm
// passive below Low. The High/Low gap is explicit hysteresis; the
// controller's cooldown adds time-domain damping on top, so load
// oscillating exactly around a threshold produces at most one switch per
// cooldown window.
type RateStyle struct {
	// High and Low are the switching thresholds in requests per second.
	High, Low float64
}

// Name implements Policy.
func (RateStyle) Name() string { return "rate-style" }

// Decide implements Policy. The rate > 0 guard keeps the warm-up window
// (before the rate meter has two samples) from forcing a passive switch.
func (p RateStyle) Decide(sig Signals) Decision {
	if sig.Rate > p.High && sig.Style != replication.Active {
		return Decision{
			Style:  replication.Active,
			Reason: fmt.Sprintf("rate %.0f/s above %.0f: active replication", sig.Rate, p.High),
		}
	}
	if sig.Rate > 0 && sig.Rate < p.Low && sig.Style != replication.WarmPassive {
		return Decision{
			Style:  replication.WarmPassive,
			Reason: fmt.Sprintf("rate %.0f/s below %.0f: warm passive suffices", sig.Rate, p.Low),
		}
	}
	return Decision{}
}

// ------------------------------------------------------- AvailabilityTarget

// AvailabilityTarget drives the replica-count knob from the Table 1
// availability knob evaluated against the *observed* per-replica fault
// rate: as crashes push the availability estimate down, Plan demands more
// replicas and the controller grows the group by live state transfer;
// when the estimate recovers, the group shrinks back by graceful
// retirement. It always publishes the planned count as a MinReplicas
// floor, so resource-pressure policies below it can never shed the group
// out of its availability target.
type AvailabilityTarget struct {
	// Target is the system availability target in (0,1), e.g. 0.995.
	Target float64
	// Knob bounds the plan (MaxReplicas); its ReplicaAvailability field
	// is overwritten by the observed signal on every decision.
	Knob knobs.AvailabilityKnob
}

// Name implements Policy.
func (AvailabilityTarget) Name() string { return "availability-target" }

// Decide implements Policy.
func (p AvailabilityTarget) Decide(sig Signals) Decision {
	a := sig.ReplicaAvailability
	if a <= 0 {
		return Decision{} // no fault observations yet
	}
	if a >= 1 {
		a = 0.999999
	}
	k := p.Knob
	k.ReplicaAvailability = a
	maxR := k.MaxReplicas
	if maxR <= 0 {
		maxR = 5
	}
	ll, err := k.Plan(p.Target)
	if err != nil {
		// Unreachable target: hold the resource bound and say why (the
		// §4.3 "policy can no longer be honored" situation).
		d := Decision{
			MinReplicas: maxR,
			Reason: fmt.Sprintf("target %.4f unreachable at per-replica availability %.4f: holding %d replicas",
				p.Target, a, maxR),
		}
		if sig.Replicas != maxR {
			d.Replicas = maxR
		}
		return d
	}
	d := Decision{MinReplicas: ll.Replicas}
	if ll.Replicas != sig.Replicas {
		d.Replicas = ll.Replicas
		d.Reason = fmt.Sprintf("per-replica availability %.4f needs %d replicas for target %.4f (have %d)",
			a, ll.Replicas, p.Target, sig.Replicas)
	}
	return d
}

// ------------------------------------------------------------- ResourceCap

// ResourceCap sheds cost when bandwidth exceeds a budget: first it
// stretches the checkpoint interval (halving checkpoint traffic per
// doubling), then it retires one replica per step down to MinReplicas.
// Stack it below AvailabilityTarget: the controller clamps its shedding
// to the availability floor, so fault tolerance always wins over
// resource pressure.
type ResourceCap struct {
	// BandwidthMBs is the budget in MB/s (0 disables the policy).
	BandwidthMBs float64
	// MinReplicas is the shed floor (default 1).
	MinReplicas int
	// MaxCheckpointEvery bounds the interval stretching (default 50).
	MaxCheckpointEvery int
}

// Name implements Policy.
func (ResourceCap) Name() string { return "resource-cap" }

// Decide implements Policy.
func (p ResourceCap) Decide(sig Signals) Decision {
	if p.BandwidthMBs <= 0 || sig.BandwidthMBs <= p.BandwidthMBs {
		return Decision{}
	}
	if sig.Style.IsPassive() && sig.CheckpointEvery > 0 {
		maxE := p.MaxCheckpointEvery
		if maxE <= 0 {
			maxE = 50
		}
		if sig.CheckpointEvery < maxE {
			every := sig.CheckpointEvery * 2
			if every > maxE {
				every = maxE
			}
			return Decision{
				CheckpointEvery: every,
				Reason: fmt.Sprintf("bandwidth %.2f MB/s over %.2f budget: stretching checkpoint interval to %d",
					sig.BandwidthMBs, p.BandwidthMBs, every),
			}
		}
	}
	minR := p.MinReplicas
	if minR < 1 {
		minR = 1
	}
	if sig.Replicas > minR {
		return Decision{
			Replicas: sig.Replicas - 1,
			Reason: fmt.Sprintf("bandwidth %.2f MB/s over %.2f budget: shedding one replica",
				sig.BandwidthMBs, p.BandwidthMBs),
		}
	}
	return Decision{}
}

// -------------------------------------------------------------- BudgetBurn

// BudgetBurn reacts to SLO error-budget burn rather than raw rates: when
// the observability plane reports the budget burning hotter than Hot, it
// escalates dependability — first switching to active replication (no
// failover gap to burn latency budget on), then growing the group — and
// when the burn cools below Calm it relaxes back to warm passive. This
// is the paper's adaptation loop driven by the objective itself instead
// of a proxy signal: the same controller machinery, but the trigger is
// "we are eating our error budget", not "the rate crossed a number".
type BudgetBurn struct {
	// Hot is the burn rate above which to escalate (default 2: budget
	// exhausted in half the window at the current pace).
	Hot float64
	// Calm is the burn rate below which to relax (default 0.25).
	Calm float64
	// MaxReplicas bounds escalation growth (default 5).
	MaxReplicas int
}

// Name implements Policy.
func (BudgetBurn) Name() string { return "budget-burn" }

// Decide implements Policy. Without an SLO evaluation in the signals
// there is no opinion. That is the one case where attainment and burn
// are both zero: a window in which every request missed reads attainment
// 0 at the hottest burn, and is the case this rule exists for.
func (p BudgetBurn) Decide(sig Signals) Decision {
	if sig.SLOAttainment <= 0 && sig.SLOBurnRate <= 0 {
		return Decision{}
	}
	hot := p.Hot
	if hot <= 0 {
		hot = 2
	}
	calm := p.Calm
	if calm <= 0 {
		calm = 0.25
	}
	maxR := p.MaxReplicas
	if maxR <= 0 {
		maxR = 5
	}
	if sig.SLOBurnRate >= hot {
		if sig.Style != replication.Active {
			return Decision{
				Style: replication.Active,
				Reason: fmt.Sprintf("SLO burn %.2f above %.2f (attainment %.4f): active replication",
					sig.SLOBurnRate, hot, sig.SLOAttainment),
			}
		}
		if sig.Replicas > 0 && sig.Replicas < maxR {
			return Decision{
				Replicas:    sig.Replicas + 1,
				MinReplicas: sig.Replicas + 1,
				Reason: fmt.Sprintf("SLO burn %.2f above %.2f: growing to %d replicas",
					sig.SLOBurnRate, hot, sig.Replicas+1),
			}
		}
		// Already at maximum dependability: hold the floor so nothing
		// below this policy sheds capacity mid-burn.
		return Decision{MinReplicas: sig.Replicas}
	}
	if sig.SLOBurnRate <= calm && sig.Style == replication.Active {
		return Decision{
			Style: replication.WarmPassive,
			Reason: fmt.Sprintf("SLO burn %.2f below %.2f: warm passive suffices",
				sig.SLOBurnRate, calm),
		}
	}
	return Decision{}
}

// ---------------------------------------------------------------- ParseSpec

// specs is the policy grammar, one entry per rule name. Every argument
// is a number. The last of max arguments is an integer of at least 1 when
// intArg labels it; build receives it as n (0 when omitted) and the rest
// in f, padded with zeros to max, so an omitted field takes its default.
var specs = map[string]struct {
	usage    string
	min, max int
	intArg   string
	build    func(f []float64, n int) Policy
}{
	"rate": {"HIGH:LOW", 2, 2, "", func(f []float64, _ int) Policy {
		return RateStyle{High: f[0], Low: f[1]}
	}},
	"avail": {"TARGET[:MAXREPLICAS]", 1, 2, "max replicas", func(f []float64, n int) Policy {
		return AvailabilityTarget{Target: f[0], Knob: knobs.AvailabilityKnob{MaxReplicas: n}}
	}},
	"bwcap": {"MBS[:MINREPLICAS]", 1, 2, "min replicas", func(f []float64, n int) Policy {
		return ResourceCap{BandwidthMBs: f[0], MinReplicas: n}
	}},
	"burn": {"HOT[:CALM[:MAXREPLICAS]]", 1, 3, "max replicas", func(f []float64, n int) Policy {
		return BudgetBurn{Hot: f[0], Calm: f[1], MaxReplicas: n}
	}},
}

// ParseSpec builds a policy stack from a comma-separated spec in priority
// order (first entry = highest priority). Entries:
//
//	avail=TARGET[:MAXREPLICAS]     AvailabilityTarget (e.g. avail=0.995:5)
//	rate=HIGH:LOW                  RateStyle          (e.g. rate=500:250)
//	bwcap=MBS[:MINREPLICAS]        ResourceCap        (e.g. bwcap=3:2)
//	burn=HOT[:CALM[:MAXREPLICAS]]  BudgetBurn         (e.g. burn=2:0.25:5)
//
// Put avail before bwcap so the availability floor caps the shedding.
func ParseSpec(spec string) ([]Policy, error) {
	var out []Policy
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		p, err := parseEntry(entry)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("policy: empty spec")
	}
	return out, nil
}

// parseEntry builds the policy one name=args entry names.
func parseEntry(entry string) (Policy, error) {
	name, args, ok := strings.Cut(entry, "=")
	if !ok {
		return nil, fmt.Errorf("policy: bad spec entry %q (want name=args)", entry)
	}
	s, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (want rate, avail, bwcap, or burn)", name)
	}
	parts := strings.Split(args, ":")
	if len(parts) < s.min || len(parts) > s.max {
		return nil, fmt.Errorf("policy: %s wants %s in %q", name, s.usage, entry)
	}
	f, n := make([]float64, s.max), 0
	for i, part := range parts {
		var err error
		if i == s.max-1 && s.intArg != "" {
			if n, err = strconv.Atoi(part); err != nil || n < 1 {
				return nil, fmt.Errorf("policy: bad %s %q in %q", s.intArg, part, entry)
			}
		} else if f[i], err = strconv.ParseFloat(part, 64); err != nil {
			return nil, fmt.Errorf("policy: bad number %q in %q", part, entry)
		}
	}
	return s.build(f, n), nil
}
