// Package chaos turns the repertoire of individual fault actions into
// reproducible campaigns: a Spec names the fault classes to compose and
// their intensities, and Plan expands it — under a seed — into a concrete
// timed schedule of injections and paired heals against a replica group.
//
// The paper's thesis is that dependability must be tuned against the fault
// environment actually observed; the campaign engine is the test-side
// counterpart: it manufactures a controlled fault environment covering the
// full §3.1 taxonomy (crash faults, transient communication faults —
// loss, duplication, reordering, corruption, partitions — and timing
// faults) and makes it replayable bit-for-bit from its seed, so a failing
// run is a bug report, not an anecdote.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"versadep/internal/faults"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// Spec selects fault classes and intensities for a campaign. The zero
// value injects nothing; DefaultSpec composes every class at moderate
// intensity.
type Spec struct {
	// Rule carries the per-message classes. Drop, Dup, Reorder and Corrupt
	// are probabilities applied fabric-wide for a window of the campaign;
	// Delay is added to one replica's outbound links for a window (0
	// disables a class). On a live node the whole Rule applies to every
	// outbound message for the whole run.
	transport.Rule
	// Partitions is how many transient partition blips to script.
	Partitions int
	// Crashes is how many replicas to kill (permanently) during the
	// campaign. Plan caps it so at least two replicas survive.
	Crashes int
}

// DefaultSpec composes all fault classes at intensities a healthy group
// rides out: losses within retransmission budgets, blips within detector
// tolerance, and enough survivors to converge.
func DefaultSpec() Spec {
	return Spec{
		Rule: transport.Rule{
			Drop:    0.10,
			Dup:     0.10,
			Reorder: 0.10,
			Corrupt: 0.05,
			Delay:   2 * vtime.Millisecond,
		},
		Partitions: 1,
		Crashes:    1,
	}
}

// String renders the spec in the form ParseSpec accepts.
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", s.Drop)
	add("dup", s.Dup)
	add("reorder", s.Reorder)
	add("corrupt", s.Corrupt)
	if s.Delay > 0 {
		// Exact decimal milliseconds, so the delay parses back to itself.
		ms := fmt.Sprintf("%d.%06d", int64(s.Delay/vtime.Millisecond), int64(s.Delay%vtime.Millisecond))
		parts = append(parts, "delay="+strings.TrimSuffix(strings.TrimRight(ms, "0"), "."))
	}
	add("partition", float64(s.Partitions))
	add("crash", float64(s.Crashes))
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses "SPEC" or "SPEC:SEED" (the -chaos flag syntax). SPEC is
// "all", "none", or a comma list of class[=value] terms: drop, dup,
// reorder, corrupt (probabilities in [0,1]), delay (milliseconds), partition
// and crash (whole counts). A bare class takes its DefaultSpec intensity.
// The seed defaults to 1. Values the campaign cannot honour — not finite,
// negative, a probability above 1, a delay past vtime.Duration's range, a
// fractional count — are errors.
func ParseSpec(arg string) (Spec, uint64, error) {
	spec := arg
	seed := uint64(1)
	if i := strings.LastIndex(arg, ":"); i >= 0 {
		var err error
		seed, err = strconv.ParseUint(arg[i+1:], 10, 64)
		if err != nil {
			return Spec{}, 0, fmt.Errorf("chaos: bad seed %q: %w", arg[i+1:], err)
		}
		spec = arg[:i]
	}
	switch spec {
	case "", "all":
		return DefaultSpec(), seed, nil
	case "none":
		return Spec{}, seed, nil
	}
	// A bare class reads its value from DefaultSpec's rendering, which
	// names every class.
	defaults := map[string]string{}
	for _, term := range strings.Split(DefaultSpec().String(), ",") {
		name, val, _ := strings.Cut(term, "=")
		defaults[name] = val
	}
	var out Spec
	for _, term := range strings.Split(spec, ",") {
		name, valStr, hasVal := strings.Cut(strings.TrimSpace(term), "=")
		if _, known := defaults[name]; !known {
			return Spec{}, 0, fmt.Errorf("chaos: unknown fault class %q", name)
		}
		if !hasVal {
			valStr = defaults[name]
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil || !(val >= 0) || math.IsInf(val, 0) {
			return Spec{}, 0, fmt.Errorf("chaos: bad value in %q", term)
		}
		whole := val == math.Trunc(val) && val <= math.MaxInt32
		ns := val * float64(vtime.Millisecond)
		var ok bool
		switch name {
		case "drop":
			out.Drop, ok = val, val <= 1
		case "dup":
			out.Dup, ok = val, val <= 1
		case "reorder":
			out.Reorder, ok = val, val <= 1
		case "corrupt":
			out.Corrupt, ok = val, val <= 1
		case "delay":
			out.Delay, ok = vtime.Duration(ns), ns < math.MaxInt64
			if d, err := time.ParseDuration(valStr + "ms"); err == nil {
				out.Delay = d // a plain decimal converts exactly
			}
		case "partition":
			out.Partitions, ok = int(val), whole
		case "crash":
			out.Crashes, ok = int(val), whole
		}
		if !ok {
			return Spec{}, 0, fmt.Errorf("chaos: value out of range in %q", term)
		}
	}
	return out, seed, nil
}

// Targets scopes a plan to a concrete system.
type Targets struct {
	// Replicas are the group member addresses. The first is never crashed
	// (the harness anchors observation on it), and crashes leave at least
	// two replicas alive.
	Replicas []string
	// Duration is the campaign window; every fault is injected and (for
	// the transient classes) healed inside it, with a final heal-all step
	// at the end.
	Duration time.Duration
}

// Plan expands the spec into a deterministic fault schedule: identical
// (spec, seed, targets) always yield an identical script — same steps,
// same names, same times. Transient classes get paired inject/heal steps;
// a trailing chaos-heal-all clears every link rule and partition so the
// post-campaign convergence check runs on a clean fabric.
//
// The per-message classes open and close overlapping windows, but a link
// carries one whole rule. So every window step sets the rules in force at
// its instant: (*,*) gets the probabilities of the windows then open, and
// the delay victim's (victim,*) gets those and, while its window is open,
// the delay.
func (s Spec) Plan(seed uint64, t Targets) *faults.Schedule {
	r := vtime.NewRand(seed ^ 0x9e3779b97f4a7c15)
	d := t.Duration
	if d <= 0 {
		d = time.Second
	}
	// A step either runs act or, at a window edge, edits the open rule.
	type timed struct {
		at   time.Duration
		name string
		act  faults.Action
		edit func(*transport.Rule)
	}
	var steps []timed
	at := func(when time.Duration, name string, act faults.Action) {
		steps = append(steps, timed{at: when, name: name, act: act})
	}
	// window scripts one class's window — an onset in the first half and a
	// span covering a quarter to a half of the campaign, clipped inside it.
	window := func(onName, offName string, on, off func(*transport.Rule)) {
		start := time.Duration(r.Float64() * float64(d) / 2)
		end := start + d/4 + time.Duration(r.Float64()*float64(d)/4)
		if end > d*9/10 {
			end = d * 9 / 10
		}
		steps = append(steps, timed{at: start, name: onName, edit: on}, timed{at: end, name: offName, edit: off})
	}
	prob := func(class string, p float64, field func(*transport.Rule) *float64) {
		if p > 0 {
			window(fmt.Sprintf("chaos-%s-on(%g)", class, p), "chaos-"+class+"-off",
				func(rule *transport.Rule) { *field(rule) = p },
				func(rule *transport.Rule) { *field(rule) = 0 })
		}
	}
	prob("drop", s.Drop, func(rule *transport.Rule) *float64 { return &rule.Drop })
	prob("dup", s.Dup, func(rule *transport.Rule) *float64 { return &rule.Dup })
	prob("reorder", s.Reorder, func(rule *transport.Rule) *float64 { return &rule.Reorder })
	prob("corrupt", s.Corrupt, func(rule *transport.Rule) *float64 { return &rule.Corrupt })
	victim := ""
	if s.Delay > 0 && len(t.Replicas) > 0 {
		victim = t.Replicas[r.Intn(len(t.Replicas))]
		window(fmt.Sprintf("chaos-delay-on(%s)", victim), fmt.Sprintf("chaos-delay-off(%s)", victim),
			func(rule *transport.Rule) { rule.Delay = s.Delay },
			func(rule *transport.Rule) { rule.Delay = 0 })
	}
	for i := 0; i < s.Partitions && len(t.Replicas) > 0; i++ {
		victim := t.Replicas[r.Intn(len(t.Replicas))]
		on := time.Duration(r.Float64() * float64(d) * 3 / 4)
		// Blips span the detector's interesting range: some ride inside
		// the accrual tolerance, some long enough to force an exclusion
		// and rejoin.
		span := 80*time.Millisecond + time.Duration(r.Float64()*float64(270*time.Millisecond))
		off := on + span
		if off > d*9/10 {
			off = d * 9 / 10
		}
		at(on, fmt.Sprintf("chaos-partition(%s)", victim), faults.Partition(victim, i+1))
		at(off, fmt.Sprintf("chaos-partition-heal(%s)", victim), faults.HealAddr(victim))
	}
	if s.Crashes > 0 && len(t.Replicas) > 2 {
		// Sample victims without replacement from everyone but the
		// anchor, keeping at least two replicas alive.
		pool := append([]string(nil), t.Replicas[1:]...)
		n := s.Crashes
		if max := len(t.Replicas) - 2; n > max {
			n = max
		}
		for i := 0; i < n; i++ {
			j := r.Intn(len(pool))
			victim := pool[j]
			pool = append(pool[:j], pool[j+1:]...)
			when := d/4 + time.Duration(r.Float64()*float64(d)/2)
			at(when, fmt.Sprintf("chaos-crash(%s)", victim), faults.Crash(victim))
		}
	}
	at(d, "chaos-heal-all", faults.Heal())

	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	var open transport.Rule
	var sched faults.Schedule
	for _, st := range steps {
		if st.edit != nil {
			st.edit(&open)
			victimRule, fabric := open, open
			fabric.Delay = 0
			st.act = func(n *simnet.Network) {
				n.SetLink("*", "*", fabric)
				if victim != "" {
					n.SetLink(victim, "*", victimRule)
				}
			}
		}
		sched.At(st.at, st.name, st.act)
	}
	return &sched
}
