package obsplane

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"versadep/internal/policy"
)

// ObjKind distinguishes the objective families of the SLO grammar.
type ObjKind int

const (
	// ObjLatency is a quantile objective: pQQ<THRESHOLD (e.g. p99<5ms),
	// met by a request when it completes within the threshold.
	ObjLatency ObjKind = iota
	// ObjAvail is an availability objective: avail>FRACTION, met when the
	// good/(good+bad) outcome ratio stays above the target.
	ObjAvail
)

// Objective is one clause of an SLO spec.
type Objective struct {
	Kind ObjKind `json:"-"`
	// Name is the clause as written ("p99<5ms", "avail>0.999").
	Name string `json:"name"`
	// Quantile is the latency objective's quantile in (0,1) (e.g. 0.99);
	// unused for availability.
	Quantile float64 `json:"quantile,omitempty"`
	// ThresholdMicros is the latency threshold in µs; unused for
	// availability.
	ThresholdMicros int64 `json:"threshold_us,omitempty"`
	// Target is the attainment target in (0,1): the quantile itself for
	// latency objectives (p99 ⇒ 0.99), the availability fraction for
	// avail objectives.
	Target float64 `json:"target"`
}

// Spec is a parsed SLO: a set of objectives evaluated over a window.
type Spec struct {
	// Raw is the spec as written.
	Raw string `json:"raw"`
	// Window is the evaluation window.
	Window time.Duration `json:"window"`
	// Objectives are the clauses, in spec order.
	Objectives []Objective `json:"objectives"`
}

// ParseSLO parses the SLO spec grammar:
//
//	SPEC      = CLAUSES ":" WINDOW
//	CLAUSES   = CLAUSE ("," CLAUSE)*
//	CLAUSE    = "p" QQ "<" DURATION      quantile latency bound (p50…p999)
//	          | "avail" ">" FRACTION     availability floor
//	WINDOW    = Go duration (e.g. "30s")
//
// Example: "p99<5ms,avail>0.999:30s" — 99% of requests under 5ms and
// 99.9% availability, evaluated per 30-second window.
func ParseSLO(spec string) (Spec, error) {
	raw := spec
	i := strings.LastIndexByte(spec, ':')
	if i < 0 {
		return Spec{}, fmt.Errorf("obsplane: SLO spec %q missing \":WINDOW\"", raw)
	}
	win, err := time.ParseDuration(spec[i+1:])
	if err != nil || win <= 0 {
		return Spec{}, fmt.Errorf("obsplane: bad SLO window %q in %q", spec[i+1:], raw)
	}
	out := Spec{Raw: raw, Window: win}
	for _, clause := range strings.Split(spec[:i], ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		switch {
		case strings.HasPrefix(clause, "p"):
			qs, ds, ok := strings.Cut(clause[1:], "<")
			if !ok {
				return Spec{}, fmt.Errorf("obsplane: latency clause %q wants pQQ<DURATION", clause)
			}
			qi, err := strconv.Atoi(qs)
			if err != nil || qi <= 0 {
				return Spec{}, fmt.Errorf("obsplane: bad quantile %q in %q", qs, clause)
			}
			// p99 ⇒ 0.99, p999 ⇒ 0.999: digits after "p" are a decimal
			// fraction's digits.
			q := float64(qi) / math.Pow(10, float64(len(qs)))
			if q <= 0 || q >= 1 {
				return Spec{}, fmt.Errorf("obsplane: quantile %q out of (0,1) in %q", qs, clause)
			}
			d, err := time.ParseDuration(ds)
			if err != nil || d <= 0 {
				return Spec{}, fmt.Errorf("obsplane: bad latency threshold %q in %q", ds, clause)
			}
			out.Objectives = append(out.Objectives, Objective{
				Kind: ObjLatency, Name: clause,
				Quantile: q, ThresholdMicros: d.Microseconds(), Target: q,
			})
		case strings.HasPrefix(clause, "avail"):
			_, fs, ok := strings.Cut(clause, ">")
			if !ok {
				return Spec{}, fmt.Errorf("obsplane: avail clause %q wants avail>FRACTION", clause)
			}
			f, err := strconv.ParseFloat(fs, 64)
			if err != nil || f <= 0 || f >= 1 {
				return Spec{}, fmt.Errorf("obsplane: bad availability %q in %q", fs, clause)
			}
			out.Objectives = append(out.Objectives, Objective{
				Kind: ObjAvail, Name: clause, Target: f,
			})
		default:
			return Spec{}, fmt.Errorf("obsplane: unknown SLO clause %q (want pQQ<DUR or avail>FRAC)", clause)
		}
	}
	if len(out.Objectives) == 0 {
		return Spec{}, fmt.Errorf("obsplane: SLO spec %q has no objectives", raw)
	}
	return out, nil
}

// ObjectiveStatus is one objective's evaluation over a window span.
type ObjectiveStatus struct {
	Objective Objective `json:"objective"`
	// Events is the number of observations graded.
	Events int64 `json:"events"`
	// Attainment is the fraction of events meeting the objective, in
	// [0,1]; 1 when no events were graded (an idle window burns nothing).
	Attainment float64 `json:"attainment"`
	// Compliant reports Attainment >= Target.
	Compliant bool `json:"compliant"`
	// BurnRate is the error-budget burn rate: the ratio of the observed
	// bad fraction to the budgeted bad fraction (1-Target). 1.0 consumes
	// the budget exactly at the sustainable pace; >1 exhausts it early.
	BurnRate float64 `json:"burn_rate"`
}

// Status is a full SLO evaluation: per-objective detail plus the scalar
// rollups (worst attainment, hottest burn) the policy layer consumes.
type Status struct {
	Spec Spec `json:"spec"`
	// Evaluated is false before any gradeable events exist.
	Evaluated bool `json:"evaluated"`
	// Objectives are the per-objective evaluations over the last window.
	Objectives []ObjectiveStatus `json:"objectives"`
	// Attainment is the minimum objective attainment over the last
	// window (1 when idle).
	Attainment float64 `json:"attainment"`
	// BurnRate is the maximum objective burn rate over the last window.
	BurnRate float64 `json:"burn_rate"`
	// PeakBurnRate is the hottest per-window burn across the retained
	// history — what a postmortem reads after a surge has passed.
	PeakBurnRate float64 `json:"peak_burn_rate"`
	// Windows is the number of retained windows evaluated for the peak.
	Windows int `json:"windows"`
}

// Engine evaluates a Spec against a Store's series. The series names
// default to the aggregator's cluster series; embedders recording their
// own outcomes can point the engine at any series triple.
type Engine struct {
	store *Store
	spec  Spec
	// latency is the series of per-request latencies in µs.
	latency string
	// good and bad are the series of success / failure outcome events
	// (Count per window is what matters; values are ignored).
	good, bad string
	// perWindow is how many store windows one SLO window spans.
	perWindow int
}

// Series names the aggregator derives and the engine reads by default.
const (
	SeriesLatencyMicros = "rtt_us"
	SeriesGood          = "req_ok"
	SeriesBad           = "req_err"
	SeriesExecMicros    = "exec_us"
	SeriesSuspicion     = "suspicion"
	SeriesTransferBytes = "transfer_bytes"
	SeriesRate          = "requests"
)

// NewEngine builds an SLO engine over store. The store's window width
// subdivides the spec window; an SLO evaluation rolls up
// ceil(spec.Window/width) store windows.
func NewEngine(store *Store, spec Spec) *Engine {
	e := &Engine{
		store:   store,
		spec:    spec,
		latency: SeriesLatencyMicros,
		good:    SeriesGood,
		bad:     SeriesBad,
	}
	w := store.Width()
	if w <= 0 {
		w = spec.Window.Nanoseconds()
	}
	e.perWindow = int((spec.Window.Nanoseconds() + w - 1) / w)
	if e.perWindow < 1 {
		e.perWindow = 1
	}
	return e
}

// Store is the store the engine grades.
func (e *Engine) Store() *Store { return e.store }

// SetSeries repoints the engine at custom latency/good/bad series names
// (empty strings keep the current name).
func (e *Engine) SetSeries(latency, good, bad string) {
	if latency != "" {
		e.latency = latency
	}
	if good != "" {
		e.good = good
	}
	if bad != "" {
		e.bad = bad
	}
}

// evalObjective grades one objective over a latency rollup and outcome
// counts.
func evalObjective(o Objective, lat WindowStat, good, bad int64) ObjectiveStatus {
	st := ObjectiveStatus{Objective: o, Attainment: 1}
	switch o.Kind {
	case ObjLatency:
		st.Events = lat.Count
		if lat.Count > 0 {
			st.Attainment = lat.Hist.FractionBelow(o.ThresholdMicros)
		}
	case ObjAvail:
		st.Events = good + bad
		if st.Events > 0 {
			st.Attainment = float64(good) / float64(st.Events)
		}
	}
	st.Compliant = st.Attainment >= o.Target
	if budget := 1 - o.Target; budget > 0 {
		st.BurnRate = (1 - st.Attainment) / budget
	} else if st.Attainment < 1 {
		st.BurnRate = math.Inf(1)
	}
	return st
}

// evalAll grades every objective against a latency rollup and outcome
// counts, folding the per-objective results into a Status's scalars.
func (e *Engine) evalAll(lat WindowStat, good, bad int64) Status {
	out := Status{Spec: e.spec, Attainment: 1}
	for _, o := range e.spec.Objectives {
		st := evalObjective(o, lat, good, bad)
		out.Objectives = append(out.Objectives, st)
		if st.Events > 0 {
			out.Evaluated = true
		}
		if st.Attainment < out.Attainment {
			out.Attainment = st.Attainment
		}
		if st.BurnRate > out.BurnRate {
			out.BurnRate = st.BurnRate
		}
	}
	return out
}

// Overall evaluates the spec across the entire retained history — the
// whole-run grade a benchmark reports, as opposed to Status's sliding
// current window.
func (e *Engine) Overall() Status {
	if e == nil || e.store == nil {
		return Status{Attainment: 1}
	}
	lat := e.store.Rollup(e.latency, 0)
	good := e.store.Rollup(e.good, 0).Sum
	bad := e.store.Rollup(e.bad, 0).Sum
	out := e.evalAll(lat, good, bad)
	out.PeakBurnRate, out.Windows = e.peakBurn()
	if out.PeakBurnRate < out.BurnRate {
		out.PeakBurnRate = out.BurnRate
	}
	return out
}

// Status evaluates the spec: the per-objective detail over the most
// recent SLO window, plus the peak per-window burn across the retained
// history.
func (e *Engine) Status() Status {
	out := Status{Spec: e.spec, Attainment: 1}
	if e == nil || e.store == nil {
		return out
	}
	// The "current" SLO window is aligned by time across the three series:
	// the newest window start any of them reached, minus the spec window.
	// A per-series last-N rollup would let a series that went quiet (the
	// error counter after an outage ends) keep contributing its stale
	// newest window forever.
	var newest int64
	seen := false
	for _, name := range []string{e.latency, e.good, e.bad} {
		if st, ok := e.store.NewestStart(name); ok && (!seen || st > newest) {
			newest, seen = st, true
		}
	}
	minStart := newest - int64(e.perWindow-1)*e.store.Width()
	// Outcome series carry event counts as values (Observe(name, at, n)
	// means "n outcomes at this instant"), so Sum — not Count — is the
	// event total; recorders and scrape-delta ingest agree on that
	// convention.
	lat := e.store.RollupSince(e.latency, minStart)
	good := e.store.RollupSince(e.good, minStart).Sum
	bad := e.store.RollupSince(e.bad, minStart).Sum
	out = e.evalAll(lat, good, bad)
	out.PeakBurnRate, out.Windows = e.peakBurn()
	if out.PeakBurnRate < out.BurnRate {
		out.PeakBurnRate = out.BurnRate
	}
	return out
}

// peakBurn scans the retained history in SLO-window strides and returns
// the hottest per-stride burn rate plus the number of store windows
// scanned.
func (e *Engine) peakBurn() (float64, int) {
	latW := e.store.Windows(e.latency)
	goodW := e.store.Windows(e.good)
	badW := e.store.Windows(e.bad)
	n := len(latW)
	if len(goodW) > n {
		n = len(goodW)
	}
	if len(badW) > n {
		n = len(badW)
	}
	if n == 0 {
		return 0, 0
	}
	// Index windows by start instant so the three series align even when
	// they began recording at different times.
	type bucket struct {
		lat       WindowStat
		good, bad int64
	}
	byStart := make(map[int64]*bucket)
	get := func(start int64) *bucket {
		b := byStart[start]
		if b == nil {
			b = &bucket{}
			byStart[start] = b
		}
		return b
	}
	for _, w := range latW {
		get(w.Start).lat.Merge(w)
	}
	for _, w := range goodW {
		get(w.Start).good += w.Sum
	}
	for _, w := range badW {
		get(w.Start).bad += w.Sum
	}
	starts := make([]int64, 0, len(byStart))
	for s := range byStart {
		starts = append(starts, s)
	}
	slices.Sort(starts)
	peak := 0.0
	for i := 0; i < len(starts); i += e.perWindow {
		var lat WindowStat
		var good, bad int64
		for j := i; j < len(starts) && j < i+e.perWindow; j++ {
			b := byStart[starts[j]]
			lat.Merge(b.lat)
			good += b.good
			bad += b.bad
		}
		for _, o := range e.spec.Objectives {
			if st := evalObjective(o, lat, good, bad); st.Events > 0 && st.BurnRate > peak {
				peak = st.BurnRate
			}
		}
	}
	return peak, n
}

// Signals decorates a policy sampler with the engine's current SLO
// evaluation, so a controller stack can include budget-burn policies
// without the policy package knowing about the plane.
func (e *Engine) Signals(sample func() policy.Signals) func() policy.Signals {
	return func() policy.Signals {
		var sig policy.Signals
		if sample != nil {
			sig = sample()
		}
		st := e.Status()
		if st.Evaluated {
			sig.SLOAttainment = st.Attainment
			sig.SLOBurnRate = st.BurnRate
		}
		return sig
	}
}
