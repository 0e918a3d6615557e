package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"versadep/internal/codec"
	"versadep/internal/replicator"
)

// roundOpts names one round: one fresh cluster, warmed up with a fixed
// request count and then measured for Seconds.
type roundOpts struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Round    int     `json:"round"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
}

// roundResult is what one round hands back for pooling. Everything additive
// is a plain sum over the measured window, so a workload's figure is
// Σ numerator / Σ acked over its rounds, never a mean of ratios.
type roundResult struct {
	Opts roundOpts `json:"opts"`

	// SetupS runs from process start (or the call, in-process) to the end
	// of warm-up; WallS is the measured window.
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// Speed is the machine's speed around the round as a share of the
	// yardstick's reference (calibrate.go), stamped by the parent: the mean
	// of the readings right before and right after the round.
	Speed float64 `json:"speed"`

	Attempted int64 `json:"attempted"`
	Acked     int64 `json:"acked"`
	Failed    int64 `json:"failed"`

	// RTTNs holds one sample per acked request: Invoke call to return, or
	// due instant to return on the open loop. LateNs is how late the open
	// loop's generator issued each request.
	RTTNs  []int64 `json:"rtt_ns"`
	LateNs []int64 `json:"late_ns,omitempty"`

	CPUUs      float64 `json:"cpu_us"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	MaxRSSKB   int64   `json:"max_rss_kb"`

	// Wire holds messages and bytes per link class (client→member,
	// member→member, member→client), one count per destination.
	WireMsgs  [3]int64 `json:"wire_msgs"`
	WireBytes [3]int64 `json:"wire_bytes"`
	// DataCalls counts Send and SendMulticast calls — what simnet calls
	// messages sent — for checking the wrapper against simnet's own count.
	DataCalls  int64 `json:"data_calls"`
	SimnetSent int64 `json:"simnet_sent"`

	// Counters are deltas of the nodes' own trace counters over the
	// window, summed over every node.
	Counters map[string]int64 `json:"counters"`
	// SpuriousViews, on a workload that crashes nobody, is how many views
	// the nodes installed after the group was booted, warm-up included.
	// Not zero means a false suspicion.
	SpuriousViews int64 `json:"spurious_views"`
	// Sums are the traced taps' totals (nanoseconds, calls, bytes).
	Sums map[string]float64 `json:"sums,omitempty"`
	// Gauges are per-round readings that do not add (percentiles, levels).
	Gauges map[string]float64 `json:"gauges,omitempty"`

	Cycles []cycleResult `json:"cycles,omitempty"`

	// Violations lists failed correctness checks; any makes the command
	// exit non-zero.
	Violations []string `json:"violations,omitempty"`

	Spans        []spanRec `json:"spans,omitempty"`
	SpansDropped int       `json:"spans_dropped,omitempty"`
}

// cycleResult times one crash/rejoin cycle. Detect + Promote + Resend is
// Outage by construction: the three are consecutive intervals between the
// crash and the first reply to a request that was due after it.
type cycleResult struct {
	OutageMs  float64 `json:"outage_ms"`
	DetectMs  float64 `json:"detect_ms"`
	PromoteMs float64 `json:"promote_ms"`
	ResendMs  float64 `json:"resend_ms"`
	RejoinMs  float64 `json:"rejoin_ms"`
}

// sample is one completed request: when it was due (or issued), when the
// reply came back, and the counter value the reply carried.
type sample struct {
	due, done time.Time
	value     int64
}

// caller is one load-generating goroutine's private state.
type caller struct {
	client  *replicator.ClientNode
	id      uint64
	seq     uint64
	payload []byte
	args    []codec.Value

	samples []sample
	failed  int64
}

func newCaller(cl *replicator.ClientNode, id int, spec workloadSpec, rng *rand.Rand) *caller {
	c := &caller{client: cl, id: uint64(id + 1), payload: make([]byte, max(spec.ReqBytes, 8))}
	rng.Read(c.payload)
	c.args = []codec.Value{codec.Bytes(c.payload)}
	return c
}

// nextID stamps the payload with a request identifier unique in the round.
func (c *caller) nextID() uint64 {
	c.seq++
	id := c.id<<40 | c.seq
	binary.BigEndian.PutUint64(c.payload, id)
	return id
}

// invoke issues one request and returns the counter value it carried.
func (c *caller) invoke(args []codec.Value) (int64, error) {
	out, err := c.client.ORB().Invoke("Bench", "work", args, 0)
	if err != nil {
		return 0, err
	}
	if len(out.Results) == 0 {
		return 0, fmt.Errorf("reply carries no result")
	}
	return out.Results[0].Int, nil
}

// runRound executes one round in this process. started is when the process
// (or the caller's clock) began, the origin of set-up time; progress is
// told each phase as it begins so a watchdog can hold it to a deadline.
func runRound(o roundOpts, started time.Time, progress func(phase string)) (*roundResult, error) {
	spec, ok := findWorkload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	res := &roundResult{Opts: o}
	rng := rand.New(rand.NewSource(int64(o.Seed)*1000003 + int64(o.Round)))

	progress("boot")
	cl, err := buildCluster(spec, o.Seed*16+uint64(o.Round)+1, o.Traced)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	defer cl.close()
	bootViews := cl.snapshot().Counters[keyViewChanges]

	var callers []*caller
	perConn := max(spec.InFlight, 1)
	for i, node := range cl.clients {
		for j := 0; j < perConn; j++ {
			callers = append(callers, newCaller(node, i*perConn+j, spec, rng))
		}
	}

	progress("warmup")
	warm, err := warmUp(spec, callers)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.SetupS = time.Since(started).Seconds()

	progress("measure")
	window := time.Duration(o.Seconds * float64(time.Second))
	cl.taps.dropSpans() // warm-up's spans would only crowd out the window's
	before := takeReading(cl)
	begin := time.Now()
	var crashes []crashRecord
	if spec.OpenRate > 0 {
		crashes, res.LateNs = runOpenLoop(cl, spec, callers, begin, window, rng, res)
	} else {
		runClosedLoop(cl, callers, begin.Add(window))
	}
	// The window ends with the last reply, on the open loop too: requests
	// are due for the window's length and the stragglers are waited for.
	res.WallS = time.Since(begin).Seconds()
	after := takeReading(cl)
	before.diffInto(after, res)
	if !spec.Failover {
		res.SpuriousViews = after.counters[keyViewChanges] - bootViews
	}
	dropped, dials := cl.tcpStats()
	res.Counters[keyTCPDropped], res.Counters[keyTCPDials] = int64(dropped), int64(dials)

	progress("verify")
	var values []int64
	var samples []sample
	for _, c := range callers {
		res.Failed += c.failed
		samples = append(samples, c.samples...)
	}
	for _, s := range samples {
		res.RTTNs = append(res.RTTNs, s.done.Sub(s.due).Nanoseconds())
		values = append(values, s.value)
	}
	res.Cycles = gradeCycles(cl, crashes, samples, res)
	res.Acked = int64(len(values))
	res.Attempted = res.Acked + res.Failed
	res.Violations = append(res.Violations, verify(cl, spec, values, warm, res.Failed)...)

	if o.Traced {
		res.Spans, res.SpansDropped = cl.taps.spans, cl.taps.spansDropped
	}
	progress("shutdown")
	return res, nil
}

// warmUp issues the fixed warm-up count through every caller and returns
// how many requests that was in total.
func warmUp(spec workloadSpec, callers []*caller) (int64, error) {
	perCaller := spec.Warmup / max(spec.InFlight, 1)
	var wg sync.WaitGroup
	errs := make(chan error, len(callers))
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				c.nextID()
				if _, err := c.invoke(c.args); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return int64(perCaller * len(callers)), nil
}

// runClosedLoop has every caller issue requests back to back until the
// deadline. With the segment probe on there is exactly one caller.
func runClosedLoop(cl *cluster, callers []*caller, deadline time.Time) {
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			seg := cl.taps.seg
			for {
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				id := c.nextID()
				if seg != nil {
					seg.begin(start)
				}
				v, err := c.invoke(c.args)
				done := time.Now()
				if seg != nil {
					seg.finish(cl.taps, id, done)
				}
				if err != nil {
					c.failed++
					continue
				}
				c.samples = append(c.samples, sample{due: start, done: done, value: v})
			}
		}(c)
	}
	wg.Wait()
}

// maxOutstanding bounds the open loop's in-flight requests. At 500 req/s
// it is four seconds of backlog; a request due beyond it is shed and
// counted as failed instead of piling goroutines onto a stalled system.
const maxOutstanding = 2048

// runOpenLoop issues requests on a fixed schedule regardless of replies,
// each timed from the instant it was due, while the crash/rejoin cycles
// run alongside. It returns once every request issued has completed.
func runOpenLoop(cl *cluster, spec workloadSpec, callers []*caller, begin time.Time,
	window time.Duration, rng *rand.Rand, res *roundResult) ([]crashRecord, []int64) {

	var crashes []crashRecord
	cyclesDone := make(chan struct{})
	if spec.Failover {
		plan := planCycles(window, rng)
		go func() {
			defer close(cyclesDone)
			crashes = runCycles(cl, begin, plan, res)
		}()
	} else {
		close(cyclesDone)
	}

	perConn := spec.OpenRate / float64(len(callers))
	gap := time.Duration(float64(time.Second) / perConn)
	sem := make(chan struct{}, maxOutstanding)
	var mu sync.Mutex
	lates := make([][]int64, len(callers))
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		// Connections are staggered so their due instants interleave
		// evenly instead of arriving in pairs.
		offset := gap * time.Duration(i) / time.Duration(len(callers))
		go func(c *caller, offset time.Duration, late *[]int64) {
			defer wg.Done()
			var inflight sync.WaitGroup
			for due := begin.Add(offset); due.Before(begin.Add(window)); due = due.Add(gap) {
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				select {
				case sem <- struct{}{}:
				default:
					mu.Lock()
					c.failed++
					mu.Unlock()
					continue
				}
				// Outstanding requests of one connection overlap, so each
				// takes its own copy of the stamped payload.
				c.nextID()
				args := []codec.Value{codec.Bytes(append([]byte(nil), c.payload...))}
				issued := time.Now()
				*late = append(*late, issued.Sub(due).Nanoseconds())
				inflight.Add(1)
				go func(due time.Time) {
					defer inflight.Done()
					defer func() { <-sem }()
					v, err := c.invoke(args)
					done := time.Now()
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						c.failed++
						return
					}
					c.samples = append(c.samples, sample{due: due, done: done, value: v})
				}(due)
			}
			inflight.Wait()
		}(c, offset, &lates[i])
	}
	wg.Wait()
	<-cyclesDone

	var late []int64
	for i := range callers {
		late = append(late, lates[i]...)
	}
	return crashes, late
}

// verify checks the round's outputs: every acked reply carries its own
// counter value, nothing acked was lost or executed twice, and the
// replicas agree as far as their style promises.
func verify(cl *cluster, spec workloadSpec, values []int64, warm, failed int64) []string {
	var bad []string
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for i := 1; i < len(values); i++ {
		if values[i] == values[i-1] {
			bad = append(bad, fmt.Sprintf("counter value %d acked twice", values[i]))
			break
		}
	}
	acked := int64(len(values))
	if failed == 0 && acked > 0 && (values[0] != warm+1 || values[acked-1] != warm+acked) {
		bad = append(bad, fmt.Sprintf("acked counter values span [%d,%d], want [%d,%d]",
			values[0], values[acked-1], warm+1, warm+acked))
	}

	// Replies race ahead of the last checkpoint and of the slowest active
	// replica; give the group a moment to settle before comparing.
	var state string
	deadline := time.Now().Add(3 * time.Second)
	for {
		state = replicaAgreement(cl, spec, warm+acked, failed)
		if state == "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if state != "" {
		bad = append(bad, state)
	}
	return bad
}

// replicaAgreement returns "" when the live replicas' counters are
// consistent with want executed requests, else what is wrong.
func replicaAgreement(cl *cluster, spec workloadSpec, want, failed int64) string {
	live := cl.live()
	if len(live) != replicas {
		return fmt.Sprintf("%d live replicas, want %d", len(live), replicas)
	}
	var counters []string
	for _, r := range live {
		st := r.node.Engine().StatsSnapshot()
		counters = append(counters, fmt.Sprintf("%s=%d (executed %d, logged %d, resent %d)",
			r.addr, r.app.Counter(), st.RequestsExecuted, st.RequestsLogged, st.RepliesResent))
	}
	primary := live[0].app.Counter()
	// A request that timed out at the client may still have executed.
	if primary < want || (failed == 0 && primary != want) {
		return fmt.Sprintf("primary executed %d requests, want %d (counters %v)", primary, want, counters)
	}
	for _, r := range live[1:] {
		lag := primary - r.app.Counter()
		switch {
		case spec.Style.AllExecute() && lag != 0:
			return fmt.Sprintf("active replicas disagree (counters %v)", counters)
		case lag < 0 || lag > int64(spec.CheckpointEvery):
			return fmt.Sprintf("backup %s lags the primary by more than %d (counters %v)",
				r.addr, spec.CheckpointEvery, counters)
		}
	}
	return ""
}

// ---- readings ----

// reading is a point-in-time copy of everything a round reports as a
// delta over its measured window.
type reading struct {
	mem      runtime.MemStats
	ru       syscall.Rusage
	counters map[string]int64
	wireMsgs [3]int64
	wireByte [3]int64
	data     int64
	simnet   int64
	sums     map[string]float64
	rt       []metrics.Sample
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
	"/sched/goroutines:goroutines",
}

func takeReading(cl *cluster) *reading {
	r := &reading{counters: cl.snapshot().Counters}
	if cl.taps.traced {
		r.sums = cl.taps.sums()
	}
	for i := range cl.taps.wire {
		r.wireMsgs[i] = cl.taps.wire[i].msgs.Load()
		r.wireByte[i] = cl.taps.wire[i].bytes.Load()
	}
	r.data = cl.taps.dataCalls.Load()
	if cl.net != nil {
		r.simnet = cl.net.Stats().MessagesSent
	}
	r.rt = make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		r.rt[i].Name = name
	}
	metrics.Read(r.rt)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r.ru) // cannot fail for RUSAGE_SELF
	runtime.ReadMemStats(&r.mem)
	return r
}

func cpuMicros(ru *syscall.Rusage) float64 {
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}

// diffInto writes after − before into res.
func (before *reading) diffInto(after *reading, res *roundResult) {
	res.CPUUs = cpuMicros(&after.ru) - cpuMicros(&before.ru)
	res.Mallocs = after.mem.Mallocs - before.mem.Mallocs
	res.AllocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	res.MaxRSSKB = after.ru.Maxrss
	for i := range res.WireMsgs {
		res.WireMsgs[i] = after.wireMsgs[i] - before.wireMsgs[i]
		res.WireBytes[i] = after.wireByte[i] - before.wireByte[i]
	}
	res.DataCalls = after.data - before.data
	res.SimnetSent = after.simnet - before.simnet
	res.Counters = make(map[string]int64)
	for k, v := range after.counters {
		res.Counters[k] = v - before.counters[k]
	}
	if after.sums != nil {
		res.Sums = make(map[string]float64)
		for k, v := range after.sums {
			res.Sums[k] = v - before.sums[k]
		}
	}

	f := func(i int) float64 { return after.rt[i].Value.Float64() - before.rt[i].Value.Float64() }
	res.Gauges = map[string]float64{
		"gc_cpu_s":     f(0),
		"gc_cycles":    float64(after.rt[1].Value.Uint64() - before.rt[1].Value.Uint64()),
		"mutex_wait_s": f(2),
		"sched_p99_us": histDeltaQuantile(before.rt[3].Value.Float64Histogram(),
			after.rt[3].Value.Float64Histogram(), 0.99) * 1e6,
		"goroutines": float64(after.rt[4].Value.Uint64()),
	}
}

// histDeltaQuantile returns quantile q of the observations a runtime
// histogram gained between two reads (the upper edge of the bucket the
// quantile falls in).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var seen uint64
	for i, n := range delta {
		seen += n
		if seen > target {
			// Buckets[i+1] is bucket i's upper edge; the last one is +Inf.
			if edge := after.Buckets[i+1]; edge < 1e9 {
				return edge
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// sums exports the traced taps' running totals.
func (t *taps) sums() map[string]float64 {
	m := map[string]float64{
		"send_calls":    float64(t.sendCalls.Load()),
		"send_ns":       float64(t.sendNs.Load()),
		"execs":         float64(t.execs.Load()),
		"exec_ns":       float64(t.execNs.Load()),
		"captures":      float64(t.captures.Load()),
		"capture_ns":    float64(t.captureNs.Load()),
		"capture_bytes": float64(t.captureBytes.Load()),
		"applies":       float64(t.applies.Load()),
		"apply_ns":      float64(t.applyNs.Load()),
	}
	if p := t.seg; p != nil {
		p.mu.Lock()
		m["seg_n"] = float64(p.n)
		m["seg_incomplete"] = float64(p.incomplete)
		m["seg_submit_ns"] = float64(p.submitNs)
		m["seg_order_ns"] = float64(p.orderNs)
		m["seg_exec_ns"] = float64(p.execNs)
		m["seg_reply_ns"] = float64(p.replyNs)
		m["seg_return_ns"] = float64(p.returnNs)
		p.mu.Unlock()
	}
	return m
}
