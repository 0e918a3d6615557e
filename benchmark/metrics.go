package main

import (
	"fmt"
	"math"
	"sort"

	"versadep/internal/trace"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; unused per layer.
	Bound float64
}

// endToEnd is what a user of the system sees, per workload. The count
// metrics repeat within a fraction of a percent and carry tight bounds. The
// timing metrics are stated in yardstick time (calibrate.go): every
// duration is multiplied by the machine's speed around its round, which
// takes out most of what the shared host adds; they carry wide bounds for
// what is left.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"rtt_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.05},
	{"alloc_bytes_per_req", "B", "lower", 0.05},
	{"wire_msgs_per_req", "count", "lower", 0.05},
	{"wire_bytes_per_req", "B", "lower", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger a traced invocation prints, layer by layer from
// the outside in. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{Name: "transport.client_to_member_msgs_per_req", Unit: "count", Better: "lower"},
	{Name: "transport.client_to_member_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "transport.member_to_member_msgs_per_req", Unit: "count", Better: "lower"},
	{Name: "transport.member_to_member_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "transport.member_to_client_msgs_per_req", Unit: "count", Better: "lower"},
	{Name: "transport.member_to_client_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "transport.send_call_us", Unit: "us", Better: "lower"},
	{Name: "transport.simnet_hop_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_hop_us", Unit: "us", Better: "lower"},
	{Name: "transport.seal_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.verify_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_dropped_frames", Unit: "count", Better: "lower"},
	{Name: "transport.tcp_dials", Unit: "count", Better: "lower"},

	{Name: "codec.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.allocs", Unit: "count", Better: "lower"},

	{Name: "orb.request_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "orb.reply_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "orb.codec_allocs", Unit: "count", Better: "lower"},
	{Name: "orb.direct_rtt_us", Unit: "us", Better: "lower"},
	{Name: "orb.retransmits_per_kreq", Unit: "count", Better: "lower"},
	{Name: "orb.timeouts", Unit: "count", Better: "lower"},

	{Name: "interceptor.reply_use_ratio", Unit: "ratio", Better: "higher"},

	{Name: "gcs.agreed_deliver_us", Unit: "us", Better: "lower"},
	{Name: "gcs.agreed_allocs", Unit: "count", Better: "lower"},
	{Name: "gcs.retransmits_per_kreq", Unit: "count", Better: "lower"},
	{Name: "gcs.nacks_per_kreq", Unit: "count", Better: "lower"},
	{Name: "gcs.heartbeat_misses", Unit: "count", Better: "lower"},
	{Name: "gcs.view_changes", Unit: "count", Better: "lower"},
	{Name: "gcs.detect_ms", Unit: "ms", Better: "lower"},

	{Name: "replication.execs_per_req", Unit: "count", Better: "lower"},
	{Name: "replication.app_exec_us", Unit: "us", Better: "lower"},
	{Name: "replication.checkpoints_per_req", Unit: "count", Better: "lower"},
	{Name: "replication.checkpoint_capture_us", Unit: "us", Better: "lower"},
	{Name: "replication.checkpoint_apply_us", Unit: "us", Better: "lower"},
	{Name: "replication.checkpoint_bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "replication.envelope_ns", Unit: "ns", Better: "lower"},
	{Name: "replication.reply_cache_hits", Unit: "count", Better: "lower"},
	{Name: "replication.promote_ms", Unit: "ms", Better: "lower"},
	{Name: "replication.client_resend_ms", Unit: "ms", Better: "lower"},
	{Name: "replication.failover_replay_len", Unit: "count", Better: "lower"},
	{Name: "replication.transfer_bytes_per_join", Unit: "B", Better: "lower"},
	{Name: "replication.transfer_chunk_resends", Unit: "count", Better: "lower"},

	{Name: "seg.client_submit_us", Unit: "us", Better: "lower"},
	{Name: "seg.order_deliver_us", Unit: "us", Better: "lower"},
	{Name: "seg.app_exec_us", Unit: "us", Better: "lower"},
	{Name: "seg.reply_send_us", Unit: "us", Better: "lower"},
	{Name: "seg.reply_return_us", Unit: "us", Better: "lower"},
	{Name: "seg.rtt_mean_us", Unit: "us", Better: "lower"},
	{Name: "seg.kernel_explained_us", Unit: "us", Better: "higher"},
	{Name: "seg.residual_us", Unit: "us", Better: "lower"},

	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles_per_kreq", Unit: "count", Better: "lower"},
	{Name: "runtime.sched_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "runtime.mutex_wait_us_per_req", Unit: "us", Better: "lower"},
	{Name: "runtime.goroutines", Unit: "count", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	{Name: "harness.machine_speed", Unit: "ratio", Better: "higher"},
	{Name: "harness.machine_speed_spread_pct", Unit: "%", Better: "lower"},
	{Name: "harness.throughput_raw_rps", Unit: "1/s", Better: "higher"},
	{Name: "harness.rtt_p50_raw_us", Unit: "us", Better: "lower"},
	{Name: "harness.cpu_raw_us_per_req", Unit: "us", Better: "lower"},
	{Name: "harness.rtt_p90_us", Unit: "us", Better: "lower"},
	{Name: "harness.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.rtt_p999_us", Unit: "us", Better: "lower"},
	{Name: "harness.rtt_max_us", Unit: "us", Better: "lower"},
	{Name: "harness.rtt_samples", Unit: "count", Better: "higher"},
	{Name: "harness.gen_late_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.outage_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.rejoin_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.error_rate", Unit: "ratio", Better: "lower"},
	{Name: "harness.round_spread_pct", Unit: "%", Better: "lower"},
	{Name: "harness.rounds_retried", Unit: "count", Better: "lower"},
	{Name: "harness.rounds_killed", Unit: "count", Better: "lower"},
	{Name: "harness.rounds_violated", Unit: "count", Better: "lower"},
}

// Trace counters read from the nodes' own registries.
var (
	keyViewChanges     = trace.SubGCS + ".view_changes"
	keyHBMisses        = trace.SubGCS + ".heartbeat_misses"
	keyNacks           = trace.SubGCS + ".nacks_sent"
	keyGCSRetransmits  = trace.SubGCS + ".retransmits"
	keyORBRetransmits  = trace.SubORB + ".retransmits"
	keyORBTimeouts     = trace.SubORB + ".timeouts"
	keyDelivered       = trace.SubInterceptor + ".replies_delivered"
	keySuppressed      = trace.SubInterceptor + ".duplicates_suppressed"
	keyCheckpoints     = trace.SubReplication + ".checkpoints"
	keyCacheHits       = trace.SubReplication + ".reply_cache_hits"
	keyReplayLen       = trace.SubReplication + ".failover_replay_len"
	keyTransferBytes   = trace.SubReplication + ".transfer_bytes_sent"
	keyTransferResends = trace.SubReplication + ".transfer_chunk_resends"
	// Filled in by the harness beside the nodes' counters.
	keyTCPDropped = "tcp.dropped"
	keyTCPDials   = "tcp.dials"
)

// report is one workload's pooled result.
type report struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Rounds    int                `json:"rounds"`
	Retried   int                `json:"retried"`
	Killed    int                `json:"killed"`
	Violated  int                `json:"violated"`
	Samples   int                `json:"rtt_samples"`
	Metrics   map[string]float64 `json:"metrics"`
	// Speed is the machine's mean speed over the rounds; WallTime holds
	// the end-to-end timing metrics as they read before the yardstick.
	Speed    float64            `json:"machine_speed"`
	WallTime map[string]float64 `json:"in_wall_time,omitempty"`
	Problems []string           `json:"problems,omitempty"`

	defs         []metricDef
	spans        []spanRec
	spansDropped int
}

// pool sums fn over rounds.
func pool(rs []*roundResult, fn func(*roundResult) float64) float64 {
	var s float64
	for _, r := range rs {
		s += fn(r)
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func acked(r *roundResult) float64 { return float64(r.Acked) }

func counter(key string) func(*roundResult) float64 {
	return func(r *roundResult) float64 { return float64(r.Counters[key]) }
}

func sum(key string) func(*roundResult) float64 {
	return func(r *roundResult) float64 { return r.Sums[key] }
}

func gauge(key string) func(*roundResult) float64 {
	return func(r *roundResult) float64 { return r.Gauges[key] }
}

// percentile returns the nearest-rank q-quantile of sorted.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func pooledSamples(rs []*roundResult, pick func(*roundResult) []int64) []int64 {
	var all []int64
	for _, r := range rs {
		all = append(all, pick(r)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// yardstickRTT pools the rounds' round-trip samples, each in yardstick
// time: multiplied by the machine's speed around its round.
func yardstickRTT(rs []*roundResult) []int64 {
	var all []int64
	for _, r := range rs {
		for _, ns := range r.RTTNs {
			all = append(all, int64(float64(ns)*r.Speed))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// inYardstickTime returns a duration of round r, picked by fn, multiplied
// by the machine's speed around the round.
func inYardstickTime(fn func(*roundResult) float64) func(*roundResult) float64 {
	return func(r *roundResult) float64 { return fn(r) * r.Speed }
}

func wallS(r *roundResult) float64 { return r.WallS }
func cpuUs(r *roundResult) float64 { return r.CPUUs }

// report pools the workload's rounds into its metrics: the end-to-end ones
// from the untraced rounds, or — for a traced invocation — the per-layer
// ledger, whose tap-derived entries come from the traced rounds and whose
// counter-derived entries from all of them.
func (w *workloadRun) report(traced bool) (*report, error) {
	rep := &report{Workload: w.spec.Name, Rounds: len(w.rounds), Retried: w.retried, Killed: w.killed, Violated: w.violated,
		Metrics: make(map[string]float64), Problems: w.lost}
	var plain, tapped []*roundResult
	for _, r := range w.rounds {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		for _, v := range r.Violations {
			rep.Problems = append(rep.Problems, fmt.Sprintf("round %d: %s", r.Opts.Round, v))
		}
		if r.Opts.Traced {
			tapped = append(tapped, r)
			rep.spans = append(rep.spans, r.Spans...)
			rep.spansDropped += r.SpansDropped
		} else {
			plain = append(plain, r)
		}
	}
	rep.Attempted += w.lostRequests
	rep.Failed += w.lostRequests
	rep.Correct = len(rep.Problems) == 0
	if len(plain) == 0 {
		return nil, fmt.Errorf("no round produced a result: %v", rep.Problems)
	}

	rtt := pooledSamples(plain, func(r *roundResult) []int64 { return r.RTTNs })
	rep.Samples = len(rtt)
	reqs := pool(plain, acked)
	m := rep.Metrics
	rep.Speed = ratio(pool(w.rounds, func(r *roundResult) float64 { return r.Speed }), float64(len(w.rounds)))

	if !traced {
		rep.defs = endToEnd
		// An open loop's throughput is set by its schedule, not by how
		// long the machine takes over a request: it stays in wall time.
		m["throughput_rps"] = ratio(reqs, pool(plain, wallS))
		if w.spec.OpenRate == 0 {
			m["throughput_rps"] = ratio(reqs, pool(plain, inYardstickTime(wallS)))
		}
		m["rtt_p50_us"] = percentile(yardstickRTT(plain), 0.50) / 1e3
		m["cpu_us_per_req"] = ratio(pool(plain, inYardstickTime(cpuUs)), reqs)
		m["allocs_per_req"] = ratio(pool(plain, func(r *roundResult) float64 { return float64(r.Mallocs) }), reqs)
		m["alloc_bytes_per_req"] = ratio(pool(plain, func(r *roundResult) float64 { return float64(r.AllocBytes) }), reqs)
		m["wire_msgs_per_req"] = ratio(pool(plain, func(r *roundResult) float64 {
			return float64(r.WireMsgs[0] + r.WireMsgs[1] + r.WireMsgs[2])
		}), reqs)
		m["wire_bytes_per_req"] = ratio(pool(plain, func(r *roundResult) float64 {
			return float64(r.WireBytes[0] + r.WireBytes[1] + r.WireBytes[2])
		}), reqs)
		// Set-up time and peak memory are read once per round; the median
		// over the rounds stands for the workload.
		var rss, setups []float64
		for _, r := range plain {
			rss = append(rss, float64(r.MaxRSSKB)/1024)
			setups = append(setups, r.SetupS*r.Speed)
		}
		m["rss_peak_mb"] = median(rss)
		m["setup_s"] = median(setups)
		rep.WallTime = map[string]float64{
			"throughput_rps": ratio(reqs, pool(plain, wallS)),
			"rtt_p50_us":     percentile(rtt, 0.50) / 1e3,
			"cpu_us_per_req": ratio(pool(plain, cpuUs), reqs),
		}
		return rep, nil
	}

	rep.defs = perLayer
	for _, d := range perLayer {
		m[d.Name] = 0 // what a metric that does not apply to this workload reads
	}
	if len(tapped) == 0 {
		return nil, fmt.Errorf("no traced round produced a result: %v", rep.Problems)
	}
	kern, err := measureKernels(w.spec)
	if err != nil {
		return nil, fmt.Errorf("isolated kernels: %w", err)
	}
	all := w.rounds
	allReqs := pool(all, acked)
	tapReqs := pool(tapped, acked)

	for i, class := range []string{"client_to_member", "member_to_member", "member_to_client"} {
		m["transport."+class+"_msgs_per_req"] = ratio(pool(all, func(r *roundResult) float64 { return float64(r.WireMsgs[i]) }), allReqs)
		m["transport."+class+"_bytes_per_req"] = ratio(pool(all, func(r *roundResult) float64 { return float64(r.WireBytes[i]) }), allReqs)
	}
	m["transport.send_call_us"] = ratio(pool(tapped, sum("send_ns")), pool(tapped, sum("send_calls"))) / 1e3
	m["transport.simnet_hop_us"] = kern.SimnetHopUs
	m["transport.tcp_hop_us"] = kern.TCPHopUs
	m["transport.seal_ns"] = kern.SealNs
	m["transport.verify_ns"] = kern.VerifyNs
	m["transport.tcp_dropped_frames"] = pool(all, counter(keyTCPDropped))
	m["transport.tcp_dials"] = ratio(pool(all, counter(keyTCPDials)), float64(len(all)))

	m["codec.encode_ns"] = kern.CodecEncodeNs
	m["codec.decode_ns"] = kern.CodecDecodeNs
	m["codec.allocs"] = kern.CodecAllocs

	m["orb.request_codec_ns"] = kern.OrbRequestNs
	m["orb.reply_codec_ns"] = kern.OrbReplyNs
	m["orb.codec_allocs"] = kern.OrbAllocs
	m["orb.direct_rtt_us"] = kern.DirectRTTUs
	m["orb.retransmits_per_kreq"] = 1e3 * ratio(pool(all, counter(keyORBRetransmits)), allReqs)
	m["orb.timeouts"] = pool(all, counter(keyORBTimeouts))

	delivered := pool(all, counter(keyDelivered))
	m["interceptor.reply_use_ratio"] = ratio(delivered, delivered+pool(all, counter(keySuppressed)))

	var cycles []cycleResult
	for _, r := range all {
		cycles = append(cycles, r.Cycles...)
	}
	cycleMean := func(pick func(cycleResult) float64) float64 {
		var s float64
		for _, c := range cycles {
			s += pick(c)
		}
		return ratio(s, float64(len(cycles)))
	}

	m["gcs.agreed_deliver_us"] = kern.AgreedUs
	m["gcs.agreed_allocs"] = kern.AgreedAllocs
	m["gcs.retransmits_per_kreq"] = 1e3 * ratio(pool(all, counter(keyGCSRetransmits)), allReqs)
	m["gcs.nacks_per_kreq"] = 1e3 * ratio(pool(all, counter(keyNacks)), allReqs)
	m["gcs.heartbeat_misses"] = pool(all, counter(keyHBMisses))
	m["gcs.view_changes"] = pool(all, counter(keyViewChanges))
	m["gcs.detect_ms"] = cycleMean(func(c cycleResult) float64 { return c.DetectMs })

	m["replication.execs_per_req"] = ratio(pool(tapped, sum("execs")), tapReqs)
	m["replication.app_exec_us"] = ratio(pool(tapped, sum("exec_ns")), pool(tapped, sum("execs"))) / 1e3
	m["replication.checkpoints_per_req"] = ratio(pool(all, counter(keyCheckpoints)), allReqs)
	m["replication.checkpoint_capture_us"] = ratio(pool(tapped, sum("capture_ns")), pool(tapped, sum("captures"))) / 1e3
	m["replication.checkpoint_apply_us"] = ratio(pool(tapped, sum("apply_ns")), pool(tapped, sum("applies"))) / 1e3
	m["replication.checkpoint_bytes_per_req"] = ratio(pool(tapped, sum("capture_bytes")), tapReqs)
	m["replication.envelope_ns"] = kern.EnvelopeNs
	m["replication.reply_cache_hits"] = pool(all, counter(keyCacheHits))
	m["replication.promote_ms"] = cycleMean(func(c cycleResult) float64 { return c.PromoteMs })
	m["replication.client_resend_ms"] = cycleMean(func(c cycleResult) float64 { return c.ResendMs })
	m["replication.failover_replay_len"] = ratio(pool(all, counter(keyReplayLen)), float64(len(cycles)))
	m["replication.transfer_bytes_per_join"] = ratio(pool(all, counter(keyTransferBytes)), float64(len(cycles)))
	m["replication.transfer_chunk_resends"] = pool(all, counter(keyTransferResends))

	if n := pool(tapped, sum("seg_n")); n > 0 {
		seg := func(key string) float64 { return pool(tapped, sum(key)) / n / 1e3 }
		m["seg.client_submit_us"] = seg("seg_submit_ns")
		m["seg.order_deliver_us"] = seg("seg_order_ns")
		m["seg.app_exec_us"] = seg("seg_exec_ns")
		m["seg.reply_send_us"] = seg("seg_reply_ns")
		m["seg.reply_return_us"] = seg("seg_return_ns")
		m["seg.rtt_mean_us"] = m["seg.client_submit_us"] + m["seg.order_deliver_us"] + m["seg.app_exec_us"] +
			m["seg.reply_send_us"] + m["seg.reply_return_us"]
		m["seg.kernel_explained_us"] = kern.explained(m["seg.app_exec_us"])
		m["seg.residual_us"] = m["seg.rtt_mean_us"] - m["seg.kernel_explained_us"]
	}

	cpuS := pool(all, cpuUs) / 1e6
	m["runtime.gc_cpu_frac"] = ratio(pool(all, gauge("gc_cpu_s")), cpuS)
	m["runtime.gc_cycles_per_kreq"] = 1e3 * ratio(pool(all, gauge("gc_cycles")), allReqs)
	m["runtime.sched_latency_p99_us"] = ratio(pool(all, gauge("sched_p99_us")), float64(len(all)))
	m["runtime.mutex_wait_us_per_req"] = 1e6 * ratio(pool(all, gauge("mutex_wait_s")), allReqs)
	m["runtime.goroutines"] = ratio(pool(all, gauge("goroutines")), float64(len(all)))

	rate := func(rs []*roundResult) float64 { return ratio(pool(rs, acked), pool(rs, wallS)) }
	m["trace.overhead_pct"] = 100 * (1 - ratio(rate(tapped), rate(plain)))

	// The ledger is in wall time throughout; these say how fast the machine
	// was and what the end-to-end timing metrics read before the yardstick.
	slow, fast := math.Inf(1), math.Inf(-1)
	for _, r := range all {
		slow, fast = min(slow, r.Speed), max(fast, r.Speed)
	}
	m["harness.machine_speed"] = rep.Speed
	m["harness.machine_speed_spread_pct"] = 100 * ratio(fast-slow, m["harness.machine_speed"])
	m["harness.throughput_raw_rps"] = rate(plain)
	m["harness.rtt_p50_raw_us"] = percentile(rtt, 0.50) / 1e3
	m["harness.cpu_raw_us_per_req"] = ratio(pool(plain, cpuUs), reqs)

	m["harness.rtt_p90_us"] = percentile(rtt, 0.90) / 1e3
	m["harness.rtt_p99_us"] = percentile(rtt, 0.99) / 1e3
	m["harness.rtt_p999_us"] = percentile(rtt, 0.999) / 1e3
	m["harness.rtt_max_us"] = percentile(rtt, 1) / 1e3
	m["harness.rtt_samples"] = float64(len(rtt))
	m["harness.gen_late_p99_us"] = percentile(pooledSamples(all, func(r *roundResult) []int64 { return r.LateNs }), 0.99) / 1e3
	m["harness.outage_ms"] = cycleMean(func(c cycleResult) float64 { return c.OutageMs })
	m["harness.rejoin_ms"] = cycleMean(func(c cycleResult) float64 { return c.RejoinMs })
	m["harness.error_rate"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range plain {
		t := ratio(float64(r.Acked), r.WallS)
		lo, hi = min(lo, t), max(hi, t)
	}
	m["harness.round_spread_pct"] = 100 * ratio(hi-lo, rate(plain))
	m["harness.rounds_retried"] = float64(w.retried)
	m["harness.rounds_killed"] = float64(w.killed)
	m["harness.rounds_violated"] = float64(w.violated)
	return rep, nil
}

// explained is the serial path of one request on the 1-in-flight workload,
// priced with the isolated kernels: the request is marshalled and wrapped
// at the client, crosses one hop to the sequencer, is delivered in agreed
// order (the isolated group's Multicast-to-every-Out figure, which already
// contains that layer's own frames, seals and hops), is unwrapped,
// unmarshalled and executed, and its reply is marshalled, crosses one hop
// back and is unmarshalled. What the round trip takes beyond this sum is
// the residual: goroutine hand-offs between the layers and per-request
// bookkeeping nobody has priced.
func (k *kernels) explained(appExecUs float64) float64 {
	hops := 2 * (k.SimnetHopUs + (k.SealNs+k.VerifyNs)/1e3)
	return (k.OrbRequestNs+k.OrbReplyNs+k.EnvelopeNs)/1e3 + hops + k.AgreedUs + appExecUs
}
