package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload for a fraction of a second, once
// with the taps off and once with them on, and checks what does not depend
// on timing: the outputs verify, every declared metric is there and finite,
// the transport wrapper agrees with simnet's own count, and the counts the
// replication style fixes come out as the style says.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		workloads[i].Warmup = 200 // the fixed warm-up is sized for the real run
	}
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			seconds := 0.25
			if spec.Failover {
				seconds = 0.9 // room for one crash, its detection and the rejoin
			}
			run := &workloadRun{spec: spec}
			for round, traced := range []bool{false, true} {
				res, err := runRound(roundOpts{Workload: spec.Name, Seed: 7, Round: round, Seconds: seconds, Traced: traced},
					time.Now(), func(string) {})
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for _, v := range res.Violations {
					t.Errorf("round %d: %s", round, v)
				}
				if res.Failed != 0 || res.Acked == 0 {
					t.Errorf("round %d: acked %d, failed %d", round, res.Acked, res.Failed)
				}
				// A crashed node's endpoint refuses its last sends before
				// simnet counts them, so only crash-free rounds match exactly.
				if !spec.TCP && (res.DataCalls < res.SimnetSent || (!spec.Failover && res.DataCalls != res.SimnetSent)) {
					t.Errorf("round %d: wrapper saw %d Send+SendMulticast calls, simnet counted %d messages",
						round, res.DataCalls, res.SimnetSent)
				}
				if spec.TCP && res.Counters[keyTCPDials] == 0 {
					t.Errorf("round %d: TCP workload dialled nothing", round)
				}
				res.Speed = 1 // the parent's stamp; no yardstick in-process
				run.rounds = append(run.rounds, res)
			}

			for _, traced := range []bool{false, true} {
				rep, err := run.report(traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Errorf("report not correct: %v", rep.Problems)
				}
				for _, d := range rep.defs {
					v, ok := rep.Metrics[d.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s = %v (present %v)", d.Name, v, ok)
					}
					if !traced && v <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
					}
				}
				if !traced {
					checkYardstickTime(t, run, rep.Metrics)
					continue
				}
				m := rep.Metrics
				execs, ckpts := m["replication.execs_per_req"], m["replication.checkpoints_per_req"]
				switch {
				case spec.Failover:
					// Replays and joiner bookmarks add a little to both.
					if execs < 1 || execs > 1.2 || ckpts < 0.15 || ckpts > 0.3 {
						t.Errorf("failover: execs_per_req %v, checkpoints_per_req %v", execs, ckpts)
					}
					if sum := m["gcs.detect_ms"] + m["replication.promote_ms"] + m["replication.client_resend_ms"]; math.Abs(sum-m["harness.outage_ms"]) > 1e-6 || sum == 0 {
						t.Errorf("outage %v ms is not the sum %v of its parts", m["harness.outage_ms"], sum)
					}
					if m["harness.rejoin_ms"] <= 0 || m["replication.transfer_bytes_per_join"] < float64(spec.StateBytes) {
						t.Errorf("rejoin %v ms, %v B per join", m["harness.rejoin_ms"], m["replication.transfer_bytes_per_join"])
					}
				case spec.Style.AllExecute():
					if execs != 3 || ckpts != 0 {
						t.Errorf("active: execs_per_req %v (want 3), checkpoints_per_req %v (want 0)", execs, ckpts)
					}
					if r := m["interceptor.reply_use_ratio"]; math.Abs(r-1.0/3) > 0.02 {
						t.Errorf("active: reply_use_ratio %v, want 1/3", r)
					}
				default:
					if execs != 1 || math.Abs(ckpts-0.2) > 0.01 {
						t.Errorf("passive: execs_per_req %v (want 1), checkpoints_per_req %v (want 0.2)", execs, ckpts)
					}
					if r := m["interceptor.reply_use_ratio"]; r != 1 {
						t.Errorf("passive: reply_use_ratio %v, want 1", r)
					}
				}
				if spec.Conns*max(spec.InFlight, 1) == 1 {
					parts := m["seg.client_submit_us"] + m["seg.order_deliver_us"] + m["seg.app_exec_us"] +
						m["seg.reply_send_us"] + m["seg.reply_return_us"]
					if parts <= 0 || math.Abs(parts-m["seg.rtt_mean_us"]) > 1e-6 {
						t.Errorf("segments sum to %v us, seg.rtt_mean_us is %v", parts, m["seg.rtt_mean_us"])
					}
					if len(rep.spans) == 0 {
						t.Error("traced round kept no spans")
					}
				} else if m["seg.rtt_mean_us"] != 0 {
					t.Errorf("segment probe ran with more than one request in flight")
				}
				if !spec.TCP && (m["transport.tcp_hop_us"] != 0 || m["transport.tcp_dials"] != 0) {
					t.Errorf("simnet workload reports TCP figures")
				}
			}
		})
	}
}

// checkYardstickTime re-stamps the rounds as run on a machine at half the
// reference speed and checks that every duration halves, a closed loop's
// throughput doubles, an open loop's stays, and nothing else moves.
func checkYardstickTime(t *testing.T, run *workloadRun, at1 map[string]float64) {
	t.Helper()
	for _, r := range run.rounds {
		r.Speed = 0.5
	}
	defer func() {
		for _, r := range run.rounds {
			r.Speed = 1
		}
	}()
	rep, err := run.report(false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"rtt_p50_us": 0.5, "cpu_us_per_req": 0.5, "setup_s": 0.5, "throughput_rps": 2}
	if run.spec.OpenRate > 0 {
		want["throughput_rps"] = 1
	}
	for _, d := range endToEnd {
		factor, ok := want[d.Name]
		if !ok {
			factor = 1
		}
		if got := rep.Metrics[d.Name]; math.Abs(got-factor*at1[d.Name]) > 1e-3*at1[d.Name] {
			t.Errorf("%s at half speed = %v, want %v × %v", d.Name, got, factor, at1[d.Name])
		}
	}
}

// TestYardstickReads takes one reading of the yardstick in-process.
func TestYardstickReads(t *testing.T) {
	if s := yardstickSpeed(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("yardstick read %v", s)
	}
}

// TestManifestMatchesHarness keeps BENCHMARK.json and the harness's own
// tables from drifting apart: same workloads, same metrics, same units.
func TestManifestMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, harness has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: manifest %+v, harness %q / %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, harness has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: manifest %+v, harness %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd)
	check("per_layer", manifest.PerLayer, perLayer)
}

// TestQuartilesMatchPython pins the selfcheck's quartiles to Python's
// statistics.quantiles(values, n=4), which the benchmark's consumer uses.
func TestQuartilesMatchPython(t *testing.T) {
	q := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q.q1 != 2.75 || q.median != 5.5 || q.q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %+v, want 2.75 / 5.5 / 8.25", q)
	}
	q = quartiles([]float64{3, 1, 2})
	if q.q1 != 1 || q.median != 2 || q.q3 != 3 {
		t.Errorf("quartiles of 1..3 = %+v, want 1 / 2 / 3", q)
	}
}
