// Command vdbench runs the versadep evaluation harness: it regenerates
// every table and figure of the paper's evaluation (§4) and prints them in
// the paper's format.
//
// Usage:
//
//	vdbench                      # run everything with default options
//	vdbench -exp fig3            # one experiment: fig3 fig4 fig6 fig7
//	                             # table2 fig9 switchdelay
//	vdbench -requests 10000      # the paper's full 10,000-request cycle
//	vdbench -seed 7              # different deterministic seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"versadep/internal/experiment"
	"versadep/internal/knobs"
	"versadep/internal/obsplane"
	"versadep/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: all, fig3, fig4, fig6, fig7, table2, fig9, switchdelay, statetransfer, chaos, slo, shardscale")
		chaosN   = flag.Int("chaos-runs", 20, "seeded runs per chaos campaign (chaos experiment)")
		requests = flag.Int("requests", 0, "requests per client cycle (default harness setting; paper uses 10000)")
		seed     = flag.Uint64("seed", 0, "deterministic seed (default harness setting)")
		replicas = flag.Int("replicas", 3, "max replicas for the fig7 sweep")
		clients  = flag.Int("clients", 5, "max clients for the fig7 sweep")
		traceDmp = flag.Bool("trace", false, "dump each scenario's merged trace registry (counters, histograms, spans) as JSON after it runs")
		benchDir = flag.String("bench-json", "", "directory to write BENCH_*.json perf-trajectory points into (fig3, statetransfer, chaos, slo)")
		sloSpec  *obsplane.Spec // nil without -slo
	)
	// -slo is parsed inside flag.Parse, so a malformed spec exits with
	// status 2 and the usage before any experiment runs.
	flag.Func("slo", "SLO spec for the slo experiment (default "+experiment.DefaultSLOSpec+")", func(s string) error {
		if s == "" {
			return nil
		}
		spec, err := obsplane.ParseSLO(s)
		sloSpec = &spec
		return err
	})
	flag.Parse()
	if err := run(*exp, *requests, *seed, *replicas, *clients, *chaosN, *traceDmp, *benchDir, sloSpec); err != nil {
		fmt.Fprintln(os.Stderr, "vdbench:", err)
		os.Exit(1)
	}
}

// writeBenchJSON drops one perf-trajectory point as indented JSON.
func writeBenchJSON(dir, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func run(exp string, requests int, seed uint64, maxReplicas, maxClients, chaosRuns int, traceDump bool, benchDir string, sloSpec *obsplane.Spec) error {
	o := experiment.DefaultOptions()
	if requests > 0 {
		o.Requests = requests
	}
	if seed > 0 {
		o.Seed = seed
	}
	if traceDump {
		o.TraceSink = func(label string, snap trace.Snapshot) {
			fmt.Printf("\ntrace[%s]:\n%s\n", label, snap.JSON())
		}
	}

	want := func(name string) bool { return exp == "all" || strings.EqualFold(exp, name) }
	ran := false

	if want("fig3") {
		ran = true
		res, err := experiment.RunFig3(o)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderFig3(res))
		if benchDir != "" {
			point := struct {
				MeanRTTMicros float64 `json:"mean_rtt_us"`
				Requests      int     `json:"requests"`
			}{res.MeanRTT.Seconds() * 1e6, res.Requests}
			if err := writeBenchJSON(benchDir, "BENCH_orb_rtt.json", point); err != nil {
				return err
			}
		}
	}
	if want("fig4") {
		ran = true
		rows, err := experiment.RunFig4(o)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderFig4(rows))
	}
	if want("fig6") {
		ran = true
		res, err := experiment.RunFig6(o,
			experiment.DefaultFig6Profile(o.Requests),
			experiment.DefaultFig6Thresholds())
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderFig6(res, 24))
	}

	var points []experiment.Fig7Point
	needFig7 := want("fig7") || want("table2") || want("fig9")
	if needFig7 {
		ran = true
		var err error
		points, err = experiment.RunFig7(o, maxReplicas, maxClients)
		if err != nil {
			return err
		}
	}
	if want("fig7") {
		fmt.Println(experiment.RenderFig7(points))
	}
	if want("table2") {
		req := knobs.PaperRequirements()
		rows, infeasible := experiment.RunTable2(points, req, maxClients)
		fmt.Println(experiment.RenderTable2(rows, infeasible, req))
	}
	if want("fig9") {
		fmt.Println(experiment.RenderFig9(experiment.RunFig9(points)))
	}
	if want("switchdelay") {
		ran = true
		res, err := experiment.RunSwitchDelay(o, 3)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderSwitchDelay(res))
	}
	if want("statetransfer") {
		ran = true
		so := o
		so.StateBytes = 64 * 1024
		res, err := experiment.RunStateTransfer(so)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderStateTransfer(res))
		if benchDir != "" {
			if err := writeBenchJSON(benchDir, "BENCH_state_transfer.json", res); err != nil {
				return err
			}
		}
	}
	// The SLO grading experiment paces its open-loop surge in real time
	// (and its partition scenario heals on a real-time fuse), so like the
	// chaos campaign it runs only when asked for.
	if strings.EqualFold(exp, "slo") {
		ran = true
		res, err := experiment.RunSLOBench(o, sloSpec)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderSLO(res))
		if benchDir != "" {
			if err := writeBenchJSON(benchDir, "BENCH_slo.json", res); err != nil {
				return err
			}
		}
		if !res.Passed {
			return fmt.Errorf("clean surge violated the SLO (attainment %.4f)", res.Attainment)
		}
	}
	// The shard-scale sweep drives a few hundred thousand virtual-time
	// requests across 1/2/4 shards; it runs only when asked for, like the
	// other heavyweight experiments.
	if strings.EqualFold(exp, "shardscale") {
		ran = true
		res, err := experiment.RunShardScale(o)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderShardScale(res))
		if benchDir != "" {
			if err := writeBenchJSON(benchDir, "BENCH_shard.json", res); err != nil {
				return err
			}
		}
		if !res.Passed {
			return fmt.Errorf("4-shard speedup %.2f× below the 2.5× scale-out bar", res.Speedup4)
		}
	}
	// The chaos campaign is real-time (fault schedules, detector timing)
	// and so runs only when asked for, not under "all" with the virtual-
	// time paper figures.
	if strings.EqualFold(exp, "chaos") {
		ran = true
		co := o
		co.StateBytes = 2048
		chaosSeed := seed
		if chaosSeed == 0 {
			chaosSeed = 7
		}
		res, report, err := experiment.RunChaosBench(co, chaosRuns, chaosSeed)
		if err != nil {
			return err
		}
		fmt.Println(experiment.RenderChaos(res, report))
		if benchDir != "" {
			if err := writeBenchJSON(benchDir, "BENCH_chaos.json", res); err != nil {
				return err
			}
		}
		if !res.Passed {
			return fmt.Errorf("chaos campaign failed %d invariant checks", res.Violations)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
