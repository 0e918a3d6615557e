package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// selfcheckMain measures the benchmark's own steadiness the way its
// consumer will: two sets of n invocations of the same tree, every
// invocation with another seed. For every end-to-end metric of every
// workload it prints each set's quartiles, the spread between the first and
// third as a share of the median, and how much worse the second set's
// median is than the first's — each against the metric's bound. A metric is
// steady when both spreads stay under a third of the bound and the sets
// disagree by less than half of it. Under each timing metric a second row
// shows the same invocations' figures in wall time — before the yardstick
// (calibrate.go) — so what the yardstick removes on this machine is on view.
func selfcheckMain(n int, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	// values[set][workload][metric] holds one value per invocation.
	var values [2]map[string]map[string][]float64
	failures := 0
	seed := 1
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for i := 0; i < n; i++ {
			for _, w := range workloads {
				metrics, err := invoke(exe, w.Name, seed, seconds)
				if err != nil {
					// The failure is the finding; the other invocations
					// still say how steady the benchmark is.
					fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %s seed %d: %v\n", w.Name, seed, err)
					failures++
					continue
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = make(map[string][]float64)
				}
				for name, v := range metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], v.Value)
				}
				for name, v := range wallTimeOfLastInvocation(w.Name) {
					values[set][w.Name][inWallTime+name] = append(values[set][w.Name][inWallTime+name], v)
				}
			}
			fmt.Fprintf(os.Stderr, "selfcheck: set %d, invocation %d of %d done\n", set+1, i+1, n)
			seed++
		}
	}

	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := writeJSON(filepath.Join(outDir(), "selfcheck.json"), values); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("%-26s %-20s %38s %38s %8s %6s  %s\n", "workload", "metric",
		"set 1: q1 / median / q3 (spread)", "set 2: q1 / median / q3 (spread)", "worse", "bound", "verdict")
	code := 0
	if failures > 0 {
		fmt.Printf("%d invocation(s) failed and are left out below\n", failures)
		code = 1
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := quartiles(values[0][w.Name][d.Name]), quartiles(values[1][w.Name][d.Name])
			worse := (b.median - a.median) / a.median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "steady"
			if d.Name != "setup_s" && max(a.spread(), b.spread()) > d.Bound/3 {
				verdict = "SPREAD"
				code = 1
			}
			if worse > d.Bound/2 {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Printf("%-26s %-20s %38s %38s %+7.2f%% %5.1f%%  %s\n", w.Name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
			if raw := values[0][w.Name][inWallTime+d.Name]; raw != nil {
				fmt.Printf("%-26s %-20s %38s %38s\n", "", "  in wall time", quartiles(raw), quartiles(values[1][w.Name][inWallTime+d.Name]))
			}
		}
	}
	return code
}

// inWallTime prefixes the names under which the selfcheck keeps a timing
// metric's figure from before the yardstick.
const inWallTime = "in wall time: "

// wallTimeOfLastInvocation reads those figures from the file the invocation
// that just ended left in the output directory.
func wallTimeOfLastInvocation(workload string) map[string]float64 {
	raw, err := os.ReadFile(filepath.Join(outDir(), workload+".trace0.json"))
	if err != nil {
		return nil
	}
	var rep struct {
		WallTime map[string]float64 `json:"in_wall_time"`
	}
	if json.Unmarshal(raw, &rep) != nil {
		return nil
	}
	return rep.WallTime
}

// invoke runs one untraced invocation of one workload and returns the
// metrics of its final line.
func invoke(exe, workload string, seed int, seconds float64) (map[string]metricValue, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
		if bytes.Contains(sc.Bytes(), []byte("VIOLATION")) {
			fmt.Fprintf(os.Stderr, "%s\n", sc.Bytes())
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	var final struct {
		Correct bool                   `json:"correct"`
		Failed  int64                  `json:"failed"`
		Metrics map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(last, &final); err != nil {
		return nil, fmt.Errorf("last line is not the result object: %w", err)
	}
	if !final.Correct || final.Failed != 0 {
		return nil, fmt.Errorf("invocation reported correct=%v failed=%d", final.Correct, final.Failed)
	}
	return final.Metrics, nil
}

// quartile summary of one metric over one set of invocations, cut the way
// Python's statistics.quantiles(values, n=4) cuts (the exclusive method),
// since that is what the benchmark's consumer computes.
type quartileSummary struct{ q1, median, q3 float64 }

func quartiles(xs []float64) quartileSummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		switch len(s) {
		case 0:
			return 0
		case 1:
			return s[0]
		}
		pos := p*float64(len(s)+1) - 1
		i := min(max(int(pos), 0), len(s)-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return quartileSummary{at(0.25), at(0.5), at(0.75)}
}

func (q quartileSummary) spread() float64 { return (q.q3 - q.q1) / q.median }

func (q quartileSummary) String() string {
	return fmt.Sprintf("%.5g / %.5g / %.5g (%4.1f%%)", q.q1, q.median, q.q3, 100*q.spread())
}
