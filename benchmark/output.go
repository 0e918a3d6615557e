package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// outDir is where an invocation leaves its files: the full result as JSON,
// the same numbers as benchstat-readable text, and a traced invocation's
// spans. run.sh points it at benchmark/out, which git ignores.
func outDir() string {
	if d := os.Getenv("VDWALL_OUT"); d != "" {
		return d
	}
	return filepath.Join("benchmark", "out")
}

// metricValue is one metric as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReports prints each workload's metrics by name with their units,
// writes the invocation's files, and ends with the one-line JSON object the
// driver parses. With one workload the metric names are bare; with several
// each is prefixed by its workload.
func printReports(reports []*report, traced bool) error {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return err
	}
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metricValue)}

	mode := "trace0"
	if traced {
		mode = "trace1"
	}
	for _, rep := range reports {
		fmt.Printf("workload %s  rounds %d  retried %d (killed %d, violated %d)  attempted %d  failed %d  rtt_samples %d\n",
			rep.Workload, rep.Rounds, rep.Retried, rep.Killed, rep.Violated, rep.Attempted, rep.Failed, rep.Samples)
		var bench strings.Builder
		fmt.Fprintf(&bench, "BenchmarkWall/%s %d", rep.Workload, rep.Rounds)
		for _, d := range rep.defs {
			v := rep.Metrics[d.Name]
			fmt.Printf("  %-44s %s %s\n", d.Name, formatValue(v), d.Unit)
			fmt.Fprintf(&bench, " %s %s", formatValue(v), d.Name)
			name := d.Name
			if len(reports) > 1 {
				name = rep.Workload + "/" + d.Name
			}
			final.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
		}
		if rep.WallTime != nil {
			fmt.Printf("  machine speed %.3f of the yardstick's reference; in wall time: throughput_rps %.6g, rtt_p50_us %.6g, cpu_us_per_req %.6g\n",
				rep.Speed, rep.WallTime["throughput_rps"], rep.WallTime["rtt_p50_us"], rep.WallTime["cpu_us_per_req"])
		}
		for _, p := range rep.Problems {
			fmt.Printf("  VIOLATION %s\n", p)
		}
		fmt.Println(bench.String())

		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed

		base := filepath.Join(outDir(), rep.Workload+"."+mode)
		if err := os.WriteFile(base+".bench.txt", []byte(bench.String()+"\n"), 0o644); err != nil {
			return err
		}
		if err := writeJSON(base+".json", rep); err != nil {
			return err
		}
		if traced {
			spans := struct {
				Dropped int       `json:"dropped"`
				Spans   []spanRec `json:"spans"`
			}{rep.spansDropped, rep.spans}
			if err := writeJSON(filepath.Join(outDir(), rep.Workload+".spans.json"), spans); err != nil {
				return err
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// formatValue prints a measurement with all the digits it has.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
