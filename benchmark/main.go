// Command benchmark is versadep's wall-clock benchmark: four workloads run
// end to end over the real stack (replicator.StartReplica / StartClient →
// orb → interceptor → gcs → replication → transport), their outputs
// checked, every metric printed by name with its unit. See README.md.
//
// One invocation is eight rounds; every round is a fresh child process (a
// re-exec of this binary) that builds a fresh cluster, warms it up with a
// fixed request count and measures it for an eighth of -seconds. The
// parent holds every phase of every child to a deadline, reads the
// machine's speed off a yardstick between the rounds (calibrate.go), pools
// the rounds and prints the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	started := time.Now()
	var (
		workload  = flag.String("workload", "all", "workload to run, or \"all\" to interleave every workload")
		seed      = flag.Uint64("seed", 1, "seed for payload bytes, crash-instant jitter and the simnet/gcs seeds")
		seconds   = flag.Float64("seconds", 24, "measured seconds per workload, split evenly over the rounds")
		traced    = flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs half the rounds with the layer taps on and prints the per-layer metrics")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of this many invocations of the same tree and compare them against the bounds")
		child     = flag.String("child", "", "internal: run one round described by this JSON and report on stdout")
		yardstick = flag.Bool("yardstick", false, "internal: take one reading of the machine-speed yardstick and print it")
	)
	flag.Parse()

	switch {
	case *yardstick:
		os.Exit(yardstickMain())
	case *child != "":
		os.Exit(childMain(*child, started))
	case *selfcheck > 0:
		os.Exit(selfcheckMain(*selfcheck, *seconds))
	}

	specs := workloads
	if *workload != "all" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		specs = []workloadSpec{w}
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	os.Exit(invocationMain(specs, *seed, *seconds, *traced == 1))
}

// childMain runs one round and streams its progress and result to the
// parent as JSON objects on stdout.
func childMain(optsJSON string, started time.Time) int {
	var o roundOpts
	if err := json.Unmarshal([]byte(optsJSON), &o); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: bad options: %v\n", err)
		return 2
	}
	enc := json.NewEncoder(os.Stdout)
	res, err := runRound(o, started, func(phase string) {
		_ = enc.Encode(childMessage{Phase: phase}) // a closed pipe means the parent gave up on us
	})
	if err != nil {
		_ = enc.Encode(childMessage{Error: err.Error()})
		return 1
	}
	if err := enc.Encode(childMessage{Result: res}); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark child: writing result: %v\n", err)
		return 1
	}
	return 0
}

// childMessage is one object of the child's stdout stream.
type childMessage struct {
	Phase  string       `json:"phase,omitempty"`
	Error  string       `json:"error,omitempty"`
	Result *roundResult `json:"result,omitempty"`
}
