package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// workloadRun is one workload's rounds within an invocation.
type workloadRun struct {
	spec   workloadSpec
	rounds []*roundResult
	// retried counts rounds run a second time: killed those of them whose
	// first child was killed by the watchdog, violated those whose first
	// attempt failed a correctness check.
	retried, killed, violated int
	// lost describes rounds that produced no result even when retried;
	// lostRequests is what they are charged as failed.
	lost         []string
	lostRequests int64
}

// invocationMain runs every round of the given workloads, rotating the
// order so no workload always runs first or always follows the same
// neighbour, and prints the pooled result.
func invocationMain(specs []workloadSpec, seed uint64, seconds float64, traced bool) int {
	runs := make([]*workloadRun, len(specs))
	for i, s := range specs {
		runs[i] = &workloadRun{spec: s}
	}
	// The yardstick is read between the rounds, so every round has a
	// reading right before it and one right after. The very first reading
	// is thrown away: after an idle spell the machine takes a moment to
	// come up to speed, and that reading is up to a third low.
	var speed float64
	var err error
	for i := 0; i < 2 && err == nil; i++ {
		speed, err = machineSpeed()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	for r := 0; r < rounds; r++ {
		for i := range runs {
			w := runs[(i+r)%len(runs)]
			// In a traced invocation the taps alternate off and on, so
			// both halves see the same slow drift of the machine and
			// their difference is the taps' cost.
			speed, err = w.runRound(roundOpts{
				Workload: w.spec.Name, Seed: seed, Round: r,
				Seconds: seconds / rounds, Traced: traced && r%2 == 1,
			}, speed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	}

	code := 0
	var reports []*report
	for _, w := range runs {
		rep, err := w.report(traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.spec.Name, err)
			return 1
		}
		reports = append(reports, rep)
		if !rep.Correct {
			code = 1
		}
	}
	if err := printReports(reports, traced); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return code
}

// runRound runs one round in a child, once more if the first attempt
// cannot be used: a child the watchdog had to kill, a round whose outputs
// failed a correctness check, or a round of a steady workload in which the
// group changed view, warm-up included — a false suspicion under a host
// stall, which turns the round into a measurement of the stall. Each is
// logged and counted in the ledger, none is skipped silently, and the
// second attempt stands whatever it shows: incorrect outputs or failed
// requests then make the invocation exit non-zero.
//
// Re-running an incorrect round is a concession to HEAD, which loses an
// acknowledged request about once in a few hundred rounds (README,
// "Findings"): a benchmark that fails one invocation in twenty cannot
// compare two commits. A defect a change introduces shows twice in a row,
// or as harness.rounds_violated climbing.
//
// before is the yardstick's reading taken just before the round; the one
// taken just after is returned, and the round is stamped with their mean.
func (w *workloadRun) runRound(o roundOpts, before float64) (after float64, yardErr error) {
	res, err := runChild(o)
	why := ""
	switch {
	case err != nil:
		why = err.Error()
		var k *killedError
		if errors.As(err, &k) {
			w.killed++
		}
	case len(res.Violations) > 0:
		why = fmt.Sprintf("incorrect outputs %q (%d spurious view installations)", res.Violations, res.SpuriousViews)
		w.violated++
	case res.SpuriousViews != 0:
		why = fmt.Sprintf("%d spurious view installation(s)", res.SpuriousViews)
	}
	if why != "" {
		fmt.Fprintf(os.Stderr, "benchmark: %s round %d: %s; running it again\n", o.Workload, o.Round, why)
		w.retried++
		if before, yardErr = machineSpeed(); yardErr != nil {
			return 0, yardErr
		}
		res, err = runChild(o)
	}
	if after, yardErr = machineSpeed(); yardErr != nil {
		return 0, yardErr
	}
	if err != nil {
		w.lost = append(w.lost, fmt.Sprintf("round %d: %v", o.Round, err))
		// The requests the round would have served count as failed: the
		// whole schedule on the open loop, at least one on a closed loop
		// (whose count is only known by running it).
		w.lostRequests += max(1, int64(w.spec.OpenRate*o.Seconds))
		return after, nil
	}
	res.Speed = (before + after) / 2
	w.rounds = append(w.rounds, res)
	rtt := pooledSamples([]*roundResult{res}, func(r *roundResult) []int64 { return r.RTTNs })
	fmt.Fprintf(os.Stderr, "benchmark: %s round %d: %d acked in %.2f s, %.1f us CPU per request, p50 %.1f us, set-up %.3f s; machine speed %.3f before and %.3f after\n",
		o.Workload, o.Round, res.Acked, res.WallS, ratio(res.CPUUs, float64(res.Acked)), percentile(rtt, 0.5)/1e3, res.SetupS, before, after)
	return after, nil
}

// killedError reports a child the watchdog killed.
type killedError struct{ phase string }

func (e *killedError) Error() string {
	return fmt.Sprintf("child exceeded the deadline of phase %q and was killed", e.phase)
}

// phaseDeadline is how long a child may stay in one phase. The budgets are
// several times what a healthy round needs: they exist to end a wedged
// child, not to time a slow one.
func phaseDeadline(phase string, seconds float64) time.Duration {
	switch phase {
	case "measure":
		// The window, the open loop's drain and the rejoin deadline.
		return time.Duration(seconds*float64(time.Second)) + 20*time.Second
	case "warmup":
		return 30 * time.Second
	default: // start, boot, verify, shutdown
		return 15 * time.Second
	}
}

// runChild re-executes this binary for one round and holds each of its
// phases to a deadline.
func runChild(o roundOpts) (*roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	optsJSON, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", string(optsJSON))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}

	// One buffered slot per message the child can send, so the reader
	// never blocks after the parent stops listening.
	msgs := make(chan childMessage, 8)
	go func() {
		defer close(msgs)
		dec := json.NewDecoder(stdout)
		for {
			var m childMessage
			if err := dec.Decode(&m); err != nil {
				if err != io.EOF {
					msgs <- childMessage{Error: fmt.Sprintf("reading child output: %v", err)}
				}
				return
			}
			msgs <- m
		}
	}()

	var res *roundResult
	var failure error
	phase := "start"
	timer := time.NewTimer(phaseDeadline(phase, o.Seconds))
	defer timer.Stop()
loop:
	for {
		select {
		case m, ok := <-msgs:
			switch {
			case !ok:
				break loop
			case m.Error != "":
				failure = errors.New(m.Error)
			case m.Result != nil:
				res = m.Result
			case m.Phase != "":
				phase = m.Phase
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(phaseDeadline(phase, o.Seconds))
			}
		case <-timer.C:
			_ = cmd.Process.Kill() // fails only if the child has already exited
			failure = &killedError{phase: phase}
			for range msgs { // drain until the pipe closes
			}
			break loop
		}
	}
	waitErr := cmd.Wait()
	switch {
	case failure != nil:
		return nil, failure
	case waitErr != nil:
		return nil, fmt.Errorf("child failed: %w", waitErr)
	case res == nil:
		return nil, errors.New("child exited without a result")
	}
	return res, nil
}
