package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"
)

// The machine this benchmark runs on is a few cores of a shared host, and
// its speed moves by 10–30 % for tens of seconds to minutes at a time:
// contention from the neighbours, invisible to the guest (steal reads 0)
// and charged to the process as CPU time. Every timing metric of every
// workload moves with it, together (r ≈ 0.9 between any two of them over
// half-minute spans), so no estimator inside a run removes it.
//
// What removes most of it is a yardstick: fixed pieces of work that owe
// nothing to the program under test, timed in a process of their own right
// before and right after every round. A round's durations are then stated
// in yardstick time — multiplied by the machine's speed around the round,
// as a share of its reference speed — the way one corrects a stopwatch
// against a standard. The pieces are what the program's hot path is made
// of and what the neighbours disturb: small short-lived allocations (the
// memory system and the collector) and goroutine hand-offs (the
// scheduler). Over 300 rounds their geometric mean moved with the
// workloads' CPU time per request at r ≈ 0.7 round by round, at r ≈ 0.95
// invocation by invocation and with an equal amplitude, and it holds the
// spread between invocations at 4–6 % whether wall time spreads 5 % or 18 %
// (README, "Noise"). A third piece, scattered loads over 32 MB, swung twice
// as far as any workload and made things worse; it is not used.

// yardstick is one piece of fixed work: run does a batch of it and returns
// how many operations that was; reference is its rate in operations per
// second on the sandbox the benchmark was written on, in its quiet state.
// The references only fix the scale of the corrected figures — on that
// machine they read like the raw ones — and must never change once
// baselines exist.
type yardstick struct {
	name      string
	reference float64
	run       func(*yardstickState) int
}

type yardstickState struct {
	ring       [64][]byte
	n          int
	ping, pong chan []byte
	msg        []byte
}

var yardsticks = []yardstick{
	{"alloc", 4.5e6, func(s *yardstickState) int {
		for i := 0; i < 256; i++ {
			s.n++
			s.ring[s.n%len(s.ring)] = make([]byte, 256+(s.n%16)*64)
		}
		return 256
	}},
	{"handoff", 2.4e6, func(s *yardstickState) int {
		for i := 0; i < 128; i++ {
			s.ping <- s.msg
			<-s.pong
		}
		return 128
	}},
}

const (
	// yardstickPasses × len(yardsticks) × yardstickSlice is how long one
	// reading takes. Each piece is timed once per pass and its rate is the
	// median over the passes, so a stall that hits one slice is ignored.
	yardstickPasses = 5
	yardstickSlice  = 20 * time.Millisecond
	// yardstickBallast is live, pointer-free heap held during a reading, so
	// the collector paces itself as in a process with a real heap (the
	// workloads' processes hold 30–300 MB) instead of cycling every
	// millisecond over an empty one.
	yardstickBallast = 32 << 20
)

// yardstickSpeed takes one reading: the geometric mean, over the pieces, of
// rate / reference.
func yardstickSpeed() float64 {
	ballast := make([]uint64, yardstickBallast/8)
	s := &yardstickState{ping: make(chan []byte), pong: make(chan []byte), msg: make([]byte, 200)}
	go func() {
		for m := range s.ping {
			s.pong <- m
		}
	}()
	defer close(s.ping)

	// Untimed, until the collector has been round twice: by then the heap
	// has its steady size and every page of it has been faulted in, which
	// costs whatever the kernel and the host make of it at that moment and
	// is no part of the speed the workloads see after their warm-up.
	var mem runtime.MemStats
	for mem.NumGC < 2 {
		for i := 0; i < 64; i++ {
			for _, y := range yardsticks {
				y.run(s)
			}
		}
		runtime.ReadMemStats(&mem)
	}

	rates := make([][]float64, len(yardsticks))
	for pass := 0; pass < yardstickPasses; pass++ {
		for k, y := range yardsticks {
			ops := 0
			start := time.Now()
			for time.Since(start) < yardstickSlice {
				ops += y.run(s)
			}
			rates[k] = append(rates[k], float64(ops)/time.Since(start).Seconds())
		}
	}
	runtime.KeepAlive(ballast)
	logSum := 0.0
	for k, y := range yardsticks {
		sort.Float64s(rates[k])
		logSum += math.Log(rates[k][yardstickPasses/2] / y.reference)
	}
	return math.Exp(logSum / float64(len(yardsticks)))
}

// yardstickMain is the -yardstick child: one reading on stdout.
func yardstickMain() int {
	if err := json.NewEncoder(os.Stdout).Encode(yardstickSpeed()); err != nil {
		return 1
	}
	return 0
}

// machineSpeed takes one reading of the yardstick in a fresh process, so
// every reading starts from the same heap and scheduler state and shares
// nothing with the parent's accumulated results.
func machineSpeed() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-yardstick")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("yardstick: %w", err)
	}
	var speed float64
	if err := json.Unmarshal(out, &speed); err != nil || !(speed > 0) {
		return 0, fmt.Errorf("yardstick printed %q", out)
	}
	return speed, nil
}
