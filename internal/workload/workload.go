// Package workload provides the client load generators and the benchmark
// application used by the evaluation harness.
//
// The paper drives its prototype with a CORBA client–server
// micro-benchmark "that processes a cycle of 10,000 requests" (§4),
// parameterized by the application properties of Table 1 that are *not*
// under the replicator's control: the frequency of requests, the sizes of
// requests and responses, and the size of the application state. BenchApp
// reproduces that application; ClosedLoop reproduces the request cycle;
// OpenLoop reproduces the varying-arrival-rate load of Figure 6.
package workload

import (
	"fmt"
	"sync"
	"time"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/replicator"
	"versadep/internal/trace/hist"
	"versadep/internal/vtime"
)

// BenchApp is the deterministic benchmark servant: it counts invocations
// and carries a configurable amount of state, execution cost and reply
// padding — the Table 1 application parameters.
type BenchApp struct {
	mu sync.Mutex
	// StateBytes is the size of the checkpointable application state.
	stateBytes int
	// ExecCost is the virtual execution time per request.
	execCost vtime.Duration
	// ReplyBytes pads every reply to model response size.
	replyBytes int

	counter int64
}

// NewBenchApp creates a benchmark application.
func NewBenchApp(stateBytes int, execCost vtime.Duration, replyBytes int) *BenchApp {
	return &BenchApp{stateBytes: stateBytes, execCost: execCost, replyBytes: replyBytes}
}

// Invoke implements orb.Servant: "work" increments and returns the
// counter plus reply padding; "read" returns it without mutating.
func (a *BenchApp) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "work":
		a.counter++
		return []codec.Value{codec.Int(a.counter), codec.Bytes(make([]byte, a.replyBytes))}, nil
	case "read":
		return []codec.Value{codec.Int(a.counter)}, nil
	default:
		return nil, fmt.Errorf("bench: unknown op %q", op)
	}
}

// ExecCost implements orb.ExecCoster.
func (a *BenchApp) ExecCost(string, []codec.Value) vtime.Duration { return a.execCost }

// Counter returns the current invocation count.
func (a *BenchApp) Counter() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counter
}

// State implements replication.Checkpointable: the counter plus padding
// up to the configured state size, serialised once. The padding is a
// length-prefixed run of zeros, which the buffer already holds past the
// prefix.
func (a *BenchApp) State() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := codec.NewEncoder(8 + 4 + a.stateBytes)
	e.PutInt64(a.counter)
	e.PutUint32(uint32(a.stateBytes))
	b := e.Bytes()
	return b[:len(b)+a.stateBytes]
}

// Restore implements replication.Checkpointable.
func (a *BenchApp) Restore(state []byte) error {
	d := codec.NewDecoder(state)
	counter, err := d.Int64()
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.counter = counter
	a.mu.Unlock()
	return nil
}

// Result aggregates a load generator run.
type Result struct {
	// Latency collects per-request round-trip times, virtual ns.
	Latency hist.Histogram
	// Requests is the number of completed requests.
	Requests int
	// Errors counts failed invocations.
	Errors int
	// StartVT and EndVT bracket the run in virtual time.
	StartVT, EndVT vtime.Time
}

// Makespan is the virtual duration of the run.
func (r *Result) Makespan() vtime.Duration { return r.EndVT.Sub(r.StartVT) }

// Throughput is completed requests per virtual second.
func (r *Result) Throughput() float64 {
	mk := r.Makespan()
	if mk <= 0 {
		return 0
	}
	return float64(r.Requests) / mk.Seconds()
}

// ClosedLoop is the paper's request cycle: one client issuing requests
// back-to-back, each after the previous reply (plus think time).
type ClosedLoop struct {
	// Client performs the invocations.
	Client *replicator.ClientNode
	// Object and Op name the target; default Bench/work.
	Object, Op string
	// Requests is the cycle length (the paper uses 10,000).
	Requests int
	// Think is virtual think time between reply and next request.
	Think vtime.Duration
	// RequestBytes pads each request to model request size.
	RequestBytes int
	// StartVT is the virtual start instant.
	StartVT vtime.Time
	// OnReply, if set, sees every request's end before the next one
	// leaves — its index and the reply, or the error that failed it — and
	// ends the cycle there by returning false.
	OnReply func(i int, out *orb.Outcome, err error) bool
}

// Run executes the cycle, returning aggregate results.
func (c ClosedLoop) Run() *Result {
	object, op := c.Object, c.Op
	if object == "" {
		object = "Bench"
	}
	if op == "" {
		op = "work"
	}
	res := &Result{StartVT: c.StartVT}
	vt := c.StartVT
	args := []interface{}{[]byte(make([]byte, c.RequestBytes))}
	for i := 0; i < c.Requests; i++ {
		out, err := c.Client.Invoke(object, op, args, vt)
		if err != nil {
			res.Errors++
		} else {
			res.Requests++
			res.Latency.Observe(int64(out.RTT()))
			vt = out.DoneVT.Add(c.Think)
		}
		if c.OnReply != nil && !c.OnReply(i, out, err) {
			break
		}
	}
	res.EndVT = vt
	return res
}

// Phase is one segment of an open-loop arrival profile.
type Phase struct {
	// Rate is the arrival rate in requests per virtual second.
	Rate float64
	// Requests is how many arrivals this phase generates.
	Requests int
}

// OpenLoop issues requests at scheduled virtual arrival times regardless
// of completions — the workload shape of Figure 6, where the offered rate
// ramps and the system adapts.
type OpenLoop struct {
	Client     *replicator.ClientNode
	Object, Op string
	// Objects, when non-empty, spreads arrivals round-robin across many
	// object references (overriding Object) — the access pattern sharded
	// deployments split over the consistent-hash ring.
	Objects      []string
	RequestBytes int
	Phases       []Phase
	StartVT      vtime.Time
	// MaxOutstanding caps concurrent in-flight invocations (real
	// concurrency; default 64).
	MaxOutstanding int
	// RealPace throttles submission in real time: one virtual second of
	// arrival schedule takes this much real time to offer. Zero submits
	// as fast as MaxOutstanding allows. Either way each request is sent
	// before the next is started, so requests reach the fabric in
	// arrival order: a FIFO link charges an earlier-stamped request that
	// trails a later-stamped one the gap as wire time. Pacing keeps the
	// run's real-time machinery (failure detectors, timed fault holds) in
	// step with the arrival schedule.
	RealPace time.Duration
	// OnReply, if set, observes each completed request: the object it
	// targeted (per-shard attribution keys on it), its virtual arrival
	// time and its outcome. Called from worker goroutines, under the
	// loop's result lock.
	OnReply func(object string, sentVT vtime.Time, out *orb.Outcome)
	// OnError, if set, observes each failed invocation (virtual arrival
	// time and the error). Called from worker goroutines; SLO graders use
	// it to place bad outcomes in the right time window.
	OnError func(sentVT vtime.Time, err error)
}

// Run executes the profile and returns aggregate results.
func (o OpenLoop) Run() *Result {
	object, op := o.Object, o.Op
	if object == "" {
		object = "Bench"
	}
	if op == "" {
		op = "work"
	}
	maxOut := o.MaxOutstanding
	if maxOut <= 0 {
		maxOut = 64
	}
	res := &Result{StartVT: o.StartVT}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOut)

	var epoch time.Time
	if o.RealPace > 0 {
		epoch = time.Now()
	}
	vt := o.StartVT
	args := []interface{}{[]byte(make([]byte, o.RequestBytes))}
	seq := 0
	for _, ph := range o.Phases {
		if ph.Rate <= 0 {
			continue
		}
		gap := vtime.Duration(float64(vtime.Second) / ph.Rate)
		for i := 0; i < ph.Requests; i++ {
			arrive := vt
			vt = vt.Add(gap)
			target := object
			if len(o.Objects) > 0 {
				target = o.Objects[seq%len(o.Objects)]
			}
			seq++
			if o.RealPace > 0 {
				offset := float64(arrive.Sub(o.StartVT)) / float64(vtime.Second)
				due := epoch.Add(time.Duration(offset * float64(o.RealPace)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
			}
			sem <- struct{}{}
			wg.Add(1)
			// Go sends before it returns, so requests reach the fabric in
			// arrival order even when a late pacer starts several at once.
			o.Client.Go(target, op, args, arrive, func(out *orb.Outcome, err error) {
				defer wg.Done()
				defer func() { <-sem }()
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					res.Errors++
					if o.OnError != nil {
						o.OnError(arrive, err)
					}
					return
				}
				res.Requests++
				res.Latency.Observe(int64(out.RTT()))
				if out.DoneVT.After(res.EndVT) {
					res.EndVT = out.DoneVT
				}
				if o.OnReply != nil {
					o.OnReply(target, arrive, out)
				}
			})
		}
	}
	wg.Wait()
	if res.EndVT.Before(vt) {
		res.EndVT = vt
	}
	return res
}
