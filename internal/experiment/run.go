package experiment

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"versadep/internal/faults"
	"versadep/internal/obsplane"
	"versadep/internal/orb"
	"versadep/internal/policy"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

// Plan is one run of a Scenario: the load it offers, the events it fires at
// chosen replies, the controller it steps and the objective it grades. The
// zero Plan runs Options.Requests closed-loop requests on every client.
type Plan struct {
	// Phases is the closed loop every client runs; none means one phase of
	// Options.Requests without think time.
	Phases []ThinkPhase
	// UntilFaults runs the closed loops instead until the fault schedules
	// fired at index 0 have finished, unpaced.
	UntilFaults bool
	// Open, when set, replaces the closed loop with an open loop from the
	// first client, RealPace of real time per virtual second.
	Open     []workload.Phase
	RealPace time.Duration
	Events   []Event
	Control  *Control
	// SLO, when set, grades every reply and error at its virtual send
	// instant.
	SLO *obsplane.Engine
	// OnReply, when set, sees every reply, its client and its index in that
	// client's run, on the client's goroutine (the open loop's, under its
	// lock).
	OnReply func(client, i int, out *orb.Outcome)
}

// ThinkPhase is a closed-loop phase: Requests requests, each sent Think
// after the reply to the one before. Figure 6's profile is a list of them.
type ThinkPhase struct {
	Think    vtime.Duration
	Requests int
}

// Event is one action a plan takes at a reply index: in a closed loop, once
// the first client has At replies and before its next request leaves; in an
// open loop, once At replies are in. At 0 fires before the first request.
// Exactly one action is set.
type Event struct {
	At           int
	Switch       replication.Style // switch the group to this style
	CrashPrimary bool              // crash the rank-0 replica
	Grow         bool              // spawn a replica (Scenario.Grow)
	Retire       bool              // retire the highest-ranked replica
	// Faults starts this schedule on the fabric; Run returns after its end.
	Faults *faults.Schedule
}

// Fired is an event that fired: Addr is the replica a Grow started, Err why
// the action failed (a refused switch, a failed grow).
type Fired struct {
	Event
	Addr string
	Err  error
}

// Control is a policy controller stepped every Every replies at the plan's
// reply index (0: every reply). Its actuator is stamped with the completion
// instant of the reply that prompted the step, so a knob it multicasts is
// ordered where the load put it.
type Control struct {
	Policies []policy.Policy
	Every    int
	Cooldown time.Duration
	OnEntry  func(policy.Entry)
}

// Outcome is what a run did: each client's load in client order (an open
// loop has one), the events fired, the controller's final status, and with
// an SLO the whole-run grade and the rollup of its latency series in µs.
type Outcome struct {
	Results []*workload.Result
	Fired   []Fired
	Control policy.Status
	SLO     obsplane.Status
	Latency obsplane.WindowStat
}

// run is one Scenario.Run in progress.
type run struct {
	*Scenario
	p     Plan
	out   Outcome
	act   *replicator.ElasticActuator
	ctrl  *policy.Controller
	stamp vtime.Time        // the reply the current action answers: act's clock
	ended []<-chan struct{} // one per schedule started
}

// Run carries out p and returns once the load has been offered and every
// fault schedule it started has finished. A closed-loop client stops at its
// first failed request; the error joins those failures, and the Outcome is
// filled either way.
func (s *Scenario) Run(p Plan) (*Outcome, error) {
	r := &run{Scenario: s, p: p}
	r.act = s.group.Actuator(func([]string) error { _, err := s.Grow(); return err })
	r.act.Now = func() vtime.Time { return r.stamp }
	if c := p.Control; c != nil {
		sample := s.sensors()
		if p.SLO != nil {
			sample = p.SLO.Signals(sample)
		}
		r.ctrl = policy.New(policy.Config{Policies: c.Policies, Sample: sample, Actuator: r.act,
			Cooldown: c.Cooldown, OnEntry: c.OnEntry})
	}
	r.at(0, 0)
	var err error
	if p.Open != nil {
		r.open()
	} else {
		err = r.closed()
	}
	for _, e := range r.ended {
		<-e
	}
	if r.ctrl != nil {
		r.out.Control = r.ctrl.Status()
	}
	if p.SLO != nil {
		r.out.SLO = p.SLO.Overall()
		r.out.Latency = p.SLO.Store().Rollup(obsplane.SeriesLatencyMicros, 0)
	}
	return &r.out, err
}

// closed runs the closed loop on every client at once.
func (r *run) closed() error {
	phases := r.p.Phases
	var until chan struct{}
	if r.p.UntilFaults {
		phases, until = []ThinkPhase{{Requests: math.MaxInt}}, make(chan struct{})
		go func(ended []<-chan struct{}) {
			for _, e := range ended {
				<-e
			}
			close(until)
		}(r.ended)
	} else if len(phases) == 0 {
		phases = []ThinkPhase{{Requests: r.opts.Requests}}
	}
	clients := r.group.Clients()
	r.out.Results = make([]*workload.Result, len(clients))
	errs := make([]error, len(clients))
	pace := newPacer(len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer pace.stop(ci)
			var next vtime.Time // when the next request leaves
			sum := &workload.Result{}
			for _, ph := range phases {
				base := sum.Requests
				cl := workload.ClosedLoop{Client: c, Requests: ph.Requests, Think: ph.Think,
					RequestBytes: r.opts.RequestBytes, StartVT: next}
				cl.OnReply = func(i int, out *orb.Outcome, err error) bool {
					if err != nil {
						r.graded(next, nil)
						errs[ci] = fmt.Errorf("client %d request %d: %w", ci, base+i, err)
						return false
					}
					r.replied(ci, base+i, next, out)
					next = out.DoneVT.Add(ph.Think)
					if ci == 0 {
						r.at(base+i+1, out.DoneVT)
					}
					if until == nil {
						pace.advance(ci, next)
						return true
					}
					select {
					case <-until:
						return false
					default:
						return true
					}
				}
				res := cl.Run()
				sum.Requests += res.Requests
				sum.Errors += res.Errors
				sum.Latency.AddSnapshot(res.Latency.Snapshot())
				sum.EndVT = res.EndVT
				if errs[ci] != nil {
					break
				}
			}
			r.out.Results[ci] = sum
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// open runs the open loop from the first client.
func (r *run) open() {
	replies := 0
	loop := workload.OpenLoop{Client: r.group.Clients()[0], RequestBytes: r.opts.RequestBytes,
		Phases: r.p.Open, RealPace: r.p.RealPace,
		OnError: func(sent vtime.Time, _ error) { r.graded(sent, nil) },
		OnReply: func(_ string, sent vtime.Time, out *orb.Outcome) {
			r.replied(0, replies, sent, out)
			replies++
			r.at(replies, out.DoneVT)
		},
	}
	r.out.Results = []*workload.Result{loop.Run()}
}

// replied records a reply to a request sent at sent: the virtual time the
// run has covered, its grade and the plan's readout.
func (r *run) replied(client, i int, sent vtime.Time, out *orb.Outcome) {
	r.mu.Lock()
	r.maxEnd = max(r.maxEnd, out.DoneVT)
	r.mu.Unlock()
	r.graded(sent, out)
	if r.p.OnReply != nil {
		r.p.OnReply(client, i, out)
	}
}

// graded puts a request sent at sent into the SLO store: its latency and a
// good outcome, or a bad one when out is nil.
func (r *run) graded(sent vtime.Time, out *orb.Outcome) {
	if r.p.SLO == nil {
		return
	}
	if st := r.p.SLO.Store(); out == nil {
		st.Observe(obsplane.SeriesBad, int64(sent), 1)
	} else {
		st.Observe(obsplane.SeriesLatencyMicros, int64(sent), out.RTT().Microseconds())
		st.Observe(obsplane.SeriesGood, int64(sent), 1)
	}
}

// at reaches reply index n, whose reply completed at vt: the controller
// steps if n is on its beat, then the events at n fire, in plan order.
func (r *run) at(n int, vt vtime.Time) {
	r.stamp = vt
	if r.ctrl != nil && n > 0 && n%max(r.p.Control.Every, 1) == 0 {
		r.ctrl.Step()
	}
	for _, ev := range r.p.Events {
		if ev.At != n {
			continue
		}
		f := Fired{Event: ev}
		switch live := r.group.Live(); {
		case ev.Switch != 0:
			f.Err = r.act.SwitchStyle(ev.Switch)
		case ev.CrashPrimary && len(live) > 0:
			r.net.Crash(live[0].Addr())
		case ev.Grow:
			f.Addr, f.Err = r.Grow()
		case ev.Retire:
			f.Err = r.act.Shrink()
		case ev.Faults != nil:
			r.ended = append(r.ended, faults.Run(r.net, ev.Faults))
		}
		r.out.Fired = append(r.out.Fired, f)
	}
}

// lagWindow is how far a paced client's virtual clock may run ahead of the
// slowest running client's: a few round trips.
const lagWindow = 5 * vtime.Millisecond

// pacer keeps closed-loop clients' virtual clocks together. A client's clock
// advances only as fast as the Go scheduler runs its goroutine, so one client
// may issue many requests while another waits for a processor. Its requests
// are then ordered first, and the other client's later deliveries inherit its
// virtual time: a latency the model never put there, sized by the scheduler.
// The pacer holds a client that would send more than lagWindow ahead of
// another running client until that one catches up or stops; the client with
// the earliest clock is never held.
type pacer struct {
	mu    sync.Mutex
	moved *sync.Cond
	clock []vtime.Time // each client's next send; a stopped one's is the end of time
}

func newPacer(clients int) *pacer {
	p := &pacer{clock: make([]vtime.Time, clients)}
	p.moved = sync.NewCond(&p.mu)
	return p
}

// advance records that client i sends next at t, and returns once no client
// is more than lagWindow behind it.
func (p *pacer) advance(i int, t vtime.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clock[i] = t
	p.moved.Broadcast()
	for slices.Min(p.clock) < t.Add(-lagWindow) {
		p.moved.Wait()
	}
}

// stop takes client i, whose cycle has ended, out of the pacing.
func (p *pacer) stop(i int) {
	p.mu.Lock()
	p.clock[i] = math.MaxInt64
	p.moved.Broadcast()
	p.mu.Unlock()
}
