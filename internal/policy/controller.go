package policy

import (
	"strconv"
	"sync"
	"time"

	"versadep/internal/replication"
)

// Actuator is the single surface through which a Controller turns the
// three low-level knobs. The implementation is replicator.ElasticActuator,
// bound to one live node or — for an in-process group — resolving the
// first live replica at every action; tests substitute fakes.
type Actuator interface {
	// SwitchStyle initiates a runtime replication-style switch (the
	// Figure 5 protocol on the agreed stream).
	SwitchStyle(target replication.Style) error
	// SetCheckpointEvery retunes the checkpointing-frequency knob.
	SetCheckpointEvery(every int) error
	// Grow admits one fresh replica: join, state transfer from the
	// latest checkpoint plus the log suffix, then live in the view.
	Grow() error
	// Shrink gracefully retires one replica (never the last).
	Shrink() error
}

// Entry is one decision-log record: an actuation, or one the actuator
// refused or failed (Err says why), with the policy and reasoning behind it.
type Entry struct {
	At     time.Time `json:"at"`
	Policy string    `json:"policy"`
	Knob   string    `json:"knob"`
	Action string    `json:"action"`
	Reason string    `json:"reason,omitempty"`
	Err    string    `json:"err,omitempty"`
}

// Config parameterizes a Controller.
type Config struct {
	// Policies in descending priority: for each knob the first policy
	// with an opinion wins, and replica-count actuations are clamped to
	// the highest MinReplicas floor any policy declares.
	Policies []Policy
	// Sample yields the current signals.
	Sample func() Signals
	// Actuator applies decisions.
	Actuator Actuator
	// Cooldown is the minimum time between actuations of the same knob
	// (flap damping); zero disables damping.
	Cooldown time.Duration
	// Now injects a clock for deterministic tests (default time.Now).
	Now func() time.Time
	// Gate, when set, must return true for a step to run — e.g. restrict
	// actuation to the primary so a group runs exactly one control loop.
	Gate func() bool
	// OnEntry, when set, observes every appended log entry (called
	// outside the controller lock).
	OnEntry func(Entry)
}

// logDepth bounds the decision log.
const logDepth = 64

// Controller runs the closed adaptation loop: sample → decide → merge →
// actuate, with per-knob cooldown and a bounded decision log.
type Controller struct {
	cfg Config

	mu         sync.Mutex
	lastAct    map[string]time.Time
	log        []Entry
	lastSig    Signals
	steps      int
	actuations int
	suppressed int
}

// New builds a controller; Sample and Actuator are required.
func New(cfg Config) *Controller {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Controller{cfg: cfg, lastAct: make(map[string]time.Time)}
}

// knobDecision is one merged per-knob outcome awaiting actuation.
type knobDecision struct {
	knob   string
	policy string
	action string
	reason string
	apply  func() error
}

// Step runs one control iteration and returns the log entries it
// produced (empty when gated, idle, or fully suppressed by cooldown).
func (c *Controller) Step() []Entry {
	if c.cfg.Sample == nil || c.cfg.Actuator == nil {
		return nil
	}
	if c.cfg.Gate != nil && !c.cfg.Gate() {
		return nil
	}
	sig := c.cfg.Sample()

	// Merge: first opinion per knob in priority order; collect floors.
	floor := 0
	var style replication.Style
	var replicas, ckpt int
	var styleBy, replBy, ckptBy Policy
	var styleWhy, replWhy, ckptWhy string
	for _, p := range c.cfg.Policies {
		d := p.Decide(sig)
		if d.MinReplicas > floor {
			floor = d.MinReplicas
		}
		if style == 0 && d.Style != 0 && d.Style != sig.Style {
			style, styleBy, styleWhy = d.Style, p, d.Reason
		}
		if replicas == 0 && d.Replicas != 0 && d.Replicas != sig.Replicas {
			replicas, replBy, replWhy = d.Replicas, p, d.Reason
		}
		if ckpt == 0 && d.CheckpointEvery != 0 && d.CheckpointEvery != sig.CheckpointEvery {
			ckpt, ckptBy, ckptWhy = d.CheckpointEvery, p, d.Reason
		}
	}
	// Fault-tolerance floors beat resource pressure: a shed below the
	// highest declared floor is clamped (and dropped if the clamp lands
	// on the current size).
	if replicas != 0 && replicas < floor {
		replWhy = replWhy + " (clamped to fault-tolerance floor)"
		replicas = floor
		if replicas == sig.Replicas {
			replicas = 0
		}
	}

	now := c.cfg.Now()
	var pending []knobDecision
	if style != 0 {
		pending = append(pending, knobDecision{
			knob: "style", policy: styleBy.Name(),
			action: "switch to " + style.String(), reason: styleWhy,
			apply: func() error { return c.cfg.Actuator.SwitchStyle(style) },
		})
	}
	if replicas != 0 {
		// One step per iteration: each grow/shrink re-samples before the
		// next, so the group converges without overshooting.
		verb, apply := "shrink ", c.cfg.Actuator.Shrink
		if replicas > sig.Replicas {
			verb, apply = "grow ", c.cfg.Actuator.Grow
		}
		pending = append(pending, knobDecision{
			knob: "replicas", policy: replBy.Name(), reason: replWhy, apply: apply,
			action: verb + strconv.Itoa(sig.Replicas) + "→" + strconv.Itoa(replicas),
		})
	}
	if ckpt != 0 {
		pending = append(pending, knobDecision{
			knob: "checkpoint", policy: ckptBy.Name(),
			action: "set checkpoint interval " + strconv.Itoa(ckpt), reason: ckptWhy,
			apply: func() error { return c.cfg.Actuator.SetCheckpointEvery(ckpt) },
		})
	}

	c.mu.Lock()
	c.steps++
	c.lastSig = sig
	var runnable []knobDecision
	for _, kd := range pending {
		if last, ok := c.lastAct[kd.knob]; ok && c.cfg.Cooldown > 0 && now.Sub(last) < c.cfg.Cooldown {
			c.suppressed++
			continue
		}
		c.lastAct[kd.knob] = now
		runnable = append(runnable, kd)
	}
	c.mu.Unlock()

	var out []Entry
	for _, kd := range runnable {
		err := kd.apply()
		e := Entry{At: now, Policy: kd.policy, Knob: kd.knob, Action: kd.action, Reason: kd.reason}
		if err != nil {
			e.Err = err.Error()
		}
		out = append(out, e)
	}
	if len(out) > 0 {
		c.mu.Lock()
		for _, e := range out {
			if e.Err == "" {
				c.actuations++
			}
			c.log = append(c.log, e)
		}
		if over := len(c.log) - logDepth; over > 0 {
			c.log = append([]Entry(nil), c.log[over:]...)
		}
		c.mu.Unlock()
		if c.cfg.OnEntry != nil {
			for _, e := range out {
				c.cfg.OnEntry(e)
			}
		}
	}
	return out
}

// Start runs Step every interval in a background goroutine until the
// returned stop function is called.
func (c *Controller) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				c.Step()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-stopped
		})
	}
}

// KnobsStatus is the current knob settings as last sampled.
type KnobsStatus struct {
	Style           string `json:"style"`
	Replicas        int    `json:"replicas"`
	CheckpointEvery int    `json:"checkpoint_every"`
}

// Status is the /policy introspection payload: current knobs and signals,
// the policy stack, and the bounded decision log (newest last).
type Status struct {
	Knobs      KnobsStatus `json:"knobs"`
	Signals    Signals     `json:"signals"`
	Policies   []string    `json:"policies"`
	CooldownMs int64       `json:"cooldown_ms"`
	Steps      int         `json:"steps"`
	Actuations int         `json:"actuations"`
	Suppressed int         `json:"suppressed"`
	Decisions  []Entry     `json:"decisions"`
}

// Status snapshots the controller for introspection.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.cfg.Policies))
	for _, p := range c.cfg.Policies {
		names = append(names, p.Name())
	}
	return Status{
		Knobs: KnobsStatus{
			Style:           c.lastSig.Style.String(),
			Replicas:        c.lastSig.Replicas,
			CheckpointEvery: c.lastSig.CheckpointEvery,
		},
		Signals:    c.lastSig,
		Policies:   names,
		CooldownMs: c.cfg.Cooldown.Milliseconds(),
		Steps:      c.steps,
		Actuations: c.actuations,
		Suppressed: c.suppressed,
		Decisions:  append([]Entry(nil), c.log...),
	}
}
