package policy

import (
	"sync"
	"time"
)

// FaultMeter turns the crash stream observed in view changes into the
// per-replica availability estimate the AvailabilityTarget policy plans
// against. It models each replica as an alternating up/down process: with
// observed crash rate λ (crashes per second over a sliding window) and an
// assumed mean time to repair, availability ≈ MTTF/(MTTF+MTTR) =
// 1/(1+λ·MTTR). With no crashes in the window it reports Prior — the
// deployment's assumed healthy per-replica availability — rather than a
// perfect 1.0, so a quiet group still plans a sensible redundancy floor.
//
// The meter runs on the real-time clock (crash detection itself is
// real-time); tests inject a fake clock with SetClock.
type FaultMeter struct {
	mu     sync.Mutex
	window time.Duration
	mttr   time.Duration
	prior  float64
	now    func() time.Time
	events []time.Time // one entry per observed crash
}

// NewFaultMeter builds a meter. window is the crash-rate observation
// window (default 60s); mttr is the assumed per-replica repair time
// (default 1s). The healthy prior defaults to 0.99.
func NewFaultMeter(window, mttr time.Duration) *FaultMeter {
	if window <= 0 {
		window = 60 * time.Second
	}
	if mttr <= 0 {
		mttr = time.Second
	}
	return &FaultMeter{window: window, mttr: mttr, prior: 0.99, now: time.Now}
}

// SetPrior overrides the healthy (no observed crashes) availability.
func (m *FaultMeter) SetPrior(a float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if a > 0 && a < 1 {
		m.prior = a
	}
}

// SetClock injects a clock for deterministic tests.
func (m *FaultMeter) SetClock(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now = now
}

// ObserveCrashes records n crash departures at the current instant (fed
// from NoticeView.Crashed, which already excludes graceful leaves and
// retirements).
func (m *FaultMeter) ObserveCrashes(n int) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	at := m.now()
	for i := 0; i < n; i++ {
		m.events = append(m.events, at)
	}
	m.prune(at)
}

// Availability returns the current per-replica availability estimate in
// (0,1): the prior when the window holds no crashes, 1/(1+λ·MTTR)
// otherwise.
func (m *FaultMeter) Availability() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prune(m.now())
	if len(m.events) == 0 {
		return m.prior
	}
	lambda := float64(len(m.events)) / m.window.Seconds()
	a := 1 / (1 + lambda*m.mttr.Seconds())
	if a >= m.prior {
		a = m.prior // crashes can only lower the estimate below healthy
	}
	return a
}

// prune drops events older than the window; callers hold the lock.
func (m *FaultMeter) prune(now time.Time) {
	cut := now.Add(-m.window)
	i := 0
	for i < len(m.events) && m.events[i].Before(cut) {
		i++
	}
	if i > 0 {
		m.events = append([]time.Time(nil), m.events[i:]...)
	}
}
