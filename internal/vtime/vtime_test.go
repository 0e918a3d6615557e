package vtime

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(5 * Microsecond)
	if got := t1.Sub(t0); got != 5*Microsecond {
		t.Fatalf("Sub = %v, want 5µs", got)
	}
	if !t0.Before(t1) || !t1.After(t0) {
		t.Fatalf("ordering broken: t0=%v t1=%v", t0, t1)
	}
	if got := t0.Max(t1); got != t1 {
		t.Fatalf("Max = %v, want %v", got, t1)
	}
	if got := t1.Micros(); got != 5 {
		t.Fatalf("Micros = %v, want 5", got)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500 * Microsecond).String(); got != "1500.0µs" {
		t.Fatalf("String = %q", got)
	}
}

func TestDefaultCostModelMatchesFigure3(t *testing.T) {
	m := DefaultCostModel()
	// Round-trip contributions per the package comment: the GC layer is
	// crossed four times, orders once, and makes roughly three wire hops
	// carrying ≈400-byte framed messages in the micro-benchmark (the
	// empirical counterpart is TestFig3BreakdownMatchesPaperShape in
	// internal/experiment).
	orb := 4 * m.ORBMarshal
	wire := m.Transmit(400)
	gc := 4*m.GCSend + m.GCOrder + 3*wire
	rep := 4 * m.Intercept
	if orb < 380*Microsecond || orb > 420*Microsecond {
		t.Errorf("ORB round-trip contribution %v outside paper's ≈398µs", orb)
	}
	if gc < 600*Microsecond || gc > 640*Microsecond {
		t.Errorf("GC round-trip contribution %v outside paper's ≈620µs", gc)
	}
	if rep < 140*Microsecond || rep > 170*Microsecond {
		t.Errorf("replicator round-trip contribution %v outside paper's ≈154µs", rep)
	}
}

func TestTransmit(t *testing.T) {
	m := DefaultCostModel()
	zero := m.Transmit(0)
	if zero != m.WireBase {
		t.Fatalf("Transmit(0) = %v, want wire base %v", zero, m.WireBase)
	}
	// 12.5 MB at 12.5 MB/s should take about one second over the base.
	d := m.Transmit(12_500_000)
	want := m.WireBase + Second
	if d < want-Millisecond || d > want+Millisecond {
		t.Fatalf("Transmit(12.5MB) = %v, want ≈%v", d, want)
	}
	// Degenerate model: no bandwidth configured.
	m.BytesPerSecond = 0
	if got := m.Transmit(1 << 20); got != m.WireBase {
		t.Fatalf("Transmit with zero bandwidth = %v, want %v", got, m.WireBase)
	}
}

func TestTransmitMonotonic(t *testing.T) {
	m := DefaultCostModel()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return m.Transmit(x) <= m.Transmit(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCostGrowsWithState(t *testing.T) {
	m := DefaultCostModel()
	small := m.CheckpointCost(100)
	big := m.CheckpointCost(1 << 20)
	if small <= m.CheckpointBase {
		t.Fatalf("small checkpoint %v should exceed base %v", small, m.CheckpointBase)
	}
	if big <= small {
		t.Fatalf("checkpoint cost not increasing: %v <= %v", big, small)
	}
}

func TestJitterBounds(t *testing.T) {
	m := DefaultCostModel()
	d := 100 * Microsecond
	lo := m.Jitter(d, 0)
	hi := m.Jitter(d, 0.999999)
	if lo >= d || hi <= d {
		t.Fatalf("jitter range [%v,%v] should straddle %v", lo, hi, d)
	}
	wantLo := time.Duration(float64(d) * (1 - m.JitterFrac))
	if lo != wantLo {
		t.Fatalf("low jitter = %v, want %v", lo, wantLo)
	}
	m.JitterFrac = 0
	if got := m.Jitter(d, 0.5); got != d {
		t.Fatalf("zero jitter model changed duration: %v", got)
	}
}

func TestJitterPreservesMean(t *testing.T) {
	m := DefaultCostModel()
	r := NewRand(7)
	d := 200 * Microsecond
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += m.Jitter(d, r.Float64())
	}
	mean := sum / n
	if mean < d-2*Microsecond || mean > d+2*Microsecond {
		t.Fatalf("jitter mean %v drifted from %v", mean, d)
	}
}

func TestServerQueueing(t *testing.T) {
	var s Server
	// Job arriving at t=0 costing 10µs finishes at 10µs.
	d1 := s.Execute(0, 10*Microsecond)
	if d1 != Time(10*Microsecond) {
		t.Fatalf("first job done at %v", d1)
	}
	// Job arriving at t=2µs must queue behind the first.
	d2 := s.Execute(Time(2*Microsecond), 10*Microsecond)
	if d2 != Time(20*Microsecond) {
		t.Fatalf("queued job done at %v, want 20µs", d2)
	}
	// Job arriving after idle starts immediately.
	d3 := s.Execute(Time(50*Microsecond), 10*Microsecond)
	if d3 != Time(60*Microsecond) {
		t.Fatalf("idle-start job done at %v, want 60µs", d3)
	}
}

func TestServerCompletionMonotonic(t *testing.T) {
	// Jobs that reach the server in arrival order are served as a FIFO
	// queue: start = max(arrival, previous completion), so completions are
	// non-decreasing.
	f := func(arrivals []uint32) bool {
		slices.Sort(arrivals)
		var s Server
		var last Time
		for _, a := range arrivals {
			done := s.Execute(Time(a), 5*Microsecond)
			if done != Time(a).Max(last).Add(5*Microsecond) {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServerFillsIdleGaps: a job whose call comes after work that arrives
// later in virtual time runs in the idle gap before that work if it fits,
// and queues behind it if it does not.
func TestServerFillsIdleGaps(t *testing.T) {
	var s Server
	if d := s.Execute(Time(100*Microsecond), 10*Microsecond); d != Time(110*Microsecond) {
		t.Fatalf("first job done at %v", d)
	}
	if d := s.Execute(Time(20*Microsecond), 10*Microsecond); d != Time(30*Microsecond) {
		t.Fatalf("a job arriving in the idle gap done at %v, want 30µs", d)
	}
	if d := s.Execute(Time(85*Microsecond), 10*Microsecond); d != Time(95*Microsecond) {
		t.Fatalf("a job that fits before the later one done at %v, want 95µs", d)
	}
	if d := s.Execute(Time(90*Microsecond), 10*Microsecond); d != Time(120*Microsecond) {
		t.Fatalf("a job overlapping the later one done at %v, want 120µs", d)
	}
	if d := s.Execute(Time(30*Microsecond), 60*Microsecond); d != Time(180*Microsecond) {
		t.Fatalf("a job longer than every gap done at %v, want 180µs", d)
	}
}

// TestServerOrderFreeWhenIdle: jobs that never overlap complete at arrival
// plus cost in whatever order they reach the server.
func TestServerOrderFreeWhenIdle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Server
		for _, i := range r.Perm(200) {
			at := Time(i) * Time(10*Microsecond)
			if s.Execute(at, 5*Microsecond) != at.Add(5*Microsecond) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServerScheduleBounded: a server keeps at most maxBusy intervals; a job
// arriving before the forgotten ones ended starts after them.
func TestServerScheduleBounded(t *testing.T) {
	var s Server
	for i := 0; i < 3*maxBusy; i++ {
		s.Execute(Time(i)*Time(10*Microsecond), Microsecond)
	}
	if len(s.busy) > maxBusy {
		t.Fatalf("%d intervals kept, want at most %d", len(s.busy), maxBusy)
	}
	if s.floor == 0 {
		t.Fatal("nothing was forgotten")
	}
	if d := s.Execute(0, Microsecond); d != s.floor.Add(Microsecond) {
		t.Fatalf("a job arriving before the floor done at %v, want floor %v + 1µs", d, s.floor)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	c := NewRand(43)
	same := true
	a2 := NewRand(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(2)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) did not cover range, saw %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRandFork(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams start identically")
	}
}
