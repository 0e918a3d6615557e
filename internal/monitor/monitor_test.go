package monitor

import (
	"math/rand"
	"testing"

	"versadep/internal/vtime"
)

func TestRateMeter(t *testing.T) {
	m := NewRateMeter(10)
	if m.Rate() != 0 {
		t.Fatal("rate before samples should be 0")
	}
	// 1 event per millisecond = 1000/s.
	for i := 0; i < 10; i++ {
		m.Record(vtime.Time(i) * vtime.Time(vtime.Millisecond))
	}
	if r := m.Rate(); r < 999 || r > 1001 {
		t.Fatalf("rate = %v, want ≈1000", r)
	}
	// The window slides: a burst of same-timestamp events yields 0 span
	// protection.
	m2 := NewRateMeter(4)
	for i := 0; i < 4; i++ {
		m2.Record(vtime.Time(5 * vtime.Millisecond))
	}
	if m2.Rate() != 0 {
		t.Fatalf("zero-span rate = %v", m2.Rate())
	}
}

func TestRateMeterWindowSlides(t *testing.T) {
	m := NewRateMeter(5)
	// Slow phase then fast phase; the window must reflect the fast tail.
	for i := 0; i < 5; i++ {
		m.Record(vtime.Time(i) * vtime.Time(vtime.Second))
	}
	base := vtime.Time(5 * vtime.Second)
	for i := 0; i < 5; i++ {
		m.Record(base + vtime.Time(i)*vtime.Time(vtime.Millisecond))
	}
	if r := m.Rate(); r < 900 {
		t.Fatalf("rate = %v, window did not slide", r)
	}
}

func TestBandwidth(t *testing.T) {
	// 3 MB over 1 virtual second = 3 MB/s.
	if got := Bandwidth(3_000_000, vtime.Second); got != 3.0 {
		t.Fatalf("bandwidth = %v", got)
	}
	if got := Bandwidth(100, 0); got != 0 {
		t.Fatalf("zero-span bandwidth = %v", got)
	}
}

func TestLedgerBreakdown(t *testing.T) {
	var l1, l2 vtime.Ledger
	l1.Charge(vtime.ComponentORB, 400*vtime.Microsecond)
	l2.Charge(vtime.ComponentORB, 200*vtime.Microsecond)
	l2.Charge(vtime.ComponentGC, 600*vtime.Microsecond)
	bd := LedgerBreakdown([]vtime.Ledger{l1, l2})
	if bd[vtime.ComponentORB] != 300*vtime.Microsecond {
		t.Fatalf("ORB avg = %v", bd[vtime.ComponentORB])
	}
	if bd[vtime.ComponentGC] != 300*vtime.Microsecond {
		t.Fatalf("GC avg = %v", bd[vtime.ComponentGC])
	}
	if len(LedgerBreakdown(nil)) != 0 {
		t.Fatal("empty breakdown should be empty")
	}
}

// sliceRateMeter is the meter the ring replaced, kept as the oracle: the
// last window stamps in a slice that append grows and re-slices.
type sliceRateMeter struct {
	window int
	stamps []vtime.Time
}

func (m *sliceRateMeter) Record(vt vtime.Time) {
	m.stamps = append(m.stamps, vt)
	if len(m.stamps) > m.window {
		m.stamps = m.stamps[len(m.stamps)-m.window:]
	}
}

func (m *sliceRateMeter) Rate() float64 {
	if len(m.stamps) < 2 {
		return 0
	}
	span := m.stamps[len(m.stamps)-1].Sub(m.stamps[0])
	if span <= 0 {
		return 0
	}
	return float64(len(m.stamps)-1) / span.Seconds()
}

// TestRateMeterMatchesSlice: over 1,000 seeded streams — windows from the
// minimum up, stamps that repeat and go backwards — the ring reads exactly
// what the slice meter read after every stamp.
func TestRateMeterMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := rng.Intn(30) // below the minimum too
		ring := NewRateMeter(window)
		oracle := &sliceRateMeter{window: max(window, 2)}
		vt := vtime.Time(rng.Int63n(1e9))
		for i, n := 0, rng.Intn(200); i < n; i++ {
			switch rng.Intn(8) {
			case 0: // out of order
				vt -= vtime.Time(rng.Int63n(int64(vtime.Millisecond)))
			case 1: // the same instant again
			default:
				vt += vtime.Time(rng.Int63n(int64(vtime.Millisecond)))
			}
			ring.Record(vt)
			oracle.Record(vt)
			if got, want := ring.Rate(), oracle.Rate(); got != want {
				t.Fatalf("seed %d, window %d, stamp %d: rate %v, the slice meter read %v", seed, window, i, got, want)
			}
		}
	}
}

// TestRateMeterRecordAllocatesNothing: a full window records by
// overwriting its oldest stamp.
func TestRateMeterRecordAllocatesNothing(t *testing.T) {
	m := NewRateMeter(16)
	vt := vtime.Time(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		vt += vtime.Time(vtime.Microsecond)
		m.Record(vt)
	}); allocs != 0 {
		t.Errorf("Record: %v allocations, want 0", allocs)
	}
}
