package monitor

import (
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
