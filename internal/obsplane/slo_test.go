package obsplane

import (
	"math"
	"testing"
	"time"

	"versadep/internal/policy"
)

func TestParseSLO(t *testing.T) {
	spec, err := ParseSLO("p99<5ms,avail>0.999:30s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Window != 30*time.Second {
		t.Fatalf("window = %v", spec.Window)
	}
	if len(spec.Objectives) != 2 {
		t.Fatalf("objectives = %d", len(spec.Objectives))
	}
	lat := spec.Objectives[0]
	if lat.Kind != ObjLatency || lat.Quantile != 0.99 || lat.ThresholdMicros != 5000 || lat.Target != 0.99 {
		t.Fatalf("latency objective = %+v", lat)
	}
	av := spec.Objectives[1]
	if av.Kind != ObjAvail || av.Target != 0.999 {
		t.Fatalf("avail objective = %+v", av)
	}

	// p999 parses as 0.999 (digits after p are a decimal fraction).
	spec, err = ParseSLO("p999<1s:1m")
	if err != nil {
		t.Fatal(err)
	}
	if q := spec.Objectives[0].Quantile; q != 0.999 {
		t.Fatalf("p999 quantile = %v", q)
	}

	for _, bad := range []string{
		"",               // empty
		"p99<5ms",        // no window
		"p99<5ms:0s",     // zero window
		"p99<5ms:xyz",    // bad window
		"p0<5ms:30s",     // quantile 0
		"p99>5ms:30s",    // wrong comparator
		"p99<banana:30s", // bad duration
		"avail<0.9:30s",  // wrong comparator
		"avail>1.5:30s",  // fraction out of range
		"avail>0:30s",    // fraction 0
		"uptime>0.9:30s", // unknown clause
		":30s",           // no objectives
		"p99<-5ms:30s",   // negative threshold
		"pabc<5ms:30s",   // non-numeric quantile
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted, want error", bad)
		}
	}
}

// TestSLO checks the store shape a spec is graded over: five windows per
// SLO window, at least 1 ns wide.
func TestSLO(t *testing.T) {
	s, err := ParseSLO("p99<50ms,avail>0.999:30s")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if got, want := s.BucketWidth(), s.Window.Nanoseconds()/5; got != want {
		t.Fatalf("width = %d, want %d (a fifth of the window)", got, want)
	}
	if got := (Spec{Window: 3}).BucketWidth(); got != 1 {
		t.Fatalf("3 ns window: width = %d, want the 1 ns floor", got)
	}
	for _, bad := range []string{"p99<", "p99<x:30s", "avail>0.9"} {
		if _, err := ParseSLO(bad); err == nil {
			t.Fatalf("ParseSLO(%q) accepted a malformed spec", bad)
		}
	}
}

func TestEngineLatencyAttainment(t *testing.T) {
	spec, err := ParseSLO("p90<1ms:1s")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(int64(100*time.Millisecond), 16)
	// 95 fast requests (100µs) and 5 slow (100ms) → ~95% under 1ms.
	at := int64(0)
	for i := 0; i < 95; i++ {
		s.Observe(SeriesLatencyMicros, at, 100)
		s.Observe(SeriesGood, at, 1)
	}
	for i := 0; i < 5; i++ {
		s.Observe(SeriesLatencyMicros, at, 100_000)
		s.Observe(SeriesGood, at, 1)
	}
	e := NewEngine(s, spec)
	st := e.Status()
	if !st.Evaluated {
		t.Fatal("engine did not evaluate")
	}
	if st.Attainment < 0.9 || st.Attainment > 0.99 {
		t.Fatalf("attainment = %v, want ~0.95", st.Attainment)
	}
	ob := st.Objectives[0]
	if !ob.Compliant {
		t.Fatalf("objective not compliant at %v vs target %v", ob.Attainment, ob.Objective.Target)
	}
	// Burn = bad fraction / budgeted fraction: ~0.05 / 0.10 ≈ 0.5.
	if ob.BurnRate < 0.1 || ob.BurnRate > 0.9 {
		t.Fatalf("burn rate = %v, want ~0.5", ob.BurnRate)
	}
}

func TestEngineAvailabilityAndBurn(t *testing.T) {
	spec, err := ParseSLO("avail>0.99:1s")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(int64(time.Second), 8)
	// 96 good, 4 bad → availability 0.96 < 0.99, burn (0.04)/(0.01) = 4.
	s.Observe(SeriesGood, 0, 96)
	s.Observe(SeriesBad, 0, 4)
	e := NewEngine(s, spec)
	st := e.Status()
	ob := st.Objectives[0]
	if math.Abs(ob.Attainment-0.96) > 1e-9 {
		t.Fatalf("attainment = %v, want 0.96", ob.Attainment)
	}
	if ob.Compliant {
		t.Fatal("objective should not be compliant")
	}
	if math.Abs(ob.BurnRate-4) > 1e-9 {
		t.Fatalf("burn rate = %v, want 4", ob.BurnRate)
	}
	if st.PeakBurnRate < st.BurnRate {
		t.Fatalf("peak %v < current %v", st.PeakBurnRate, st.BurnRate)
	}
}

func TestEngineIdleWindowIsClean(t *testing.T) {
	spec, _ := ParseSLO("p99<1ms,avail>0.9:1s")
	s := NewStore(int64(time.Second), 8)
	e := NewEngine(s, spec)
	st := e.Status()
	if st.Evaluated {
		t.Fatal("idle engine should report Evaluated=false")
	}
	if st.Attainment != 1 || st.BurnRate != 0 {
		t.Fatalf("idle status = attainment %v burn %v", st.Attainment, st.BurnRate)
	}
}

func TestEnginePeakBurnHistory(t *testing.T) {
	spec, err := ParseSLO("avail>0.9:1s")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(int64(time.Second), 16)
	// Window 0: a hot outage (half bad → burn 5). Later windows: clean.
	s.Observe(SeriesGood, 0, 50)
	s.Observe(SeriesBad, 0, 50)
	for w := int64(1); w < 5; w++ {
		s.Observe(SeriesGood, w*int64(time.Second), 100)
	}
	e := NewEngine(s, spec)
	st := e.Status()
	if st.BurnRate != 0 {
		t.Fatalf("current burn = %v, want 0 (last window clean)", st.BurnRate)
	}
	if math.Abs(st.PeakBurnRate-5) > 1e-9 {
		t.Fatalf("peak burn = %v, want 5 (the outage window)", st.PeakBurnRate)
	}
	if st.Windows == 0 {
		t.Fatal("no windows scanned for peak")
	}
}

func TestEngineSetSeriesAndSignals(t *testing.T) {
	spec, err := ParseSLO("avail>0.5:1s")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(int64(time.Second), 4)
	s.Observe("my_ok", 0, 3)
	s.Observe("my_err", 0, 1)
	e := NewEngine(s, spec)
	e.SetSeries("", "my_ok", "my_err")
	st := e.Status()
	if math.Abs(st.Attainment-0.75) > 1e-9 {
		t.Fatalf("attainment = %v, want 0.75", st.Attainment)
	}

	base := func() policy.Signals { return policy.Signals{Rate: 42} }
	sig := e.Signals(base)()
	if sig.Rate != 42 {
		t.Fatal("decorator dropped base signals")
	}
	if math.Abs(sig.SLOAttainment-0.75) > 1e-9 {
		t.Fatalf("SLOAttainment = %v", sig.SLOAttainment)
	}
	if sig.SLOBurnRate <= 0 {
		t.Fatalf("SLOBurnRate = %v, want > 0", sig.SLOBurnRate)
	}

	// A nil base sampler still works.
	if got := e.Signals(nil)(); got.SLOAttainment != sig.SLOAttainment {
		t.Fatalf("nil-base signals = %+v", got)
	}
}
