package knobs

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"versadep/internal/replication"
	"versadep/internal/vtime"
)

func us(v float64) vtime.Duration { return vtime.Duration(v * float64(vtime.Microsecond)) }

// paperDataset reconstructs Table 2's published measurements so the solver
// can be validated against the paper's own policy outcomes.
func paperDataset() []Measurement {
	a3 := LowLevel{Style: replication.Active, Replicas: 3}
	p3 := LowLevel{Style: replication.WarmPassive, Replicas: 3, CheckpointEvery: 10}
	p2 := LowLevel{Style: replication.WarmPassive, Replicas: 2, CheckpointEvery: 10}
	a2 := LowLevel{Style: replication.Active, Replicas: 2}
	return []Measurement{
		// The exact Table 2 winners.
		{Config: a3, Clients: 1, Latency: us(1245.8), Bandwidth: 1.074},
		{Config: a3, Clients: 2, Latency: us(1457.2), Bandwidth: 2.032},
		{Config: p3, Clients: 3, Latency: us(4966), Bandwidth: 1.887},
		{Config: p3, Clients: 4, Latency: us(6141.1), Bandwidth: 2.315},
		{Config: p2, Clients: 5, Latency: us(6006.2), Bandwidth: 2.799},
		// Losing alternatives consistent with the paper's narrative:
		// active(3) exceeds the 3 MB/s budget beyond 2 clients; passive(3)
		// exceeds 7000µs at 5 clients.
		{Config: p3, Clients: 1, Latency: us(2400), Bandwidth: 0.9},
		{Config: p3, Clients: 2, Latency: us(3500), Bandwidth: 1.4},
		{Config: a3, Clients: 3, Latency: us(1650), Bandwidth: 3.2},
		{Config: a3, Clients: 4, Latency: us(1900), Bandwidth: 4.1},
		{Config: a3, Clients: 5, Latency: us(2200), Bandwidth: 5.0},
		{Config: p3, Clients: 5, Latency: us(7600), Bandwidth: 2.6},
		{Config: a2, Clients: 5, Latency: us(2100), Bandwidth: 3.4},
		{Config: p2, Clients: 3, Latency: us(4700), Bandwidth: 1.7},
		{Config: p2, Clients: 4, Latency: us(5400), Bandwidth: 2.2},
	}
}

func TestSelectConfigReproducesTable2(t *testing.T) {
	req := PaperRequirements()
	ms := paperDataset()
	want := []struct {
		clients int
		cfg     string
		faults  int
	}{
		{1, "A(3)", 2},
		{2, "A(3)", 2},
		{3, "P(3)", 2},
		{4, "P(3)", 2},
		{5, "P(2)", 1},
	}
	for _, w := range want {
		row, err := SelectConfig(ms, w.clients, req)
		if err != nil {
			t.Fatalf("clients=%d: %v", w.clients, err)
		}
		if row.Config.String() != w.cfg {
			t.Fatalf("clients=%d chose %s, want %s", w.clients, row.Config, w.cfg)
		}
		if row.FaultsTolerated != w.faults {
			t.Fatalf("clients=%d faults=%d, want %d", w.clients, row.FaultsTolerated, w.faults)
		}
	}
}

func TestTable2CostColumn(t *testing.T) {
	// The paper's cost column: 0.268, 0.443, 0.669, 0.825, 0.895.
	req := PaperRequirements()
	ms := paperDataset()
	want := []float64{0.268, 0.443, 0.669, 0.825, 0.895}
	for i, n := range []int{1, 2, 3, 4, 5} {
		row, err := SelectConfig(ms, n, req)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(row.Cost-want[i]) > 0.002 {
			t.Fatalf("clients=%d cost=%.3f, want %.3f", n, row.Cost, want[i])
		}
	}
}

func TestNoFeasibleConfig(t *testing.T) {
	req := PaperRequirements()
	ms := []Measurement{{
		Config:    LowLevel{Style: replication.Active, Replicas: 3},
		Clients:   6,
		Latency:   us(9000),
		Bandwidth: 4.0,
	}}
	_, err := SelectConfig(ms, 6, req)
	if !errors.Is(err, ErrNoFeasibleConfig) {
		t.Fatalf("err = %v", err)
	}
	rows, infeasible := ScalabilityPolicy(append(paperDataset(), ms...), 6, req)
	if len(rows) != 5 || len(infeasible) != 1 || infeasible[0] != 6 {
		t.Fatalf("policy rows=%d infeasible=%v", len(rows), infeasible)
	}
}

func TestFaultToleranceDominatesCost(t *testing.T) {
	req := PaperRequirements()
	cheap1 := Measurement{
		Config:  LowLevel{Style: replication.Active, Replicas: 1},
		Clients: 1, Latency: us(500), Bandwidth: 0.2,
	}
	pricey3 := Measurement{
		Config:  LowLevel{Style: replication.WarmPassive, Replicas: 3},
		Clients: 1, Latency: us(6500), Bandwidth: 2.9,
	}
	row, err := SelectConfig([]Measurement{cheap1, pricey3}, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	if row.Config.Replicas != 3 {
		t.Fatalf("chose %s; requirement 3 (max FT) must dominate cost", row.Config)
	}
}

func TestCostFunctionProperties(t *testing.T) {
	req := PaperRequirements()
	f := func(latUs uint16, bwMilli uint16) bool {
		m := Measurement{
			Latency:   us(float64(latUs)),
			Bandwidth: float64(bwMilli) / 1000,
		}
		c := req.Cost(m)
		if c < 0 {
			return false
		}
		// Monotone in both inputs.
		m2 := m
		m2.Latency += us(100)
		m3 := m
		m3.Bandwidth += 0.1
		return req.Cost(m2) >= c && req.Cost(m3) >= c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// At the constraint boundary the cost is exactly 1 for p=0.5.
	edge := Measurement{Latency: req.MaxLatency, Bandwidth: req.MaxBandwidthMBs}
	if c := req.Cost(edge); math.Abs(c-1.0) > 1e-9 {
		t.Fatalf("boundary cost = %v", c)
	}
}

func TestLowLevelString(t *testing.T) {
	a := LowLevel{Style: replication.Active, Replicas: 3}
	if a.String() != "A(3)" {
		t.Fatalf("String = %q", a.String())
	}
	p := LowLevel{Style: replication.WarmPassive, Replicas: 2}
	if p.String() != "P(2)" {
		t.Fatalf("String = %q", p.String())
	}
	if a.FaultsTolerated() != 2 || (LowLevel{}).FaultsTolerated() != 0 {
		t.Fatal("faults tolerated wrong")
	}
}

func TestAvailabilityKnob(t *testing.T) {
	k := AvailabilityKnob{ReplicaAvailability: 0.99, MaxReplicas: 5}

	// 0.99 is achievable with one replica.
	cfg, err := k.Plan(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 1 {
		t.Fatalf("0.99 -> %+v", cfg)
	}
	// Four nines needs two replicas.
	cfg, err = k.Plan(0.9999)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 2 {
		t.Fatalf("0.9999 -> %+v", cfg)
	}
	// More replicas never decreases achievable availability.
	prev := 0
	for _, target := range []float64{0.9, 0.99, 0.999, 0.9999, 0.99999} {
		cfg, err := k.Plan(target)
		if err != nil {
			t.Fatalf("target %v: %v", target, err)
		}
		if cfg.Replicas < prev {
			t.Fatalf("replicas decreased: %d after %d", cfg.Replicas, prev)
		}
		prev = cfg.Replicas
	}
	// Unreachable targets error.
	if _, err := k.Plan(0.99999999999999); !errors.Is(err, ErrNoFeasibleConfig) {
		t.Fatalf("err = %v", err)
	}
	// Invalid per-replica availability.
	bad := AvailabilityKnob{ReplicaAvailability: 1.5}
	if _, err := bad.Plan(0.9); err == nil {
		t.Fatal("accepted invalid replica availability")
	}
}

func TestAvailabilityKnobTargetValidation(t *testing.T) {
	k := AvailabilityKnob{ReplicaAvailability: 0.99, MaxReplicas: 5}
	cases := []struct {
		name   string
		target float64
		ok     bool
	}{
		{"negative", -0.5, false},
		{"zero", 0, false},
		{"just above zero", 1e-9, true},
		{"interior", 0.995, true},
		{"just below one", 1 - 1e-12, false}, // unreachable, but a valid target
		{"one", 1, false},
		{"above one", 1.01, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := k.Plan(tc.target)
			if tc.ok && err != nil {
				t.Fatalf("Plan(%v) = %v, want success", tc.target, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("Plan(%v) succeeded, want error", tc.target)
			}
			// Out-of-domain targets must be rejected as invalid, not
			// reported as merely infeasible.
			if tc.target <= 0 || tc.target >= 1 {
				if errors.Is(err, ErrNoFeasibleConfig) {
					t.Fatalf("Plan(%v) = %v, want a domain error, not infeasibility", tc.target, err)
				}
				if !strings.Contains(err.Error(), "must be in (0,1)") {
					t.Fatalf("Plan(%v) error %q does not describe the valid domain", tc.target, err)
				}
			}
		})
	}
	// 1-1e-12 is inside the domain but unreachable with 5 replicas at
	// 0.99 each: infeasible, not invalid.
	if _, err := k.Plan(1 - 1e-12); !errors.Is(err, ErrNoFeasibleConfig) {
		t.Fatalf("near-one target: err = %v, want ErrNoFeasibleConfig", err)
	}
}
