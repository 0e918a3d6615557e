package policy

import (
	"testing"

	"versadep/internal/replication"
)

func TestBudgetBurnDecide(t *testing.T) {
	p := BudgetBurn{} // defaults: hot 2, calm 0.25, max 5

	// No SLO evaluation in the signals (attainment and burn both zero):
	// no opinion.
	if d := p.Decide(Signals{Style: replication.WarmPassive, Replicas: 3}); d != (Decision{}) {
		t.Fatalf("unevaluated decision = %+v", d)
	}

	// Hot burn under passive replication: switch to active first.
	d := p.Decide(Signals{SLOAttainment: 0.9, SLOBurnRate: 3,
		Style: replication.WarmPassive, Replicas: 3})
	if d.Style != replication.Active {
		t.Fatalf("hot passive decision = %+v, want switch to active", d)
	}

	// Every request in the window missed: attainment is exactly zero at
	// the hottest burn, which is an evaluation, not its absence.
	d = p.Decide(Signals{SLOAttainment: 0, SLOBurnRate: 100,
		Style: replication.WarmPassive, Replicas: 3})
	if d.Style != replication.Active {
		t.Fatalf("all-miss decision = %+v, want switch to active", d)
	}

	// Already active and still burning: grow, with a floor at the new size.
	d = p.Decide(Signals{SLOAttainment: 0.9, SLOBurnRate: 3,
		Style: replication.Active, Replicas: 3})
	if d.Replicas != 4 || d.MinReplicas != 4 {
		t.Fatalf("hot active decision = %+v, want grow to 4", d)
	}

	// At the growth cap: hold the floor, no further action.
	d = p.Decide(Signals{SLOAttainment: 0.9, SLOBurnRate: 3,
		Style: replication.Active, Replicas: 5})
	if d.Replicas != 0 || d.MinReplicas != 5 {
		t.Fatalf("capped decision = %+v, want floor only", d)
	}

	// Cooled down under active: relax back to warm passive.
	d = p.Decide(Signals{SLOAttainment: 0.999, SLOBurnRate: 0.1,
		Style: replication.Active, Replicas: 3})
	if d.Style != replication.WarmPassive {
		t.Fatalf("calm decision = %+v, want warm passive", d)
	}

	// In the hysteresis band: hold.
	d = p.Decide(Signals{SLOAttainment: 0.99, SLOBurnRate: 1,
		Style: replication.Active, Replicas: 3})
	if d.Style != 0 || d.Replicas != 0 || d.MinReplicas != 0 {
		t.Fatalf("mid-band decision = %+v, want no-op", d)
	}
}

func TestParseSpecBurn(t *testing.T) {
	ps, err := ParseSpec("burn=3:0.5:4")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("policies = %d", len(ps))
	}
	b, ok := ps[0].(BudgetBurn)
	if !ok {
		t.Fatalf("policy = %T", ps[0])
	}
	if b.Hot != 3 || b.Calm != 0.5 || b.MaxReplicas != 4 {
		t.Fatalf("parsed burn = %+v", b)
	}
	if _, err := ParseSpec("burn=zero"); err == nil {
		t.Fatal("bad burn spec accepted")
	}
	// Defaults fill in for omitted fields.
	ps, err = ParseSpec("burn=2")
	if err != nil {
		t.Fatal(err)
	}
	if b := ps[0].(BudgetBurn); b.Hot != 2 || b.Calm != 0 {
		t.Fatalf("minimal burn = %+v", b)
	}
}
