package replicator_test

import (
	"math"
	"testing"

	"versadep/internal/replication"
	"versadep/internal/simnet"
)

// TestFaultMeterAgreesWithInjectedCrashes: the crash-rate meter behind the
// availability policy is fed from the failure detector's view changes, so
// the full chain — silence, accrued suspicion, view agreement, crash
// classification — must reproduce exactly the injected fault count, and
// every survivor must agree (the Crashed annotation travels on the
// sequenced view frame).
func TestFaultMeterAgreesWithInjectedCrashes(t *testing.T) {
	net := simnet.New(simnet.WithSeed(11))
	defer net.Close()
	c := startCluster(t, net, 5, replication.WarmPassive, 4, nil)

	// The meter counts a crash on the view's notice, before the group's
	// wait hears it.
	net.Crash("re")
	c.waitGroupSize(t, 4)
	net.Crash("rd")
	c.waitGroupSize(t, 3)

	// λ = 2 crashes over the 60s default window, MTTR 1s: availability =
	// 1/(1 + λ·MTTR).
	twoCrashes := 1 / (1 + 2.0/60.0)
	for _, node := range c.nodes[:3] {
		if got := node.Faults().Availability(); math.Abs(got-twoCrashes) > 1e-9 {
			t.Fatalf("%s: availability %v, want %v (2 crashes)", node.Addr(), got, twoCrashes)
		}
	}

	// Graceful departures are not crashes: retiring a replica must leave
	// the meter untouched.
	c.nodes[2].Leave()
	c.waitGroupSize(t, 2)
	for _, node := range c.nodes[:2] {
		if got := node.Faults().Availability(); math.Abs(got-twoCrashes) > 1e-9 {
			t.Fatalf("%s: availability %v after graceful leave, want %v (2 crashes)", node.Addr(), got, twoCrashes)
		}
	}
}
