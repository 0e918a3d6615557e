package experiment

import (
	"reflect"
	"testing"

	"versadep/internal/replication"
	"versadep/internal/replicator"
)

func clientAddrs(clients []*replicator.ClientNode) []string {
	var out []string
	for _, c := range clients {
		out = append(out, c.Addr())
	}
	return out
}

// TestEndpointNamesArePinned holds the addresses the evaluation harness
// gives its endpoints. A name is an input to the run — GCS derives a member's
// jitter seed from its address, and rank order is address order — so a
// renamed endpoint moves every figure; it should fail here, not in a BENCH
// file.
func TestEndpointNamesArePinned(t *testing.T) {
	check := func(what string, got []string, want ...string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	o := DefaultOptions()
	o.StateBytes = 512

	s, err := NewScenario(o, replication.Active, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("scenario replicas", s.Members(), "replica-a", "replica-b")
	check("scenario clients", clientAddrs(s.group.Clients()), "client-1", "client-2")
	grown, err := s.Grow()
	if err != nil {
		t.Fatal(err)
	}
	check("grown replica", []string{grown}, "replica-c")

	e, err := buildShardedEnv(o, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	check("shard 0 replicas", e.groups[0].Members(), "s0-a", "s0-b")
	check("shard 1 replicas", e.groups[1].Members(), "s1-a", "s1-b")
	check("control clients", []string{e.ctl(0).Addr(), e.ctl(1).Addr()}, "ctl-0", "ctl-1")
	check("sharded clients", clientAddrs(e.clients), "client-1")
}
