package experiment

import (
	"testing"
)

// smallShardOptions keeps sharded tests fast: light state, short cycles.
func smallShardOptions() Options {
	o := DefaultOptions()
	o.Requests = 120
	o.StateBytes = 512
	return o
}

// TestShardPointRoutesAcrossShards checks that a 2-shard run spreads the
// keyed workload over both groups and completes without errors.
func TestShardPointRoutesAcrossShards(t *testing.T) {
	o := smallShardOptions()
	p, err := RunShardPoint(o, 2, 2)
	if err != nil {
		t.Fatalf("RunShardPoint: %v", err)
	}
	if p.Errors != 0 {
		t.Fatalf("errors: %d", p.Errors)
	}
	if p.Requests != o.Requests {
		t.Fatalf("completed %d of %d requests", p.Requests, o.Requests)
	}
	if len(p.PerShard) != 2 {
		t.Fatalf("expected both shards to serve requests, got %d", len(p.PerShard))
	}
	for _, s := range p.PerShard {
		if s.Requests == 0 {
			t.Fatalf("shard %d served no requests", s.Shard)
		}
	}
}

// TestShardGrowNoAckedLoss is the add-shard invariant: a shard added under
// load must not lose a single acknowledged request — moved counters arrive
// via the donor export, late requests are NAKed and retransmitted by the
// client ORB under the refreshed map, and every object's final counter
// must equal the number of acks the client saw.
func TestShardGrowNoAckedLoss(t *testing.T) {
	o := smallShardOptions()
	res, err := RunShardGrow(o, 2)
	if err != nil {
		t.Fatalf("RunShardGrow: %v", err)
	}
	if len(res.Mismatches) != 0 {
		t.Fatalf("acked requests lost or duplicated:\n%v", res.Mismatches)
	}
	if res.Acked != res.Observed {
		t.Fatalf("acked %d != observed %d", res.Acked, res.Observed)
	}
	if res.MovedToNew == 0 {
		t.Fatalf("no objects moved to the new shard; grow test is vacuous")
	}
	if res.Acked == 0 {
		t.Fatalf("no acked requests; grow test is vacuous")
	}
}
