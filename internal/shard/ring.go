// Package shard partitions the object/servant space across N independent
// replica groups — the paper's *scalability* high-level knob realized for
// real. A single replicated group totally orders every request through one
// sequencer, so its throughput is capped no matter how many replicas it
// has; sharding multiplies that ceiling by running N groups side by side,
// each with its own view, sequencer, replication style and policy
// controller, and routing each request to the group that owns its object.
//
// The placement decision lives entirely outside the replication mechanism
// (Dearle et al.'s policy-free middleware stance): a consistent-hash Ring
// maps object references onto shards deterministically, a versioned Map
// names each shard's member group, and a Router interposed on the client
// ORB's wire forwards each VIOP request to its shard — the same library-
// interposition transparency the replicator itself uses, stacked once
// more. Reconfiguration composes non-reconfigurable ordered groups into a
// reconfigurable service (Bortnikov et al.): the shard map carries an
// epoch, replicas NAK requests routed under a stale epoch, the router
// refreshes its map, and the client ORB's own retransmission of the
// request re-routes it, so shards can be added at runtime without losing
// acknowledged requests.
package shard

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the virtual-node count per shard: enough points on the
// circle that the per-shard key share stays within a few percent of fair.
const DefaultVnodes = 128

// ringHash hashes s with 64-bit FNV-1a followed by a murmur-style
// finalizer. The function is fixed here rather than taken from the
// standard library's maphash (which is seeded per process) because
// placement must be identical across processes: a router in one process
// and a guard in another have to agree on every object's owner with no
// communication. The finalizer matters: raw FNV-1a of short, similar
// strings ("obj-001", "obj-002") differs mostly in the low bits, which
// packs every key onto one tiny arc of the circle and defeats balancing.
func ringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the 64-bit avalanche finalizer (MurmurHash3 fmix64): every
// input bit flips roughly half the output bits.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// point is one virtual node on the hash circle.
type point struct {
	hash  uint64
	shard int
}

// Ring is a consistent-hash ring over shard IDs, immutable after
// construction. Placement is a pure function of (shard IDs, vnodes, object
// ref), so every process that builds a ring from the same shard set
// computes identical ownership. By consistent-hashing construction, a ring
// over one more shard moves only the keys on the arcs the added shard
// claims — roughly a 1/n share for an n-shard ring — which is what keeps
// add-shard state movement proportional to the new shard's share rather
// than to the whole keyspace.
type Ring struct {
	points []point
}

// NewRing builds a ring over the given shard IDs with vnodes virtual
// nodes per shard (0 = DefaultVnodes). Shard IDs may be sparse and
// unordered; duplicates are collapsed.
func NewRing(shards []int, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[int]bool, len(shards))
	ids := make([]int, 0, len(shards))
	for _, id := range shards {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	r := &Ring{}
	r.points = make([]point, 0, len(ids)*vnodes)
	for _, id := range ids {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash:  ringHash(fmt.Sprintf("shard-%d#%d", id, v)),
				shard: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break on shard ID so the ring
		// order is still deterministic.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Lookup returns the shard that owns the given object reference: the
// first virtual node clockwise of the object's hash.
func (r *Ring) Lookup(objectRef string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := ringHash(objectRef)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point owns the top arc
	}
	return r.points[i].shard
}
