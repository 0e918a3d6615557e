package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"versadep/internal/codec"
)

// Group names one shard's replica group: the shard's ring ID and the
// transport names of its member replicas.
type Group struct {
	ID      int
	Members []string
}

// Map is one version of the shard layout: which shards exist, who serves
// them, and the epoch that versions the layout. Epochs only grow; every
// add/remove-shard bumps the epoch, and replicas NAK requests carrying a
// stale epoch so routers can never silently write through an old layout.
type Map struct {
	Epoch  uint64
	Vnodes int
	Shards []Group

	once sync.Once
	ring *Ring
}

// NewMap builds an epoch-1 map over the given groups.
func NewMap(vnodes int, groups ...Group) *Map {
	m := &Map{Epoch: 1, Vnodes: vnodes, Shards: groups}
	m.normalize()
	return m
}

func (m *Map) normalize() {
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].ID < m.Shards[j].ID })
}

// Ring returns the map's consistent-hash ring, built lazily and cached
// (the map is immutable once published).
func (m *Map) Ring() *Ring {
	m.once.Do(func() {
		ids := make([]int, len(m.Shards))
		for i, g := range m.Shards {
			ids[i] = g.ID
		}
		m.ring = NewRing(ids, m.Vnodes)
	})
	return m.ring
}

// Lookup returns the group serving the given object reference.
func (m *Map) Lookup(objectRef string) (Group, bool) {
	id := m.Ring().Lookup(objectRef)
	for _, g := range m.Shards {
		if g.ID == id {
			return g, true
		}
	}
	return Group{}, false
}

// WithShard returns a new map at epoch+1 that adds (or replaces) the
// given group.
func (m *Map) WithShard(g Group) *Map {
	next := &Map{Epoch: m.Epoch + 1, Vnodes: m.Vnodes}
	for _, old := range m.Shards {
		if old.ID != g.ID {
			next.Shards = append(next.Shards, old)
		}
	}
	next.Shards = append(next.Shards, g)
	next.normalize()
	return next
}

// Encode serializes the map deterministically (shards are kept sorted by
// ID), so a map embedded in a replicated invocation is byte-identical at
// every active replica.
func (m *Map) Encode() []byte {
	e := codec.NewEncoder(64)
	e.PutUint64(m.Epoch)
	e.PutUint32(uint32(m.Vnodes))
	e.PutUint32(uint32(len(m.Shards)))
	for _, g := range m.Shards {
		e.PutUint32(uint32(g.ID))
		e.PutUint32(uint32(len(g.Members)))
		for _, member := range g.Members {
			e.PutString(member)
		}
	}
	return e.Bytes()
}

// MaxVnodes and MaxShards bound the map DecodeMap accepts. A map arrives as
// an invocation argument (the ShardCtl servant's prepare op), and Ring then
// allocates a point per vnode per shard: unbounded counts would let one
// message exhaust the heap of every replica that executes it. The
// repository uses at most 1,000 vnodes and a handful of shards.
const (
	MaxVnodes = 4096
	MaxShards = 256
)

// DecodeMap parses Encode's output. It rejects a map with more than
// MaxVnodes vnodes or MaxShards shards, or with two shards of one ID (a
// ring collapses them while Lookup would return whichever sorts first).
func DecodeMap(b []byte) (*Map, error) {
	d := codec.NewDecoder(b)
	m := &Map{}
	var err error
	if m.Epoch, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("shard: decode map: %w", err)
	}
	vn, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("shard: decode map: %w", err)
	}
	if vn > MaxVnodes {
		return nil, fmt.Errorf("shard: decode map: %d vnodes, limit %d", vn, MaxVnodes)
	}
	m.Vnodes = int(vn)
	n, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("shard: decode map: %w", err)
	}
	if n > MaxShards {
		return nil, fmt.Errorf("shard: decode map: %d shards, limit %d", n, MaxShards)
	}
	if uint64(n) > uint64(d.Remaining()) {
		return nil, codec.ErrTooLarge
	}
	for i := uint32(0); i < n; i++ {
		var g Group
		id, err := d.Uint32()
		if err != nil {
			return nil, fmt.Errorf("shard: decode map: %w", err)
		}
		g.ID = int(id)
		nm, err := d.Uint32()
		if err != nil {
			return nil, fmt.Errorf("shard: decode map: %w", err)
		}
		if uint64(nm) > uint64(d.Remaining()) {
			return nil, codec.ErrTooLarge
		}
		for j := uint32(0); j < nm; j++ {
			member, err := d.String()
			if err != nil {
				return nil, fmt.Errorf("shard: decode map: %w", err)
			}
			g.Members = append(g.Members, member)
		}
		m.Shards = append(m.Shards, g)
	}
	m.normalize()
	for i := 1; i < len(m.Shards); i++ {
		if m.Shards[i].ID == m.Shards[i-1].ID {
			return nil, fmt.Errorf("shard: decode map: shard %d listed twice", m.Shards[i].ID)
		}
	}
	return m, nil
}

// layout is the one place the rule "a layout only moves to a higher epoch"
// is written: the coordinator, every guard and every router hold their map
// in one, and read it with a single atomic load.
type layout struct{ p atomic.Pointer[Map] }

func newLayout(m *Map) *layout {
	l := &layout{}
	l.p.Store(m)
	return l
}

func (l *layout) load() *Map { return l.p.Load() }

// advance installs next if its epoch is higher than the current map's and
// reports whether it did, with the map current afterwards.
func (l *layout) advance(next *Map) (*Map, bool) {
	for {
		cur := l.p.Load()
		if next.Epoch <= cur.Epoch {
			return cur, false
		}
		if l.p.CompareAndSwap(cur, next) {
			return next, true
		}
	}
}

// Coordinator owns the authoritative shard map. It is deliberately thin —
// a versioned-register directory, not a consensus group: the correctness
// of routing never depends on the coordinator being current, because
// replicas guard every request with the epoch check and NAK strays. A
// router with a stale map just pays one client retransmission to refresh.
type Coordinator struct {
	current *layout
}

// NewCoordinator creates a coordinator publishing the given initial map.
func NewCoordinator(initial *Map) *Coordinator {
	return &Coordinator{current: newLayout(initial)}
}

// Snapshot returns the current map.
func (c *Coordinator) Snapshot() *Map { return c.current.load() }

// Publish installs next as the current map. next must advance the epoch;
// a stale or equal epoch is rejected so racing reconfigurations cannot
// roll the layout backwards.
func (c *Coordinator) Publish(next *Map) error {
	if cur, ok := c.current.advance(next); !ok {
		return fmt.Errorf("shard: publish epoch %d not after current %d", next.Epoch, cur.Epoch)
	}
	return nil
}

// staleMarker prefixes the exception text of a stale-epoch NAK. It rides
// the ordinary VIOP exception reply — no new wire message type — and the
// router recognizes it by prefix, the same way CORBA clients key on
// exception repository IDs.
const staleMarker = "shard: stale epoch"

// StaleError is the NAK a shard's guard raises for a request routed
// under an old layout: the object no longer (or doesn't yet) belong here.
type StaleError struct {
	// Object is the misrouted object reference.
	Object string
	// Epoch is the guard's current epoch, so the router knows how fresh
	// a map it must fetch before retrying.
	Epoch uint64
}

// Error implements error with the parseable NAK marker.
func (e *StaleError) Error() string {
	return fmt.Sprintf("%s %d: wrong shard for %q", staleMarker, e.Epoch, e.Object)
}

// IsStale reports whether an exception message is a stale-epoch NAK, and
// if so the guard epoch it advertised.
func IsStale(msg string) (uint64, bool) {
	if !strings.HasPrefix(msg, staleMarker) {
		return 0, false
	}
	rest := strings.TrimPrefix(msg, staleMarker)
	rest = strings.TrimSpace(rest)
	var epoch uint64
	for i := 0; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
		epoch = epoch*10 + uint64(rest[i]-'0')
	}
	return epoch, true
}

// Guard is the replica-side epoch check: it admits only requests whose
// object the guard's shard owns under its current map. The guard's map is
// flipped by an invocation on the replicated control servant — i.e. at a
// fixed point in the shard's agreed stream — so every active replica of a
// shard flips at the same position and their states cannot diverge.
type Guard struct {
	shardID int
	m       *layout
}

// NewGuard creates a guard for the given shard under the initial map.
func NewGuard(shardID int, m *Map) *Guard {
	return &Guard{shardID: shardID, m: newLayout(m)}
}

// Update installs a newer map. Stale updates are ignored (idempotent
// replay of the prepare invocation after a view change must be harmless).
func (g *Guard) Update(m *Map) { g.m.advance(m) }

// Check returns nil if this shard owns object under the guard's current
// map, or a *StaleError NAK if it does not. It runs on every request a
// sharded replica executes and takes no lock.
func (g *Guard) Check(object string) error {
	m := g.m.load()
	if m.Ring().Lookup(object) != g.shardID {
		return &StaleError{Object: object, Epoch: m.Epoch}
	}
	return nil
}
