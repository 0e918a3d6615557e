package shard

import (
	"fmt"
	"sync"

	"versadep/internal/orb"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// WireFactory dials the replica group serving one shard and returns an
// orb.Wire speaking to it (in practice an interceptor.GroupWire over that
// shard's GroupClient). The router calls it lazily the first time a
// request routes to a shard, which is how newly added shards become
// reachable without restarting the client.
type WireFactory func(g Group) (orb.Wire, error)

// Router multiplexes one client ORB across every shard's replica group:
// it implements orb.Wire, peeks each outbound request's object reference,
// and forwards the bytes over the owning shard's wire under its current
// map. It is the reply sink of every shard wire it dials: an ordinary reply
// (or a real servant exception) goes straight up to the ORB on the
// goroutine that received it. A stale-epoch NAK is consumed by the router
// and never reaches the ORB; it only makes the router refresh its map from
// the coordinator. The router keeps no copy of the request: the ORB's
// retransmission of the same request id, one attempt timeout later, routes
// under the refreshed map. The refresh may be a network fetch, so it is the
// one piece of work handed off the receiving goroutine.
type Router struct {
	fetch   func() *Map
	factory WireFactory
	m       *layout

	cRouted    *trace.Counter
	cStaleNAKs *trace.Counter
	cRefreshes *trace.Counter

	mu         sync.Mutex
	wires      map[int]orb.Wire
	closed     bool
	refreshing bool

	up        orb.Upcall
	refreshes sync.WaitGroup // the map refresh in flight, if any; Close waits
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithRouterTrace reports routing decisions, stale NAKs and map refreshes
// into r under the "shard" subsystem.
func WithRouterTrace(r *trace.Recorder) RouterOption {
	return func(rt *Router) {
		rt.cRouted = r.Counter(trace.SubShard, "routed")
		rt.cStaleNAKs = r.Counter(trace.SubShard, "stale_naks")
		rt.cRefreshes = r.Counter(trace.SubShard, "map_refreshes")
	}
}

// NewRouter creates a router over the map returned by fetch (called once
// now and again on stale NAKs), dialing shard groups with factory.
func NewRouter(fetch func() *Map, factory WireFactory, opts ...RouterOption) *Router {
	r := &Router{
		fetch:   fetch,
		factory: factory,
		m:       newLayout(fetch()),
		wires:   make(map[int]orb.Wire),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// wireFor returns (dialing if necessary) the wire for the shard owning
// object under the router's current map.
func (r *Router) wireFor(object string) (orb.Wire, error) {
	g, ok := r.m.load().Lookup(object)
	if !ok {
		return nil, fmt.Errorf("shard: no shard for object %q", object)
	}
	r.mu.Lock()
	w, closed := r.wires[g.ID], r.closed
	r.mu.Unlock()
	if closed {
		return nil, orb.ErrClosed
	}
	if w != nil {
		return w, nil
	}
	w, err := r.factory(g)
	if err != nil {
		return nil, fmt.Errorf("shard: dial shard %d: %w", g.ID, err)
	}
	w.Bind(r.deliver) // before anyone can Send on it
	r.mu.Lock()
	existing := r.wires[g.ID]
	if existing == nil && !r.closed {
		r.wires[g.ID] = w
		r.mu.Unlock()
		return w, nil
	}
	r.mu.Unlock()
	w.Close() // lost the race to another dial of the same shard, or to Close
	if existing == nil {
		return nil, orb.ErrClosed
	}
	return existing, nil
}

// Room implements orb.Wire: the largest room of the shard wires dialed so
// far, which differ at most by a group's frame trailer. A request sent
// before the first dial is copied into the room its wire needs.
func (r *Router) Room() transport.Room {
	r.mu.Lock()
	defer r.mu.Unlock()
	var room transport.Room
	for _, w := range r.wires {
		wr := w.Room()
		room = transport.Room{Head: max(room.Head, wr.Head), Tail: max(room.Tail, wr.Tail)}
	}
	return room
}

// Send implements orb.Wire: route by object reference and forward.
func (r *Router) Send(req transport.Buf, sentAt vtime.Time, led vtime.Ledger) error {
	object, err := orb.PeekRequestObject(req.Bytes())
	if err != nil {
		return err
	}
	w, err := r.wireFor(object)
	if err != nil {
		return err
	}
	r.cRouted.Inc()
	return w.Send(req, sentAt, led)
}

// Bind implements orb.Wire.
func (r *Router) Bind(sink orb.ReplySink) { r.up.Bind(sink) }

// deliver is the sink of every shard wire. Anything but a stale-epoch NAK
// is a final answer and passes straight through. A stale NAK is dropped;
// when its guard runs a newer map than the router's it starts a refresh,
// unless one is already in flight, on its own goroutine, so the transport's
// receiving goroutine is never parked behind a map fetch.
func (r *Router) deliver(wr orb.WireReply) {
	_, _, status, errMsg, err := orb.PeekReplyError(wr.Bytes)
	guardEpoch, stale := IsStale(errMsg)
	if err != nil || status != orb.StatusException || !stale {
		r.up.Deliver(wr)
		return
	}
	r.cStaleNAKs.Inc()
	if guardEpoch <= r.m.load().Epoch {
		return // the router's map is already as new as the guard's
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.refreshing || r.closed {
		return
	}
	r.refreshing = true
	r.refreshes.Add(1) // under r.mu with closed unset: Close's Wait comes after
	go r.refresh()
}

// refresh fetches the coordinator's map and adopts it if it is newer. A
// coordinator that has not yet published the NAKing guard's layout yields
// nothing new; the request's next NAK asks again.
func (r *Router) refresh() {
	defer r.refreshes.Done()
	r.m.advance(r.fetch())
	r.cRefreshes.Inc()
	r.mu.Lock()
	r.refreshing = false
	r.mu.Unlock()
}

// Close implements orb.Wire, closing every shard wire.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	wires := make([]orb.Wire, 0, len(r.wires))
	for _, w := range r.wires {
		wires = append(wires, w)
	}
	r.mu.Unlock()
	r.up.Shut()
	r.refreshes.Wait()
	var first error
	for _, w := range wires {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
