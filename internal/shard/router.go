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

// inflightWindow bounds how many outstanding requests the router
// remembers for stale-NAK re-routing. Matches the order of magnitude of
// the interceptor's reply-dedup window; requests older than the window
// fall back on the client ORB's own retransmit.
const inflightWindow = 1024

type inflightReq struct {
	req    transport.Buf
	sentAt vtime.Time
	led    vtime.Ledger
	// epoch is the map epoch the request was last routed under; a stale
	// NAK triggers a re-route only once per epoch advance, so a router
	// and a lagging guard can never spin NAKs at wire speed — if the
	// refreshed map still routes wrong, the client ORB's retransmit
	// timer provides the pacing.
	epoch uint64
}

// Router multiplexes one client ORB across every shard's replica group:
// it implements orb.Wire, peeks each outbound request's object reference,
// and forwards the bytes over the owning shard's wire. It is the reply sink
// of every shard wire it dials: an ordinary reply (or a real servant
// exception) goes straight up to the ORB on the goroutine that received it.
// Stale-epoch NAKs are consumed by the router itself — it refreshes its map
// from the coordinator and re-sends to the new owner — so the client ORB
// above never observes reconfiguration, only (at worst) a longer round
// trip. That refresh may be a network fetch, so it is the one piece of work
// handed off the receiving goroutine.
type Router struct {
	fetch   func() *Map
	factory WireFactory

	cRouted    *trace.Counter
	cStaleNAKs *trace.Counter
	cRefreshes *trace.Counter
	cReroutes  *trace.Counter

	mu       sync.Mutex
	m        *Map
	wires    map[int]orb.Wire
	inflight map[uint64]*inflightReq
	closed   bool

	up       orb.Upcall
	reroutes sync.WaitGroup // stale-NAK re-routes in flight; Close waits
}

// RouterOption configures a Router.
type RouterOption func(*Router)

// WithRouterTrace reports routing decisions, stale NAKs, map refreshes
// and re-routes into r under the "shard" subsystem.
func WithRouterTrace(r *trace.Recorder) RouterOption {
	return func(rt *Router) {
		rt.cRouted = r.Counter(trace.SubShard, "routed")
		rt.cStaleNAKs = r.Counter(trace.SubShard, "stale_naks")
		rt.cRefreshes = r.Counter(trace.SubShard, "map_refreshes")
		rt.cReroutes = r.Counter(trace.SubShard, "reroutes")
	}
}

// NewRouter creates a router over the map returned by fetch (called once
// now and again on every stale NAK), dialing shard groups with factory.
func NewRouter(fetch func() *Map, factory WireFactory, opts ...RouterOption) *Router {
	r := &Router{
		fetch:    fetch,
		factory:  factory,
		m:        fetch(),
		wires:    make(map[int]orb.Wire),
		inflight: make(map[uint64]*inflightReq),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Map returns the router's current view of the shard layout.
func (r *Router) Map() *Map {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m
}

// wireFor returns (dialing if necessary) the wire for the shard owning
// object under map m.
func (r *Router) wireFor(m *Map, object string) (orb.Wire, error) {
	g, ok := m.Lookup(object)
	if !ok {
		return nil, fmt.Errorf("shard: no shard for object %q", object)
	}
	r.mu.Lock()
	w := r.wires[g.ID]
	r.mu.Unlock()
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
	reqBytes := req.Bytes()
	_, rid, err := orb.PeekRequestID(reqBytes)
	if err != nil {
		return err
	}
	object, err := orb.PeekRequestObject(reqBytes)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return orb.ErrClosed
	}
	m := r.m
	r.inflight[rid] = &inflightReq{req: req, sentAt: sentAt, led: led, epoch: m.Epoch}
	if len(r.inflight) > inflightWindow {
		// Drop the oldest entries; their re-route safety net is gone but
		// the client ORB's retransmit re-registers them on retry.
		floor := rid
		for id := range r.inflight {
			if id < floor {
				floor = id
			}
		}
		delete(r.inflight, floor)
	}
	r.mu.Unlock()

	w, err := r.wireFor(m, object)
	if err != nil {
		return err
	}
	r.cRouted.Inc()
	return w.Send(req, sentAt, led)
}

// Bind implements orb.Wire.
func (r *Router) Bind(sink orb.ReplySink) { r.up.Bind(sink) }

// deliver is the sink of every shard wire. Anything but a stale-epoch NAK
// is a final answer and passes straight through; a stale NAK for a request
// still tracked is re-routed on its own goroutine, so the transport's
// receiving goroutine is never parked behind a map fetch.
func (r *Router) deliver(wr orb.WireReply) {
	_, rid, status, errMsg, err := orb.PeekReplyError(wr.Bytes)
	if err != nil {
		r.up.Deliver(wr)
		return
	}
	var guardEpoch uint64
	var stale bool
	if status == orb.StatusException {
		guardEpoch, stale = IsStale(errMsg)
	}
	if !stale {
		r.mu.Lock()
		delete(r.inflight, rid) // answered: release re-route bookkeeping
		r.mu.Unlock()
		r.up.Deliver(wr)
		return
	}
	r.cStaleNAKs.Inc()
	r.mu.Lock()
	req := r.inflight[rid]
	if req == nil || r.closed {
		r.mu.Unlock()
		return // NAK for a request we no longer track: swallow it
	}
	r.reroutes.Add(1) // under r.mu with closed unset: Close's Wait comes after
	r.mu.Unlock()
	go func() {
		defer r.reroutes.Done()
		r.reroute(req, guardEpoch)
	}()
}

// reroute refreshes the map if the NAKing guard's epoch is not behind ours
// and, when that yields a fresher layout than the one req last failed
// under, sends req to its new owner. Otherwise the NAK is simply dropped
// and the client ORB's retransmit paces the retry.
func (r *Router) reroute(req *inflightReq, guardEpoch uint64) {
	r.mu.Lock()
	cur, last := r.m, req.epoch
	r.mu.Unlock()
	if cur.Epoch <= guardEpoch || cur.Epoch <= last {
		next := r.fetch()
		r.cRefreshes.Inc()
		r.mu.Lock()
		if next.Epoch > r.m.Epoch {
			r.m = next
		}
		cur = r.m
		r.mu.Unlock()
	}
	if cur.Epoch <= last {
		return
	}
	object, err := orb.PeekRequestObject(req.req.Bytes())
	if err != nil {
		return
	}
	r.mu.Lock()
	req.epoch = cur.Epoch
	r.mu.Unlock()
	w, err := r.wireFor(cur, object)
	if err != nil {
		return
	}
	r.cReroutes.Inc()
	// A second send of the request: the first spent its room. Lost sends
	// are the ORB retransmit's to repair.
	_ = w.Send(req.req.Clone(), req.sentAt, req.led)
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
	r.reroutes.Wait()
	var first error
	for _, w := range wires {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
