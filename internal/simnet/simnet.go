// Package simnet is the in-memory network fabric versadep runs on during
// tests, benchmarks and the evaluation harness.
//
// It stands in for the paper's 100 Mb/s LAN connecting seven Pentium-III
// machines. Protocol execution is real — every endpoint has its own
// delivery goroutine and messages genuinely travel between goroutines — but
// the *timing* of the network is virtual: each message's arrival instant is
// computed from the vtime cost model (fixed wire latency + size/bandwidth +
// deterministic jitter), and links preserve FIFO arrival order the way a
// switched LAN segment does.
//
// The fabric is also the fault-injection point: per-link drop probability
// and extra delay, network partitions, and whole-process crashes, matching
// the fault classes assumed in §3.1 of the paper (crash faults, transient
// communication faults, performance/timing faults).
package simnet

import (
	"fmt"
	"sync"

	"versadep/internal/fifo"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// Network is an in-memory transport fabric.
type Network struct {
	model vtime.CostModel
	rand  *vtime.Rand

	mu          sync.Mutex
	endpoints   map[string]*Endpoint
	crashed     map[string]bool
	dropProb    map[linkKey]float64
	dupProb     map[linkKey]float64
	reorderProb map[linkKey]float64
	corruptProb map[linkKey]float64
	extraDelay  map[linkKey]vtime.Duration
	partition   map[string]int // address -> partition id; absent = 0
	lastArrive  map[linkKey]vtime.Time
	stats       transport.Stats
	closed      bool
}

type linkKey struct{ from, to string }

// Option configures a Network.
type Option func(*Network)

// WithCostModel replaces the default calibrated cost model.
func WithCostModel(m vtime.CostModel) Option {
	return func(n *Network) { n.model = m }
}

// WithSeed sets the deterministic jitter/drop seed.
func WithSeed(seed uint64) Option {
	return func(n *Network) { n.rand = vtime.NewRand(seed) }
}

// New creates an empty fabric.
func New(opts ...Option) *Network {
	n := &Network{
		model:       vtime.DefaultCostModel(),
		rand:        vtime.NewRand(1),
		endpoints:   make(map[string]*Endpoint),
		crashed:     make(map[string]bool),
		dropProb:    make(map[linkKey]float64),
		dupProb:     make(map[linkKey]float64),
		reorderProb: make(map[linkKey]float64),
		corruptProb: make(map[linkKey]float64),
		extraDelay:  make(map[linkKey]vtime.Duration),
		partition:   make(map[string]int),
		lastArrive:  make(map[linkKey]vtime.Time),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// CostModel returns the model the fabric charges for transmission.
func (n *Network) CostModel() vtime.CostModel { return n.model }

// Endpoint attaches a new process at addr.
func (n *Network) Endpoint(addr string) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("%w: %q", transport.ErrDuplicateAddr, addr)
	}
	ep := newEndpoint(n, addr)
	n.endpoints[addr] = ep
	delete(n.crashed, addr)
	return ep, nil
}

// Stats returns a snapshot of the traffic counters.
func (n *Network) Stats() transport.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ResetStats zeroes the traffic counters (between experiment phases).
func (n *Network) ResetStats() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats = transport.Stats{}
}

// SetDropProb sets the probability that a message from 'from' to 'to' is
// lost. Use "*" for either side as a wildcard.
func (n *Network) SetDropProb(from, to string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropProb[linkKey{from, to}] = p
}

// SetDupProb sets the probability that a message from 'from' to 'to' is
// delivered twice — the duplicated-datagram fault of real UDP/multicast
// networks. Use "*" for either side as a wildcard.
func (n *Network) SetDupProb(from, to string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dupProb[linkKey{from, to}] = p
}

// SetReorderProb sets the probability that a message from 'from' to 'to'
// is delivered out of order: the message is held back and released behind
// later traffic to the same destination (or flushed as soon as the
// destination's queue drains, so delivery is never lost — only displaced).
// Use "*" for either side as a wildcard.
func (n *Network) SetReorderProb(from, to string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reorderProb[linkKey{from, to}] = p
}

// SetCorruptProb sets the probability that a message from 'from' to 'to'
// arrives with a flipped bit in its payload. The receiver sees the
// corrupted copy; the sender's buffer is never touched. Use "*" for either
// side as a wildcard.
func (n *Network) SetCorruptProb(from, to string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.corruptProb[linkKey{from, to}] = p
}

// SetExtraDelay adds a fixed timing-fault delay on a link. Use "*" as a
// wildcard on either side.
func (n *Network) SetExtraDelay(from, to string, d vtime.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.extraDelay[linkKey{from, to}] = d
}

// Partition places addr in the given partition id; messages only flow
// between endpoints in the same partition. All endpoints start in
// partition 0. Heal with HealPartitions.
func (n *Network) Partition(addr string, id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition[addr] = id
}

// HealPartitions returns every endpoint to partition 0.
func (n *Network) HealPartitions() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
}

// HealAddr returns one endpoint to partition 0, leaving any other
// partitioned endpoints isolated — targeted healing for scripts that
// reconnect a single joiner while a wider fault persists.
func (n *Network) HealAddr(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partition, addr)
}

// Crash kills the process at addr: its endpoint stops receiving and its
// sends are discarded. Crash is permanent for that endpoint (a recovered
// process re-attaches under a new incarnation address).
func (n *Network) Crash(addr string) {
	n.mu.Lock()
	ep := n.endpoints[addr]
	n.crashed[addr] = true
	delete(n.endpoints, addr)
	n.mu.Unlock()
	if ep != nil {
		ep.closeLocked()
	}
}

// Crashed reports whether addr has been crashed.
func (n *Network) Crashed(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[addr]
}

// Close shuts the fabric down, closing every endpoint.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.endpoints = make(map[string]*Endpoint)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.closeLocked()
	}
	return nil
}

// linkParam looks up a per-link table honoring "*" wildcards.
func linkParam[V float64 | vtime.Duration](m map[linkKey]V, from, to string) V {
	if v, ok := m[linkKey{from, to}]; ok {
		return v
	}
	if v, ok := m[linkKey{from, "*"}]; ok {
		return v
	}
	if v, ok := m[linkKey{"*", to}]; ok {
		return v
	}
	return m[linkKey{"*", "*"}]
}

// route computes fate and arrival time of a message, updates counters, and
// returns the destination endpoint (nil if the message dies in the network).
func (n *Network) route(from, to string, size int, sentAt vtime.Time) (*Endpoint, vtime.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.MessagesSent++
	n.stats.BytesSent += int64(size)

	dst, ok := n.endpoints[to]
	if !ok || n.crashed[to] || n.crashed[from] {
		n.stats.MessagesDropped++
		return nil, 0
	}
	if n.partition[from] != n.partition[to] {
		n.stats.MessagesDropped++
		return nil, 0
	}
	if p := linkParam(n.dropProb, from, to); p > 0 && n.rand.Float64() < p {
		n.stats.MessagesDropped++
		return nil, 0
	}

	d := n.model.Transmit(size)
	d = n.model.Jitter(d, n.rand.Float64())
	d += linkParam(n.extraDelay, from, to)
	arrive := sentAt.Add(d)

	// A link behaves like a FIFO LAN segment: arrival times never go
	// backwards on the same (from,to) pair.
	lk := linkKey{from, to}
	if last := n.lastArrive[lk]; arrive.Before(last) {
		arrive = last
	}
	n.lastArrive[lk] = arrive
	return dst, arrive
}

// deliver applies the payload-level wire faults (byte corruption, message
// duplication, reordering) and hands the message to the destination
// endpoint. Corruption copies the payload before flipping a bit, so the
// sender's retransmission buffers always hold the pristine bytes.
func (n *Network) deliver(dst *Endpoint, m transport.Message) {
	n.mu.Lock()
	if len(n.corruptProb) == 0 && len(n.dupProb) == 0 && len(n.reorderProb) == 0 {
		n.mu.Unlock()
		dst.enqueue(m)
		return
	}
	if p := linkParam(n.corruptProb, m.From, m.To); p > 0 && len(m.Payload) > 0 && n.rand.Float64() < p {
		corrupted := make([]byte, len(m.Payload))
		copy(corrupted, m.Payload)
		idx := n.rand.Intn(len(corrupted))
		corrupted[idx] ^= byte(1) << n.rand.Intn(8)
		m.Payload = corrupted
		n.stats.MessagesCorrupted++
	}
	dup := false
	if p := linkParam(n.dupProb, m.From, m.To); p > 0 && n.rand.Float64() < p {
		dup = true
		n.stats.MessagesDuplicated++
	}
	reorder := false
	if p := linkParam(n.reorderProb, m.From, m.To); p > 0 && n.rand.Float64() < p {
		reorder = true
		n.stats.MessagesReordered++
	}
	n.mu.Unlock()
	if reorder {
		dst.enqueueDeferred(m)
	} else {
		dst.enqueue(m)
	}
	if dup {
		dst.enqueue(m)
	}
}

// Endpoint is a process's attachment to a Network.
type Endpoint struct {
	net  *Network
	addr string

	// framing is the caller-declared per-message link-framing overhead
	// (checksum trailers) excluded from byte accounting and transmit
	// charges, keeping the calibrated cost model anchored to
	// application-visible bytes. Set once before traffic flows.
	framing int

	mu     sync.Mutex
	queue  fifo.Queue[transport.Message]
	notify chan struct{}
	out    chan transport.Message
	closed bool
	done   chan struct{}

	// deferred holds messages displaced by the reordering fault: they are
	// released behind the next arrival, or flushed when the queue drains,
	// so a reordered message is delayed but never lost.
	deferred []transport.Message
}

var _ transport.Endpoint = (*Endpoint)(nil)

func newEndpoint(n *Network, addr string) *Endpoint {
	ep := &Endpoint{
		net:    n,
		addr:   addr,
		notify: make(chan struct{}, 1),
		out:    make(chan transport.Message),
		done:   make(chan struct{}),
	}
	go ep.pump()
	return ep
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() string { return e.addr }

// ExcludeFraming declares that every payload sent through this endpoint
// carries n trailing bytes of link framing (checksum trailers) that byte
// accounting and transmit charges must ignore. Call before traffic flows.
func (e *Endpoint) ExcludeFraming(n int) {
	if n >= 0 {
		e.framing = n
	}
}

// wireSize is the accountable size of a payload: its length net of the
// declared framing overhead.
func (e *Endpoint) wireSize(payload []byte) int {
	size := len(payload) - e.framing
	if size < 0 {
		size = 0
	}
	return size
}

// Send routes payload through the fabric.
func (e *Endpoint) Send(to string, payload []byte, sentAt vtime.Time) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	dst, arrive := e.net.route(e.addr, to, e.wireSize(payload), sentAt)
	if dst == nil {
		return nil // dropped: datagram semantics, no error
	}
	e.net.deliver(dst, transport.Message{
		From:     e.addr,
		To:       to,
		Payload:  payload,
		SentAt:   sentAt,
		ArriveAt: arrive,
	})
	return nil
}

// Recv returns the delivery channel.
func (e *Endpoint) Recv() <-chan transport.Message { return e.out }

// Close detaches the endpoint and closes its delivery channel.
func (e *Endpoint) Close() error {
	e.net.mu.Lock()
	if e.net.endpoints[e.addr] == e {
		delete(e.net.endpoints, e.addr)
	}
	e.net.mu.Unlock()
	e.closeLocked()
	return nil
}

func (e *Endpoint) closeLocked() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
}

func (e *Endpoint) enqueue(m transport.Message) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.queue.Push(m)
	// A fresh arrival releases any reorder-displaced messages behind it.
	e.releaseDeferred()
	e.mu.Unlock()
	select {
	case e.notify <- struct{}{}:
	default:
	}
}

// releaseDeferred moves the reorder-displaced messages onto the queue.
func (e *Endpoint) releaseDeferred() {
	for _, m := range e.deferred {
		e.queue.Push(m)
	}
	e.deferred = nil
}

// enqueueDeferred stashes a reorder-fault message without waking the pump;
// it is released by the next enqueue or by the pump draining the queue.
func (e *Endpoint) enqueueDeferred(m transport.Message) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.deferred = append(e.deferred, m)
	e.mu.Unlock()
}

// pump moves queued messages to the unbuffered delivery channel. The
// internal queue absorbs bursts so senders never block on slow receivers
// (a crashed or wedged process must not back-pressure the whole fabric).
func (e *Endpoint) pump() {
	defer close(e.out)
	for {
		e.mu.Lock()
		if e.queue.Len() == 0 {
			// Queue drained with reordered stragglers pending: flush them
			// so the fault displaces delivery order, never liveness.
			e.releaseDeferred()
		}
		m, have := e.queue.Pop()
		e.mu.Unlock()
		if !have {
			select {
			case <-e.notify:
				continue
			case <-e.done:
				return
			}
		}
		select {
		case e.out <- m:
		case <-e.done:
			return
		}
	}
}
