// Package simnet is the in-memory network fabric versadep runs on during
// tests, benchmarks and the evaluation harness.
//
// It stands in for the paper's 100 Mb/s LAN connecting seven Pentium-III
// machines. Protocol execution is real — every endpoint has its own
// delivery goroutine and messages genuinely travel between goroutines — but
// the *timing* of the network is virtual: each message's arrival instant is
// computed from the vtime cost model (fixed wire latency + size/bandwidth +
// deterministic jitter), and links preserve FIFO arrival order the way a
// switched LAN segment does. Each link draws its jitter and faults from its
// own streams (transport.Link), so a message's draws do not depend on
// traffic elsewhere.
//
// The fabric is also the fault-injection point: a transport.Rule per link
// (loss, duplication, reordering, corruption, added delay), network
// partitions, and whole-process crashes, matching the fault classes assumed
// in §3.1 of the paper (crash faults, transient communication faults,
// performance/timing faults).
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
	seed  uint64

	mu        sync.Mutex
	endpoints map[string]*Endpoint
	crashed   map[string]bool
	rules     map[linkKey]transport.Rule
	links     map[linkKey]*link
	partition map[string]int // address -> partition id; absent = 0
	stats     transport.Stats
	closed    bool
}

type linkKey struct{ from, to string }

// link is the fabric's state for one ordered (from,to) pair: its draw
// streams and the latest arrival it has scheduled.
type link struct {
	transport.Link
	lastArrive vtime.Time
}

// Option configures a Network.
type Option func(*Network)

// WithCostModel replaces the default calibrated cost model.
func WithCostModel(m vtime.CostModel) Option {
	return func(n *Network) { n.model = m }
}

// WithSeed sets the seed every link's jitter and fault draws derive from.
func WithSeed(seed uint64) Option {
	return func(n *Network) { n.seed = seed }
}

// New creates an empty fabric.
func New(opts ...Option) *Network {
	n := &Network{
		model:     vtime.DefaultCostModel(),
		seed:      1,
		endpoints: make(map[string]*Endpoint),
		crashed:   make(map[string]bool),
		rules:     make(map[linkKey]transport.Rule),
		links:     make(map[linkKey]*link),
		partition: make(map[string]int),
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

// SetLink sets the rule for messages from 'from' to 'to'; "*" on either
// side is a wildcard. The most specific entry applies whole — exact, then
// (from,*), then (*,to), then (*,*) — even when it is the zero Rule, so an
// exact zero entry exempts one link from a wildcard rule.
func (n *Network) SetLink(from, to string, r transport.Rule) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules[linkKey{from, to}] = r
}

// Rule returns the rule in force on from→to.
func (n *Network) Rule(from, to string) transport.Rule {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ruleLocked(from, to)
}

// Partition places addr in the given partition id; messages only flow
// between endpoints in the same partition. All endpoints start in
// partition 0. Heal with Heal or HealAddr.
func (n *Network) Partition(addr string, id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition[addr] = id
}

// Heal returns every endpoint to partition 0 and clears every link rule.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.partition)
	clear(n.rules)
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
// process re-attaches under a new incarnation address). Like Close, it
// returns once the endpoint's pump has stopped.
func (n *Network) Crash(addr string) {
	n.mu.Lock()
	ep := n.endpoints[addr]
	n.crashed[addr] = true
	delete(n.endpoints, addr)
	n.mu.Unlock()
	if ep != nil {
		ep.stop()
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
		ep.stop()
	}
	return nil
}

// ruleLocked is the rule in force on from→to: the most specific entry
// wins whole.
func (n *Network) ruleLocked(from, to string) transport.Rule {
	for _, k := range [...]linkKey{{from, to}, {from, "*"}, {"*", to}, {"*", "*"}} {
		if r, ok := n.rules[k]; ok {
			return r
		}
	}
	return transport.Rule{}
}

// route decides one message's fate on from→to: fabric-level loss (unknown
// or crashed endpoint, partition), then the link's draw under its rule,
// then the virtual arrival time. count adds the message to the sent
// counters. It returns the destination — nil if the message dies in the
// network — and the message as the receiver will see it.
func (n *Network) route(from, to string, payload []byte, size int, sentAt vtime.Time, control, count bool) (*Endpoint, transport.Message, transport.Fate) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if count {
		n.stats.MessagesSent++
		n.stats.BytesSent += int64(size)
	}
	dst, ok := n.endpoints[to]
	if !ok || n.crashed[to] || n.crashed[from] || n.partition[from] != n.partition[to] {
		n.stats.MessagesDropped++
		return nil, transport.Message{}, transport.Fate{}
	}
	lk := linkKey{from, to}
	l := n.links[lk]
	if l == nil {
		l = &link{Link: transport.NewLink(n.seed, from, to)}
		n.links[lk] = l
	}
	f := l.Fate(n.ruleLocked(from, to), payload, control)
	n.stats.Count(f)
	if f.Drop {
		return nil, transport.Message{}, f
	}
	arrive := sentAt.Add(n.model.Jitter(n.model.Transmit(size), f.Jitter) + f.Delay)
	// A link behaves like a FIFO LAN segment: arrival times never go
	// backwards on the same (from,to) pair.
	if arrive.Before(l.lastArrive) {
		arrive = l.lastArrive
	}
	l.lastArrive = arrive
	return dst, transport.Message{From: from, To: to, Payload: f.Payload, SentAt: sentAt, ArriveAt: arrive}, f
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

	mu      sync.Mutex
	queue   fifo.Queue[transport.Message]
	notify  chan struct{}
	closed  bool
	serving bool
	done    chan struct{}
	pumping sync.WaitGroup // the pump, once Serve has started it
	recv    transport.RecvChan

	// deferred holds messages displaced by the reordering fault: they are
	// released behind the next arrival, or flushed when the queue drains,
	// so a reordered message is delayed but never lost.
	deferred []transport.Message
}

var _ transport.Endpoint = (*Endpoint)(nil)

func newEndpoint(n *Network, addr string) *Endpoint {
	return &Endpoint{
		net:    n,
		addr:   addr,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
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

// Send routes payload through the fabric.
func (e *Endpoint) Send(to string, payload []byte, sentAt vtime.Time) error {
	return e.send(payload, sentAt, false, to)
}

// SendMulticast delivers payload to every address in tos, counting the
// payload bytes ONCE in the traffic statistics.
//
// The paper's testbed ran Spread over a LAN where a multicast to a group is
// a single physical transmission regardless of group size; the bandwidth
// figures in the evaluation (Figure 7b, Table 2) reflect that. Faults and
// jitter are still drawn independently per destination, as real multicast
// receivers fail independently.
func (e *Endpoint) SendMulticast(tos []string, payload []byte, sentAt vtime.Time) error {
	return e.send(payload, sentAt, false, tos...)
}

// SendControl sends a control-plane datagram (heartbeats, acks, membership
// traffic) that is excluded from the byte counters and draws from its
// link's control stream. Control traffic is paced in real time by the
// failure detector; charging it against virtual seconds, or letting it
// re-deal the data frames' jitter, would corrupt the figures. The paper's
// evaluation likewise measures application traffic through Spread, not the
// daemons' keep-alives.
func (e *Endpoint) SendControl(to string, payload []byte, sentAt vtime.Time) error {
	return e.send(payload, sentAt, true, to)
}

// send is the one path of every message: a data send is counted once, then
// each destination gets its own route and delivery. A lost message is not
// an error (datagram semantics).
func (e *Endpoint) send(payload []byte, sentAt vtime.Time, control bool, tos ...string) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	size := max(len(payload)-e.framing, 0) // accountable bytes, net of framing
	for i, to := range tos {
		dst, m, f := e.net.route(e.addr, to, payload, size, sentAt, control, !control && i == 0)
		if dst != nil {
			dst.deliver(m, f)
		}
	}
	return nil
}

// Serve starts the endpoint's pump, which calls fn for every queued message
// in turn (see transport.MultiEndpoint.Serve).
func (e *Endpoint) Serve(fn func(transport.Message)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed && !e.serving {
		e.serving = true
		e.pumping.Add(1)
		go e.pump(fn)
	}
}

// Recv returns the delivery channel (see transport.Endpoint.Recv).
func (e *Endpoint) Recv() <-chan transport.Message { return e.recv.Get(e, e.done) }

// Close detaches the endpoint. It returns once its pump has stopped.
func (e *Endpoint) Close() error {
	e.net.mu.Lock()
	if e.net.endpoints[e.addr] == e {
		delete(e.net.endpoints, e.addr)
	}
	e.net.mu.Unlock()
	e.stop()
	return nil
}

// stop ends delivery, crashed or closed: every call returns once the pump
// has stopped.
func (e *Endpoint) stop() {
	e.mu.Lock()
	first := !e.closed
	e.closed = true
	e.mu.Unlock()
	if first {
		close(e.done)
		e.wake() // the pump sees closed
		defer e.recv.Close()
	}
	e.pumping.Wait()
}

// deliver queues a routed message as its fate says: a reordered one is
// parked behind the next arrival, a duplicated one is queued twice. Either
// way the pump is woken, so a parked message on a link that goes quiet is
// flushed when the queue drains rather than waiting for traffic that may
// never come.
func (e *Endpoint) deliver(m transport.Message, f transport.Fate) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	if f.Reorder {
		e.deferred = append(e.deferred, m)
	} else {
		e.queue.Push(m)
		// A fresh arrival releases any reorder-displaced messages behind it.
		e.releaseDeferred()
	}
	if f.Dup {
		e.queue.Push(m)
		e.releaseDeferred()
	}
	e.mu.Unlock()
	e.wake()
}

// wake rouses the pump if it waits for work.
func (e *Endpoint) wake() {
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

// pump calls fn for each queued message in arrival order. The queue absorbs
// bursts so senders never block on slow receivers (a crashed or wedged
// process must not back-pressure the whole fabric).
func (e *Endpoint) pump(fn func(transport.Message)) {
	defer e.pumping.Done()
	for {
		e.mu.Lock()
		if e.queue.Len() == 0 {
			// Queue drained with reordered stragglers pending: flush them
			// so the fault displaces delivery order, never liveness.
			e.releaseDeferred()
		}
		m, have := e.queue.Pop()
		closed := e.closed
		e.mu.Unlock()
		switch {
		case closed:
			return
		case have:
			fn(m)
		default:
			<-e.notify
		}
	}
}
