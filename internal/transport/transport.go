// Package transport defines the point-to-point messaging abstraction that
// everything above it (group communication, ORB, interceptor) is written
// against. Two implementations exist: the in-memory simulated fabric in
// internal/simnet (used by tests, benchmarks and the evaluation harness) and
// the TCP back end in internal/transport/tcptransport (used by cmd/vdnode
// for live multi-process runs).
//
// The abstraction mirrors what the paper's replicator assumed from the OS:
// addressed, connection-less, FIFO-per-link datagram delivery, with the
// network free to drop or delay messages when faults are injected — by a
// link Rule, the one description of what a link does to a message.
//
// Delivery is a call on the goroutine that received the message (see
// MultiEndpoint.Serve): no inbound message waits for a second goroutine
// before protocol code sees it.
package transport

import (
	"errors"
	"sync"

	"versadep/internal/vtime"
)

// Message is one datagram in flight.
type Message struct {
	// From and To are process addresses.
	From, To string
	// Payload is the opaque application bytes. It is immutable from the
	// moment it is passed to a send call and for as long as anyone holds
	// it: the sender may keep it for retransmission, a multicast hands the
	// same slice to every receiver, and fault injectors copy before they
	// damage. Receivers may retain it (and sub-slices of it) but never
	// write to it.
	Payload []byte
	// SentAt is the sender's virtual timestamp.
	SentAt vtime.Time
	// ArriveAt is the virtual instant of delivery, assigned by the
	// network from its cost model (transmission + latency + jitter).
	ArriveAt vtime.Time
}

// Endpoint is one process's attachment to the network.
type Endpoint interface {
	// Addr returns the endpoint's stable address.
	Addr() string
	// Send enqueues payload for delivery to the given address. sentAt is
	// the sender's current virtual time. Send never blocks on the
	// receiver; delivery is asynchronous. Sending to an unknown address
	// silently drops (datagram semantics). The payload is not copied — an
	// in-memory fabric hands the slice on, TCP writes it from where it lies
	// behind a header of its own: see Message.Payload for the immutability
	// rule.
	Send(to string, payload []byte, sentAt vtime.Time) error
	// Recv returns the channel on which inbound messages are delivered.
	// The channel is closed when the endpoint closes or crashes. It is the
	// endpoint's Serve adapted to a channel: use one of the two, not both.
	Recv() <-chan Message
	// Close detaches the endpoint.
	Close() error
}

// RecvChan is an endpoint's Recv, adding no delivery path: the goroutine
// that serves the endpoint hands each message to the channel's reader, or
// gives up once done closes.
type RecvChan struct {
	once sync.Once
	ch   chan Message
}

// Get returns the channel, serving ep into it on the first call.
func (r *RecvChan) Get(ep interface{ Serve(func(Message)) }, done <-chan struct{}) <-chan Message {
	r.once.Do(func() {
		r.ch = make(chan Message)
		ep.Serve(func(m Message) {
			select {
			case r.ch <- m:
			case <-done:
			}
		})
	})
	return r.ch
}

// Close closes the channel; the endpoint calls it once, after its last
// delivery.
func (r *RecvChan) Close() {
	r.once.Do(func() { r.ch = make(chan Message) })
	close(r.ch)
}

// Errors shared by transport implementations.
var (
	// ErrClosed reports use of a closed or crashed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrDuplicateAddr reports a second registration of an address.
	ErrDuplicateAddr = errors.New("transport: address already registered")
)

// Stats aggregates traffic counters for resource-usage accounting
// (the paper's bandwidth axis).
type Stats struct {
	// MessagesSent counts datagrams accepted from senders.
	MessagesSent int64
	// MessagesDropped counts datagrams lost to fault injection.
	MessagesDropped int64
	// BytesSent counts payload bytes accepted from senders, including
	// dropped ones (they consumed wire capacity).
	BytesSent int64
	// MessagesDuplicated counts datagrams delivered twice by fault
	// injection.
	MessagesDuplicated int64
	// MessagesReordered counts datagrams displaced out of FIFO order by
	// fault injection.
	MessagesReordered int64
	// MessagesCorrupted counts datagrams delivered with flipped payload
	// bits by fault injection.
	MessagesCorrupted int64
	// MessagesDelayed counts datagrams a link rule held back: by its Delay
	// or by a reorder displacement.
	MessagesDelayed int64
}
