// Package interceptor is versadep's analogue of the paper's library
// interposition layer (§3.1): the shim that slides underneath the client
// ORB and transparently changes where its messages go.
//
// The paper's replicator is an LD_PRELOAD-style shared library that
// redefines the socket calls a CORBA client makes, so the application
// believes it is using a point-to-point GIOP connection while its traffic
// actually travels a reliable multicast group. Go cannot portably interpose
// on libc, but the observable contract is reproducible exactly because the
// client ORB's transport is the Wire interface: this package provides
//
//   - PassthroughWire: messages intercepted but NOT modified — the
//     "client intercepted" configuration of Figure 4, charging the
//     interception cost while keeping the point-to-point path; and
//   - GroupWire: full redirection onto the group communication substrate —
//     requests are submitted into the server group's totally ordered
//     stream and replies from the replicas are filtered (first response,
//     or majority voting when Byzantine replies are a concern, §3.1).
//
// Either way the code calling orb.Client.Invoke cannot tell the
// difference, which is the transparency design goal.
package interceptor

import (
	"bytes"
	"sync"

	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// spanSubmit records the outbound interception crossing of the request
// (cid, rid) (client ORB → replicator shim).
func spanSubmit(sp *span.Recorder, cid []byte, rid uint64, start, end vtime.Time) {
	if sp.On() {
		sp.Add(sp.InternRequestKey(cid, rid), "intercept_submit", span.CompReplicator, start, end)
	}
}

// spanDeliver records the inbound interception crossing of a delivered
// reply. Without a recorder it does not peek.
func spanDeliver(sp *span.Recorder, replyBytes []byte, start, end vtime.Time) {
	if !sp.On() {
		return
	}
	if cid, rid, err := orb.PeekReplyID(replyBytes); err == nil {
		sp.Add(sp.InternRequestKey(cid, rid), "intercept_deliver", span.CompReplicator, start, end)
	}
}

// PassthroughWire wraps an inner wire, charging the interception cost on
// every crossing without changing the message path.
type PassthroughWire struct {
	inner orb.Wire
	model vtime.CostModel
	up    orb.Upcall
}

var _ orb.Wire = (*PassthroughWire)(nil)

// NewPassthrough interposes on inner, binding itself as inner's reply sink.
func NewPassthrough(inner orb.Wire, model vtime.CostModel) *PassthroughWire {
	w := &PassthroughWire{inner: inner, model: model}
	inner.Bind(w.deliver)
	return w
}

// Room is the inner wire's: interception adds no bytes.
func (w *PassthroughWire) Room() transport.Room { return w.inner.Room() }

// Send charges the interception crossing and forwards.
func (w *PassthroughWire) Send(req transport.Buf, sentAt vtime.Time, led vtime.Ledger) error {
	led.Charge(vtime.ComponentReplicator, w.model.Intercept)
	return w.inner.Send(req, sentAt.Add(w.model.Intercept), led)
}

// Bind installs the reply sink.
func (w *PassthroughWire) Bind(sink orb.ReplySink) { w.up.Bind(sink) }

// deliver is the inner wire's sink: charge the crossing, pass the reply up.
func (w *PassthroughWire) deliver(wr orb.WireReply) {
	wr.Ledger.Charge(vtime.ComponentReplicator, w.model.Intercept)
	wr.VTime = wr.VTime.Add(w.model.Intercept)
	w.up.Deliver(wr)
}

// Close unbinds the sink and closes the inner wire.
func (w *PassthroughWire) Close() error {
	w.up.Shut()
	return w.inner.Close()
}

// ReplyFilter selects how replies from active replicas are reduced to one.
type ReplyFilter uint8

// Reply filters (§3.1: the client "can accept the first response received,
// if the server replicas are trusted not to behave maliciously", or "do
// majority voting on all the responses").
const (
	// FilterFirst delivers the first reply per request and drops the
	// rest.
	FilterFirst ReplyFilter = iota + 1
	// FilterMajority delivers once a majority of the expected replicas
	// have sent byte-identical replies, each replica counted once.
	FilterMajority
)

// GroupWire redirects a client ORB onto a replicated server group.
type GroupWire struct {
	gc       *gcs.GroupClient
	model    vtime.CostModel
	filter   ReplyFilter
	expected int

	mu sync.Mutex
	// awaiting holds the requests sent and not yet answered, by request
	// id, with the ballots cast for each under majority voting (nil under
	// first-response, so an entry allocates nothing). Send registers an id
	// before it submits, and the reply that answers it deletes it; a reply
	// to an id not here is a duplicate, however old. Bound: the invocations
	// in flight plus those the ORB abandoned after its last attempt. Each
	// of those has already returned orb.ErrTimeout, and a late reply still
	// deletes it, as the reply to a retransmission that crossed its answer
	// deletes the entry it re-made. Close frees the rest. The ORB's waiter
	// table knows the same ids, but the wire has to decide and span before
	// the reply goes up, and voting keeps ballots per id.
	awaiting map[uint64][]ballot

	up orb.Upcall

	cCrossings  *trace.Counter
	cDelivered  *trace.Counter
	cMajority   *trace.Counter
	cSuppressed *trace.Counter
	spans       *span.Recorder
}

// ballot is one replica's reply to an awaited request under voting.
type ballot struct {
	sender string
	reply  orb.WireReply
}

var _ orb.Wire = (*GroupWire)(nil)

// GroupWireOption configures a GroupWire.
type GroupWireOption func(*GroupWire)

// WithFilter selects the reply filter (default FilterFirst).
func WithFilter(f ReplyFilter) GroupWireOption {
	return func(w *GroupWire) { w.filter = f }
}

// WithExpectedReplies sets the replica count majority voting is computed
// against (default 1).
func WithExpectedReplies(n int) GroupWireOption {
	return func(w *GroupWire) { w.expected = n }
}

// WithGroupTrace reports interception crossings, filter outcomes and
// duplicate suppressions into r.
func WithGroupTrace(r *trace.Recorder) GroupWireOption {
	return func(w *GroupWire) {
		w.cCrossings = r.Counter(trace.SubInterceptor, "crossings")
		w.cDelivered = r.Counter(trace.SubInterceptor, "replies_delivered")
		w.cMajority = r.Counter(trace.SubInterceptor, "majority_delivered")
		w.cSuppressed = r.Counter(trace.SubInterceptor, "duplicates_suppressed")
		w.spans = r.Spans()
	}
}

// NewGroupWire interposes a client onto the group named by gcc: it starts
// the group client on send and takes its direct deliveries as up-calls. The
// caller must route inbound ProtoGroupClient messages to
// Group().HandleTransport.
func NewGroupWire(send transport.Conn, gcc gcs.ClientConfig, opts ...GroupWireOption) *GroupWire {
	w := &GroupWire{
		model:    gcc.Model,
		filter:   FilterFirst,
		expected: 1,
		awaiting: make(map[uint64][]ballot),
	}
	for _, o := range opts {
		o(w)
	}
	w.gc = gcs.NewClient(send, gcc, w.deliver)
	return w
}

// Group exposes the underlying group client (membership hints,
// introspection).
func (w *GroupWire) Group() *gcs.GroupClient { return w.gc }

// Room is what a request needs to be wrapped in its replication envelope
// and submitted, framed and sealed in place.
func (w *GroupWire) Room() transport.Room { return replication.RequestRoom(w.gc.Room()) }

// Send registers the request as awaited, wraps it in a replication
// envelope, in place, and submits it into the group's agreed stream; the
// group client keeps the frame for retransmission. The registration comes
// first: a reply can be handed up as soon as Submit releases the group
// client's lock.
func (w *GroupWire) Send(req transport.Buf, sentAt vtime.Time, led vtime.Ledger) error {
	cid, rid, err := orb.PeekRequestID(req.Bytes())
	if err != nil {
		return err
	}
	w.cCrossings.Inc()
	led.Charge(vtime.ComponentReplicator, w.model.Intercept)
	spanSubmit(w.spans, cid, rid, sentAt, sentAt.Add(w.model.Intercept))
	w.mu.Lock()
	if _, ok := w.awaiting[rid]; !ok { // a retransmission keeps its ballots
		w.awaiting[rid] = nil
	}
	w.mu.Unlock()
	if err := w.gc.Submit(replication.WrapRequestIn(req), sentAt.Add(w.model.Intercept), led); err != nil {
		w.mu.Lock()
		delete(w.awaiting, rid)
		w.mu.Unlock()
		return err
	}
	return nil
}

// Bind installs the reply sink.
func (w *GroupWire) Bind(sink orb.ReplySink) { w.up.Bind(sink) }

// Close unbinds the sink, stops the underlying group client and forgets
// the requests still awaited.
func (w *GroupWire) Close() error {
	w.up.Shut()
	w.gc.Stop()
	w.mu.Lock()
	clear(w.awaiting)
	w.mu.Unlock()
	return nil
}

// deliver is the group client's handler: one direct delivery from a
// replica, charged the inbound crossing and run through the reply filter.
func (w *GroupWire) deliver(e gcs.Event) {
	w.cCrossings.Inc()
	wr := orb.WireReply{Bytes: e.Payload, VTime: e.VTime, Ledger: e.Ledger}
	wr.Ledger.Charge(vtime.ComponentReplicator, w.model.Intercept)
	wr.VTime = wr.VTime.Add(w.model.Intercept)
	if out, deliver := w.filterReply(wr, e.Sender); deliver {
		// Spanned only for the reply actually handed to the client (the
		// one whose ledger the outcome carries), not for suppressed
		// duplicates or losing majority votes.
		spanDeliver(w.spans, out.Bytes, out.VTime.Add(-w.model.Intercept), out.VTime)
		w.up.Deliver(out)
	}
}

// filterReply applies duplicate suppression and the configured filter to
// a reply from the replica sender.
func (w *GroupWire) filterReply(wr orb.WireReply, sender string) (orb.WireReply, bool) {
	_, rid, err := orb.PeekReplyID(wr.Bytes)
	if err != nil {
		return wr, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ballots, ok := w.awaiting[rid]
	if !ok {
		// Answered already, or never asked: a duplicate, suppressed rather
		// than handed to the client a second time.
		w.cSuppressed.Inc()
		return wr, false
	}
	if w.filter == FilterMajority {
		for _, b := range ballots {
			if b.sender == sender {
				// A replica replies again when it answers a retransmitted
				// request from its reply cache or replays its log on
				// failover: a duplicate, not a second vote.
				w.cSuppressed.Inc()
				return wr, false
			}
		}
		ballots = append(ballots, ballot{sender: sender, reply: wr})
		// The delivered reply carries the slowest agreeing voter's virtual
		// time: a voting client cannot proceed before the majority is in.
		agree := 0
		for _, b := range ballots {
			if bytes.Equal(b.reply.Bytes, wr.Bytes) {
				agree++
				if b.reply.VTime.After(wr.VTime) {
					wr = b.reply
				}
			}
		}
		if agree < w.expected/2+1 { // no majority yet
			w.awaiting[rid] = ballots
			return wr, false
		}
		w.cMajority.Inc()
	}
	delete(w.awaiting, rid)
	w.cDelivered.Inc()
	return wr, true
}
