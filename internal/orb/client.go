package orb

import (
	"sync"
	"time"

	"versadep/internal/codec"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

// Client is the caller-side ORB: it marshals invocations, matches replies
// by request id, and retries on loss. All timing is virtual except the
// retry/timeout machinery, which is real-time (liveness, not performance).
type Client struct {
	id    string
	wire  Wire
	model vtime.CostModel

	timeout time.Duration
	retries int

	// trace counters (nil-safe no-ops when tracing is off).
	cInvocations *trace.Counter
	cRetransmits *trace.Counter
	cTimeouts    *trace.Counter
	cDupReplies  *trace.Counter
	hRTT         *trace.Histogram
	spans        *span.Recorder

	mu      sync.Mutex
	nextReq uint64
	waiters map[uint64]chan WireReply
	closed  bool

	stop chan struct{} // closed by Close: wakes invocations in flight
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTimeout sets the per-attempt real-time reply timeout.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetries sets how many times an invocation is retransmitted before
// ErrTimeout. Retries reuse the request id, so replica-side duplicate
// suppression keeps the invocation at-most-once.
func WithRetries(n int) ClientOption {
	return func(c *Client) { c.retries = n }
}

// WithClientTrace reports the client ORB's retransmits, timeouts and
// duplicate-reply suppressions into r, records round-trip latencies into
// the "orb.rtt_us" histogram, and opens a causal root span per invocation.
func WithClientTrace(r *trace.Recorder) ClientOption {
	return func(c *Client) {
		c.cInvocations = r.Counter(trace.SubORB, "invocations")
		c.cRetransmits = r.Counter(trace.SubORB, "retransmits")
		c.cTimeouts = r.Counter(trace.SubORB, "timeouts")
		c.cDupReplies = r.Counter(trace.SubORB, "duplicate_replies")
		c.hRTT = r.Histogram(trace.SubORB, "rtt_us")
		c.spans = r.Spans()
	}
}

// NewClient creates a client ORB identified by id (its process address)
// speaking over wire, and binds itself into the wire as its reply sink.
func NewClient(id string, wire Wire, model vtime.CostModel, opts ...ClientOption) *Client {
	c := &Client{
		id:      id,
		wire:    wire,
		model:   model,
		timeout: 2 * time.Second,
		retries: 3,
		waiters: make(map[uint64]chan WireReply),
		stop:    make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	wire.Bind(c.deliver)
	return c
}

// ID returns the client's process identifier.
func (c *Client) ID() string { return c.id }

// Close shuts the client down; in-flight invocations fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	return c.wire.Close()
}

// Outcome is the result of a successful invocation, with its virtual
// timing.
type Outcome struct {
	// Results are the returned values (empty on exception — see err).
	Results []codec.Value
	// Reply is the full decoded reply.
	Reply *Reply
	// SentVT is the virtual instant the request left the client ORB.
	SentVT vtime.Time
	// DoneVT is the virtual instant the reply finished unmarshaling.
	DoneVT vtime.Time
	// Ledger is the complete per-component cost breakdown of the round
	// trip.
	Ledger vtime.Ledger
}

// RTT is the round-trip time in virtual time.
func (o *Outcome) RTT() vtime.Duration { return o.DoneVT.Sub(o.SentVT) }

// Invoke performs a synchronous invocation starting at virtual time now.
// It retries transparently on loss; duplicate replies (from active
// replicas or retries) are filtered by request id. The returned error is
// ErrTimeout, ErrClosed, or a *RemoteError for servant exceptions.
func (c *Client) Invoke(object, op string, args []codec.Value, now vtime.Time) (*Outcome, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextReq++
	reqID := c.nextReq
	ch := make(chan WireReply, 1)
	c.waiters[reqID] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, reqID)
		c.mu.Unlock()
	}()

	req := &Request{
		ClientID:  c.id,
		ReqID:     reqID,
		Object:    object,
		Operation: op,
		Args:      args,
	}
	reqBytes := EncodeRequest(req)

	// Client-side marshal: additive virtual cost (client CPUs are not a
	// contended resource in the paper's experiments).
	var led vtime.Ledger
	led.Charge(vtime.ComponentORB, c.model.ORBMarshal)
	sentVT := now.Add(c.model.ORBMarshal)

	// tkey is only built when span recording is on — a nil recorder must
	// add zero allocations to this path.
	var tkey string
	if c.spans.On() {
		tkey = span.RequestTrace(c.id, reqID)
		c.spans.Add(tkey, "client_marshal", span.CompORB, now, sentVT)
	}

	c.cInvocations.Inc()
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.cRetransmits.Inc()
		}
		if err := c.wire.Send(reqBytes, sentVT, led); err != nil {
			return nil, err
		}
		timer := time.NewTimer(c.timeout)
		select {
		case wr := <-ch:
			timer.Stop()
			reply, err := DecodeReply(wr.Bytes)
			if err != nil {
				return nil, err
			}
			outLed := wr.Ledger
			outLed.Charge(vtime.ComponentORB, c.model.ORBMarshal)
			doneVT := wr.VTime.Add(c.model.ORBMarshal)
			if c.spans.On() {
				c.spans.Add(tkey, "client_unmarshal", span.CompORB, wr.VTime, doneVT)
				// Root span: the whole invocation, component-less so the
				// per-component breakdown never double-counts it.
				c.spans.Add(tkey, "invoke", "", now, doneVT)
			}
			c.hRTT.Observe(int64(doneVT.Sub(now)) / int64(vtime.Microsecond))
			out := &Outcome{
				Reply:  reply,
				SentVT: now,
				DoneVT: doneVT,
				Ledger: outLed,
			}
			results, err := ResultsOrError(op, reply)
			if err != nil {
				return out, err
			}
			out.Results = results
			return out, nil
		case <-timer.C:
			// Retransmit with the same request id.
		case <-c.stop:
			timer.Stop()
			return nil, ErrClosed
		}
	}
	c.cTimeouts.Inc()
	return nil, ErrTimeout
}

// deliver is the client's ReplySink: it hands a wire reply to the
// invocation waiting on it, dropping duplicates and replies to forgotten
// requests. It runs on the wire's receiving goroutine and never blocks (a
// waiter's channel has room for the one reply it will read).
func (c *Client) deliver(wr WireReply) {
	cid, rid, err := PeekReplyID(wr.Bytes)
	if err != nil || cid != c.id {
		return
	}
	c.mu.Lock()
	ch := c.waiters[rid]
	c.mu.Unlock()
	select {
	case ch <- wr: // a nil ch (no invocation waiting) is never ready
	default:
		// A duplicate of an already-answered request, or a reply arriving
		// after Invoke returned or gave up.
		c.cDupReplies.Inc()
	}
}
