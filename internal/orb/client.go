package orb

import (
	"sync"
	"time"

	"versadep/internal/codec"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
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
	waiters map[uint64]*waiter
	free    []*waiter // idle waiters: as many as invocations have overlapped
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
		waiters: make(map[uint64]*waiter),
		stop:    make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	wire.Bind(c.deliver)
	return c
}

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

// waiter is what one invocation waits on: the channel its reply arrives in
// and its attempt timer. Waiters are reused from invocation to invocation
// instead of made per call, so both are left the way the next invocation
// must find them: the channel empty (release) and the timer stopped with
// nothing in its channel (stopTimer).
type waiter struct {
	ch    chan WireReply // room for the one reply the invocation reads
	timer *time.Timer
	// names is the table the invocation decodes its reply through: between
	// acquire and release the waiter has one owner, so it needs no lock.
	names codec.Names
}

// acquire registers an idle waiter for reqID (c.mu held).
func (c *Client) acquire(reqID uint64) *waiter {
	var w *waiter
	if n := len(c.free); n > 0 {
		w, c.free = c.free[n-1], c.free[:n-1]
	} else {
		w = &waiter{ch: make(chan WireReply, 1), timer: time.NewTimer(time.Hour)}
		w.stopTimer()
	}
	c.waiters[reqID] = w
	return w
}

// release unregisters reqID's waiter and keeps it for the next invocation.
// deliver sends under the same lock, so once the id is gone nothing more
// arrives in the channel, and a reply that is in it — one that came after
// the invocation gave up, or a second one behind the reply it read — is
// taken out and counted as the duplicate it is: the channel's next user
// starts empty.
func (c *Client) release(reqID uint64, w *waiter) {
	c.mu.Lock()
	delete(c.waiters, reqID)
	select {
	case <-w.ch:
		c.cDupReplies.Inc()
	default:
	}
	c.free = append(c.free, w)
	c.mu.Unlock()
}

// stopTimer stops a timer whose channel has not been received from since it
// was last armed, and leaves that channel empty: a timer that fired while
// the reply was arriving must not wake the next attempt.
func (w *waiter) stopTimer() {
	if !w.timer.Stop() {
		<-w.timer.C
	}
}

// call is one invocation from its first send to its outcome.
type call struct {
	reqID  uint64
	w      *waiter
	req    transport.Buf
	op     string
	now    vtime.Time
	sentVT vtime.Time
	led    vtime.Ledger
	tkey   span.Key
}

// Invoke performs a synchronous invocation starting at virtual time now.
// It retries transparently on loss; duplicate replies (from active
// replicas or retries) are filtered by request id. The returned error is
// ErrTimeout, ErrClosed, or a *RemoteError for servant exceptions.
func (c *Client) Invoke(object, op string, args []codec.Value, now vtime.Time) (*Outcome, error) {
	var k call
	if err := c.start(&k, object, op, args, now); err != nil {
		return nil, err
	}
	return c.finish(&k)
}

// Go starts an invocation and returns once its request has been sent;
// done receives what Invoke would have returned, on a goroutine of its
// own. Requests started by one goroutine's successive Go calls therefore
// reach the wire in call order — the order an open-loop caller stamps
// them in — however the waiting goroutines are scheduled.
func (c *Client) Go(object, op string, args []codec.Value, now vtime.Time, done func(*Outcome, error)) {
	k := new(call)
	if err := c.start(k, object, op, args, now); err != nil {
		done(nil, err)
		return
	}
	go func() { done(c.finish(k)) }()
}

// start registers k's waiter, marshals the request and sends its first
// attempt. On error nothing is left registered.
func (c *Client) start(k *call, object, op string, args []codec.Value, now vtime.Time) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.nextReq++
	k.reqID = c.nextReq
	k.w = c.acquire(k.reqID)
	c.mu.Unlock()

	k.req = encodeRequest(c.wire.Room(), &Request{
		ClientID:  c.id,
		ReqID:     k.reqID,
		Object:    object,
		Operation: op,
		Args:      args,
	})
	k.op, k.now = op, now

	// Client-side marshal: additive virtual cost (client CPUs are not a
	// contended resource in the paper's experiments).
	k.led.Charge(vtime.ComponentORB, c.model.ORBMarshal)
	k.sentVT = now.Add(c.model.ORBMarshal)

	k.tkey = span.RequestKey(c.id, k.reqID)
	c.spans.Add(k.tkey, "client_marshal", span.CompORB, now, k.sentVT)

	c.cInvocations.Inc()
	if err := c.wire.Send(k.req, k.sentVT, k.led); err != nil {
		c.release(k.reqID, k.w)
		return err
	}
	return nil
}

// finish waits for the reply to k, retransmitting on each attempt timeout,
// and releases its waiter.
func (c *Client) finish(k *call) (*Outcome, error) {
	w := k.w
	defer c.release(k.reqID, w)
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.cRetransmits.Inc()
			k.req = k.req.Clone() // the last send spent req's room
			if err := c.wire.Send(k.req, k.sentVT, k.led); err != nil {
				return nil, err
			}
		}
		w.timer.Reset(c.timeout)
		select {
		case wr := <-w.ch:
			w.stopTimer()
			reply := new(Reply) // the outcome keeps it
			if err := decodeReply(wr.Bytes, &w.names, reply); err != nil {
				return nil, err
			}
			outLed := wr.Ledger
			outLed.Charge(vtime.ComponentORB, c.model.ORBMarshal)
			doneVT := wr.VTime.Add(c.model.ORBMarshal)
			c.spans.Add(k.tkey, "client_unmarshal", span.CompORB, wr.VTime, doneVT)
			// Root span: the whole invocation, component-less so the
			// per-component breakdown never double-counts it.
			c.spans.Add(k.tkey, "invoke", "", k.now, doneVT)
			c.hRTT.Observe(int64(doneVT.Sub(k.now)) / int64(vtime.Microsecond))
			out := &Outcome{
				Reply:  reply,
				SentVT: k.now,
				DoneVT: doneVT,
				Ledger: outLed,
			}
			results, err := ResultsOrError(k.op, reply)
			if err != nil {
				return out, err
			}
			out.Results = results
			return out, nil
		case <-w.timer.C:
			// Retransmit with the same request id.
		case <-c.stop:
			w.stopTimer()
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
	if err != nil || string(cid) != c.id {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.waiters[rid]; w != nil {
		select {
		case w.ch <- wr:
			return
		default:
		}
	}
	// A duplicate of an already-answered request, or a reply arriving
	// after Invoke returned or gave up.
	c.cDupReplies.Inc()
}
