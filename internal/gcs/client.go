package gcs

import (
	"sync"
	"time"

	"versadep/internal/codec"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// GroupClient is an open-group access point: a process that is not a group
// member but can submit messages into the group's agreed stream and receive
// reliable direct replies from members. This is how the paper's CORBA
// clients interact with a replicated server through the replicator — the
// client is unaware of the group, while its requests are totally ordered
// with the group's internal traffic.
//
// It is a state machine under one mutex, not an actor: Submit runs on the
// caller's goroutine, HandleTransport on the transport's receiving
// goroutine, and the only goroutine the client owns is the resend ticker.
type GroupClient struct {
	send    transport.Conn // ProtoGCS traffic toward members
	cfg     ClientConfig
	room    transport.Room // what a submission's payload needs around it
	proc    vtime.Server
	handler func(Event)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{} // closed when the resend ticker has exited

	mu      sync.Mutex // guards everything below
	members []string
	oseq    uint64
	pending outbox // submissions not known to be sequenced
	rotate  int    // resend target rotation across ticks
	direct  dupFilter
	names   codec.Names // member addresses met in decoded frames, each made once
	now     func() time.Time
}

// ClientConfig parameterizes a GroupClient.
type ClientConfig struct {
	// Members are address hints for the group; the client submits to the
	// lowest-ranked hint and learns corrections via view hints.
	Members []string
	// ResendInterval is the retransmission period for unacknowledged
	// submissions (real time).
	ResendInterval time.Duration
	// Model is the virtual-time cost model.
	Model vtime.CostModel
	// Spans, when set together with SpanKey, attaches causal spans to
	// submissions and direct deliveries.
	Spans *span.Recorder
	// SpanKey extracts a trace key from an application payload (e.g. the
	// VIOP request id riding a replication envelope); payloads it maps to
	// the zero Key are not spanned. Injected by the composing layer so gcs
	// stays ignorant of upper-layer encodings.
	SpanKey func(payload []byte) span.Key
	// GroupID selects which group (shard) this client talks to when
	// several share a transport; see Config.GroupID.
	GroupID uint32
}

// DefaultClientConfig returns client timing aligned with DefaultConfig.
func DefaultClientConfig(members []string) ClientConfig {
	return ClientConfig{
		Members:        members,
		ResendInterval: defaultResendInterval,
		Model:          vtime.DefaultCostModel(),
	}
}

// NewClient starts a group client. The caller must route inbound
// ProtoGroupClient messages to HandleTransport. Each direct delivery
// (EventDirect) from a group member is handed to handler on the goroutine
// that called HandleTransport, with no client lock held — so handler may
// call Submit — and must not block; no delivery starts after Stop returns.
func NewClient(send transport.Conn, cfg ClientConfig, handler func(Event)) *GroupClient {
	if cfg.ResendInterval <= 0 {
		cfg.ResendInterval = defaultResendInterval
	}
	c := &GroupClient{
		send:    send,
		cfg:     cfg,
		handler: handler,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		members: append([]string(nil), cfg.Members...),
		direct:  newDupFilter(),
		now:     time.Now,
	}
	c.room = (&frame{Kind: kData, Origin: c.Addr(), Group: cfg.GroupID}).room()
	go c.resendLoop()
	return c
}

// Addr returns the client's address.
func (c *GroupClient) Addr() string { return c.send.Addr() }

// stopped reports whether Stop has been called.
func (c *GroupClient) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// Stop shuts the client down and waits for its ticker to exit. Safe to call
// more than once and from several goroutines; every call returns only after
// shutdown is complete.
func (c *GroupClient) Stop() {
	c.stopOnce.Do(func() {
		// Under the lock, so a Submit or HandleTransport already inside
		// finishes first and every later one sees the client stopped.
		c.mu.Lock()
		close(c.stop)
		c.mu.Unlock()
	})
	<-c.done
}

// Room is the room a submission's payload needs around it: Submit frames
// and seals a payload built with it in place.
func (c *GroupClient) Room() transport.Room { return c.room }

// Submit injects payload into the group's agreed stream. It is retransmitted
// until a member reports it sequenced; duplicate submissions are suppressed
// by the sequencer, so retries are safe. sentAt and led carry the caller's
// virtual time and accumulated costs. The client takes ownership of payload
// and its room without copying it: nobody writes to it after the call, and
// a second submission of the same message is a Clone (see transport.Buf).
func (c *GroupClient) Submit(payload transport.Buf, sentAt vtime.Time, led vtime.Ledger) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped() {
		return ErrStopped
	}
	vt := c.proc.Execute(sentAt, c.cfg.Model.GCSend)
	led.Charge(vtime.ComponentGC, c.cfg.Model.GCSend)
	if key := c.spanKey(payload.Bytes()); !key.IsZero() {
		c.cfg.Spans.Add(key, "gc_submit", span.CompGC, vt.Add(-c.cfg.Model.GCSend), vt)
	}
	c.oseq++
	f := &frame{
		Kind:    kData,
		Origin:  c.Addr(),
		OSeq:    c.oseq,
		Level:   Agreed,
		SentVT:  vt,
		Ledger:  led,
		Payload: payload.Bytes(),
	}
	c.pending.push(f)
	if len(c.members) > 0 {
		f.lastSend = c.now()
		_ = c.send.Send(c.members[0], f.sealAround(c.send, c.cfg.GroupID, payload), vt)
	}
	return nil
}

// Members returns the client's current membership hint.
func (c *GroupClient) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.members...)
}

// resendLoop is the client's one goroutine: the retransmission clock.
func (c *GroupClient) resendLoop() {
	defer close(c.done)
	// Twice per ResendInterval: a submission is re-sent at the first tick
	// that finds it a full interval old, so the check has to run finer
	// than the interval or timer jitter would stretch every other resend
	// to two intervals.
	ticker := time.NewTicker(c.cfg.ResendInterval / 2)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.mu.Lock()
			c.tick()
			c.mu.Unlock()
		}
	}
}

// sealed returns f's wire form, stamped with the client's group id and
// sealed on first use (see frame.sealed).
func (c *GroupClient) sealed(f *frame) []byte {
	return f.sealed(c.send, c.cfg.GroupID)
}

// HandleTransport ingests an inbound ProtoGroupClient message: an ack or a
// view hint updates the client's state, a fresh direct delivery is handed
// to the handler after the lock is released. Safe from any goroutine;
// never blocks.
func (c *GroupClient) HandleTransport(msg transport.Message) {
	c.mu.Lock()
	var f frame
	err := decodeFrame(msg.Payload, &c.names, &f)
	// A frame of another group is another shard's traffic on the shared
	// transport.
	if err != nil || f.Group != c.cfg.GroupID || c.stopped() {
		c.mu.Unlock()
		return
	}
	var e Event
	fresh := false
	// A member has seen the submissions up to a kDirect's Seq or a
	// kDataAck's OSeq sequenced: the news arrives on the reply itself or,
	// failing that, in a kDataAck; zero is no news.
	switch f.Kind {
	case kDirect:
		c.pending.ackThrough(f.Seq)
		e, fresh = c.handleDirect(msg, &f)
	case kDataAck:
		c.pending.ackThrough(f.OSeq)
	case kViewHint:
		if len(f.Members) > 0 {
			c.members = append([]string(nil), f.Members...)
		}
	}
	c.mu.Unlock()
	if fresh {
		c.handler(e)
	}
}

// handleDirect acknowledges a direct frame and, unless it is a duplicate,
// returns the delivery event for it (c.mu held). Neither f nor the ack
// outlives the call: the ack costs its sealed buffer.
func (c *GroupClient) handleDirect(msg transport.Message, f *frame) (Event, bool) {
	ack := frame{Kind: kDirectAck, Origin: c.Addr(), OSeq: f.OSeq}
	_ = c.send.SendControl(f.Origin, c.sealed(&ack), 0)
	if c.direct.seen(f.Origin, f.OSeq) {
		return Event{}, false
	}
	led := f.Ledger
	arrive, wire := arrival(msg, f, &c.cfg.Model)
	led.Charge(vtime.ComponentGC, wire)
	vt := c.proc.Execute(arrive, c.cfg.Model.GCSend)
	led.Charge(vtime.ComponentGC, c.cfg.Model.GCSend)
	if key := c.spanKey(f.Payload); !key.IsZero() {
		c.cfg.Spans.Add(key, "gc_recv_direct", span.CompGC, vt.Add(-(wire + c.cfg.Model.GCSend)), vt)
	}
	return Event{
		Kind:    EventDirect,
		Sender:  f.Origin,
		Payload: f.Payload,
		VTime:   vt,
		SentVT:  f.SentVT,
		Ledger:  led,
	}, true
}

// spanKey maps a payload to its trace key, zero when span recording is off
// or the payload carries no request identity.
func (c *GroupClient) spanKey(payload []byte) span.Key {
	if !c.cfg.Spans.On() || c.cfg.SpanKey == nil {
		return span.Key{}
	}
	return c.cfg.SpanKey(payload)
}

// tick re-sends overdue submissions (c.mu held).
func (c *GroupClient) tick() {
	if len(c.members) == 0 {
		return
	}
	// Rotate through hints across ticks so a dead coordinator hint does
	// not wedge the client: retransmissions eventually reach a member
	// that forwards to the live coordinator and corrects our hint.
	nowT := c.now()
	target := c.members[c.rotate%len(c.members)]
	c.pending.resend(nowT, c.cfg.ResendInterval, func(f *frame) {
		f.lastSend = nowT
		_ = c.send.SendControl(target, c.sealed(f), f.SentVT)
	})
	c.rotate++
}
