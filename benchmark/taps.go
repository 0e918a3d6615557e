package main

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// taps is the harness's view of the layer boundaries of one cluster. All of
// it hangs off seams the nodes already accept — the transport endpoint, the
// servant, the checkpoint interface, the engine observer — so the program
// under test is not modified.
//
// Wire counts are always on (one map lookup and two atomic adds per send):
// they are end-to-end metrics. Timing, the segment probe and span capture
// run only in traced rounds; the cost of having them on is itself reported
// as trace.overhead_pct.
type taps struct {
	traced bool
	// clients is the fixed set of client addresses, for classifying a
	// send by the role of its destination. Read-only after construction.
	clients map[string]bool
	epoch   time.Time

	wire [3]wireCount // indexed by link class

	// dataCalls counts sends in simnet's own terms, for cross-checking
	// the wrapper against simnet.Network.Stats(): a multicast once, control
	// sends not at all.
	dataCalls atomic.Int64

	sendCalls atomic.Int64
	sendNs    atomic.Int64

	execs  atomic.Int64
	execNs atomic.Int64

	captures     atomic.Int64
	captureNs    atomic.Int64
	captureBytes atomic.Int64
	applies      atomic.Int64
	applyNs      atomic.Int64

	// seg is the per-request boundary probe; only meaningful with exactly
	// one request in flight, and nil otherwise.
	seg *segProbe

	spanMu       sync.Mutex
	spans        []spanRec
	spansDropped int
}

// Link classes of a send, by the roles of its two ends.
const (
	linkClientToMember = iota
	linkMemberToMember
	linkMemberToClient
)

type wireCount struct {
	msgs  atomic.Int64
	bytes atomic.Int64
}

// spanRec is one captured interval: the harness's own trace format,
// written to benchmark/out/ when a traced run ends. Times are nanoseconds
// since the round's epoch; Parent names the enclosing span of the same
// request ("" for a root).
type spanRec struct {
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans one round keeps: enough for several thousand
// whole requests, small enough that a round's dump stays a few megabytes.
const maxSpans = 40000

func newTaps(traced bool, clients []string, oneInFlight bool) *taps {
	t := &taps{traced: traced, clients: make(map[string]bool), epoch: time.Now()}
	for _, c := range clients {
		t.clients[c] = true
	}
	if traced && oneInFlight {
		t.seg = &segProbe{}
	}
	return t
}

func (t *taps) span(name, node string, req uint64, parent string, start, end time.Time) {
	t.spanMu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRec{Name: name, Node: node, Req: req, Parent: parent,
			Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	} else {
		t.spansDropped++
	}
	t.spanMu.Unlock()
}

func (t *taps) dropSpans() {
	t.spanMu.Lock()
	t.spans, t.spansDropped = nil, 0
	t.spanMu.Unlock()
}

// ---- transport seam ----

// tapEndpoint wraps a node's transport endpoint. It counts every send once
// per destination, control sends included, so simnet (which counts a
// multicast once and omits control traffic) and TCP (which loops unicast)
// are measured alike.
type tapEndpoint struct {
	transport.MultiEndpoint
	t        *taps
	isClient bool
}

func (t *taps) wrapEndpoint(ep transport.MultiEndpoint) *tapEndpoint {
	return &tapEndpoint{MultiEndpoint: ep, t: t, isClient: t.clients[ep.Addr()]}
}

// ExcludeFraming forwards transport.NewDemux's framing declaration, which
// an embedded interface value would otherwise hide from its type switch.
func (e *tapEndpoint) ExcludeFraming(n int) {
	if fx, ok := e.MultiEndpoint.(interface{ ExcludeFraming(int) }); ok {
		fx.ExcludeFraming(n)
	}
}

func (e *tapEndpoint) class(to string) int {
	switch {
	case e.isClient:
		return linkClientToMember
	case e.t.clients[to]:
		return linkMemberToClient
	default:
		return linkMemberToMember
	}
}

func (e *tapEndpoint) count(to string, size int) {
	w := &e.t.wire[e.class(to)]
	w.msgs.Add(1)
	w.bytes.Add(int64(size))
}

// timed runs one send call under the traced-mode clock.
func (e *tapEndpoint) timed(to string, payload []byte, send func() error) error {
	if !e.t.traced {
		return send()
	}
	start := time.Now()
	if e.t.seg != nil {
		e.t.seg.onSend(e.isClient, e.t.clients[to], payload, start)
	}
	err := send()
	e.t.sendCalls.Add(1)
	e.t.sendNs.Add(time.Since(start).Nanoseconds())
	return err
}

func (e *tapEndpoint) Send(to string, payload []byte, at vtime.Time) error {
	e.count(to, len(payload))
	e.t.dataCalls.Add(1)
	return e.timed(to, payload, func() error { return e.MultiEndpoint.Send(to, payload, at) })
}

func (e *tapEndpoint) SendMulticast(tos []string, payload []byte, at vtime.Time) error {
	for _, to := range tos {
		e.count(to, len(payload))
	}
	e.t.dataCalls.Add(1)
	return e.timed("", payload, func() error { return e.MultiEndpoint.SendMulticast(tos, payload, at) })
}

func (e *tapEndpoint) SendControl(to string, payload []byte, at vtime.Time) error {
	e.count(to, len(payload))
	return e.timed(to, payload, func() error { return e.MultiEndpoint.SendControl(to, payload, at) })
}

// ---- application seams ----

// tapServant wraps the replicated servant: executions per request, time in
// the application, and the order_deliver/app_exec boundaries of the
// segment probe.
type tapServant struct {
	inner orb.Servant
	t     *taps
	node  string
}

// ExecCost forwards the virtual execution cost so the wrapped servant
// charges the cost model exactly as the bare one does.
func (s *tapServant) ExecCost(op string, args []codec.Value) vtime.Duration {
	if c, ok := s.inner.(orb.ExecCoster); ok {
		return c.ExecCost(op, args)
	}
	return 0
}

func (s *tapServant) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	start := time.Now()
	out, err := s.inner.Invoke(op, args)
	end := time.Now()
	s.t.execs.Add(1)
	s.t.execNs.Add(end.Sub(start).Nanoseconds())
	if s.t.seg != nil {
		s.t.seg.onExec(start, end)
	}
	s.t.span("app_exec", s.node, requestID(args), "invoke", start, end)
	return out, err
}

// requestID reads the identifier the load generator puts in the first
// eight bytes of every request payload, so a servant-side span can name
// its request without decoding anything the program owns.
func requestID(args []codec.Value) uint64 {
	if len(args) == 0 || len(args[0].Byt) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(args[0].Byt)
}

// tapState wraps the application's checkpoint interface: capture and apply
// time and the bytes every capture produced (periodic checkpoints and
// joiner bookmarks alike).
type tapState struct {
	inner replication.Checkpointable
	t     *taps
	node  string
}

func (s *tapState) State() []byte {
	start := time.Now()
	b := s.inner.State()
	end := time.Now()
	s.t.captures.Add(1)
	s.t.captureNs.Add(end.Sub(start).Nanoseconds())
	s.t.captureBytes.Add(int64(len(b)))
	s.t.span("checkpoint_capture", s.node, 0, "", start, end)
	return b
}

func (s *tapState) Restore(state []byte) error {
	start := time.Now()
	err := s.inner.Restore(state)
	end := time.Now()
	s.t.applies.Add(1)
	s.t.applyNs.Add(end.Sub(start).Nanoseconds())
	s.t.span("checkpoint_apply", s.node, 0, "", start, end)
	return err
}

// ---- segment probe ----

// segProbe stamps the layer boundaries one request crosses, outside in:
//
//	invoke ─ client_submit ─▶ first client send
//	       ─ order_deliver ─▶ first servant entry (any replica)
//	       ─ app_exec      ─▶ that servant's return
//	       ─ reply_send    ─▶ first send carrying a VIOP reply to the client
//	       ─ reply_return  ─▶ Invoke returns
//
// Every stamp is taken once, first writer wins, and each later stamp is
// only accepted after the one before it, so the five segments telescope to
// the round trip exactly. It is valid only while a single request is in
// flight: begin and finish are called by the one load-generating goroutine,
// the stamps arrive from node goroutines in between.
type segProbe struct {
	mu                         sync.Mutex
	open                       bool
	t0, send, enter, exit, rep time.Time

	n                                            int64
	incomplete                                   int64
	submitNs, orderNs, execNs, replyNs, returnNs int64
}

// viopReply is how a VIOP reply starts on the wire (orb.Magic, big-endian,
// then orb.MsgReply): the probe's way of telling the reply from the GCS
// acknowledgements a member also sends the client.
var viopReply = []byte{'V', 'I', 'O', 'P', byte(orb.MsgReply)}

func (p *segProbe) begin(now time.Time) {
	p.mu.Lock()
	p.open = true
	p.t0, p.send, p.enter, p.exit, p.rep = now, time.Time{}, time.Time{}, time.Time{}, time.Time{}
	p.mu.Unlock()
}

func (p *segProbe) onSend(fromClient, toClient bool, payload []byte, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.open {
		return
	}
	switch {
	case fromClient && p.send.IsZero():
		p.send = now
	case toClient && !p.exit.IsZero() && p.rep.IsZero() && bytes.Contains(payload, viopReply):
		p.rep = now
	}
}

func (p *segProbe) onExec(start, end time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.open || p.send.IsZero() || !p.enter.IsZero() {
		return
	}
	p.enter, p.exit = start, end
}

// finish closes the current request and, when every boundary was seen,
// adds its segments to the totals and hands them to the span buffer.
func (p *segProbe) finish(t *taps, req uint64, now time.Time) {
	p.mu.Lock()
	p.open = false
	t0, send, enter, exit, rep := p.t0, p.send, p.enter, p.exit, p.rep
	if send.IsZero() || enter.IsZero() || rep.IsZero() {
		p.incomplete++
		p.mu.Unlock()
		return
	}
	p.n++
	p.submitNs += send.Sub(t0).Nanoseconds()
	p.orderNs += enter.Sub(send).Nanoseconds()
	p.execNs += exit.Sub(enter).Nanoseconds()
	p.replyNs += rep.Sub(exit).Nanoseconds()
	p.returnNs += now.Sub(rep).Nanoseconds()
	p.mu.Unlock()

	t.span("invoke", "", req, "", t0, now)
	t.span("client_submit", "", req, "invoke", t0, send)
	t.span("order_deliver", "", req, "invoke", send, enter)
	t.span("reply_send", "", req, "invoke", exit, rep)
	t.span("reply_return", "", req, "invoke", rep, now)
}
