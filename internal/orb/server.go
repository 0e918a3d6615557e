package orb

import (
	"sync"

	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// Server hosts an adapter on a point-to-point connection: the unreplicated
// baseline of Figure 4, optionally with the interception shim in the path
// ("server intercepted" configuration). Replicated servers do not use this
// type — the replication engine drives the adapter from the group's agreed
// stream instead.
type Server struct {
	conn    transport.Conn
	adapter *Adapter
	cpu     *vtime.Server

	// interceptCost, when non-zero, simulates the library-interposition
	// shim sitting under the ORB without modifying messages: each request
	// and each reply crossing charges it (the paper's "intercepted but
	// not modified" mode).
	interceptCost vtime.Duration

	cServed  *trace.Counter
	cDropped *trace.Counter

	mu      sync.Mutex // serialises serving: the adapter is single-threaded
	stopped bool
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerIntercept enables the pass-through interception shim on the
// server side, charging cost per message crossing.
func WithServerIntercept(cost vtime.Duration) ServerOption {
	return func(s *Server) { s.interceptCost = cost }
}

// WithServerTrace reports served and dropped (undecodable) requests into r.
func WithServerTrace(r *trace.Recorder) ServerOption {
	return func(s *Server) {
		s.cServed = r.Counter(trace.SubORB, "requests_served")
		s.cDropped = r.Counter(trace.SubORB, "requests_dropped")
	}
}

// NewServer makes a baseline server. The caller must route inbound
// ProtoVIOP messages to HandleTransport. cpu is the hosting process's
// virtual CPU (shared with anything else the process does).
func NewServer(conn transport.Conn, adapter *Adapter, cpu *vtime.Server, model vtime.CostModel, opts ...ServerOption) *Server {
	s := &Server{conn: conn, adapter: adapter, cpu: cpu}
	for _, o := range opts {
		o(s)
	}
	return s
}

// HandleTransport serves an inbound request on the caller's goroutine —
// the transport's receiving one — and sends the reply. Safe from any
// goroutine; requests are served one at a time, in the order they get in.
func (s *Server) HandleTransport(msg transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopped {
		s.serve(msg)
	}
}

// Stop shuts the server down: once it has returned, no request is served.
// Safe from several goroutines.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

func (s *Server) serve(msg transport.Message) {
	var env Envelope
	if decodeEnvelope(msg.Payload, &env) != nil {
		s.cDropped.Inc()
		return
	}
	led := env.Ledger
	vt := env.VT
	if msg.ArriveAt >= msg.SentAt && msg.SentAt == env.VT {
		led.Charge(vtime.ComponentORB, msg.ArriveAt.Sub(msg.SentAt))
		vt = msg.ArriveAt
	}
	if s.interceptCost > 0 {
		vt = s.cpu.Execute(vt, s.interceptCost)
		led.Charge(vtime.ComponentReplicator, s.interceptCost)
	}
	res, err := s.adapter.HandleRequest(s.cpu, env.Bytes, envelopeRoom, vt, led)
	if err != nil {
		s.cDropped.Inc()
		return // undecodable request: drop; the client retries
	}
	s.cServed.Inc()
	vt = res.DoneVT
	led = res.Ledger
	if s.interceptCost > 0 {
		vt = s.cpu.Execute(vt, s.interceptCost)
		led.Charge(vtime.ComponentReplicator, s.interceptCost)
	}
	_ = sendEnvelope(s.conn, msg.From, &Envelope{VT: vt, Ledger: led, Bytes: res.Encoded.Bytes()}, res.Encoded)
}
