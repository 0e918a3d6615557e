package replication

import (
	"sync"
	"testing"

	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// recPort is a recording effects port: an engine on it puts nothing on a
// network, and the test reads what it would have sent.
type recPort struct {
	addr string
	mu   sync.Mutex
	sent []sentMsg
}

// sentMsg is one send through a recPort: a multicast on the agreed stream
// (to is empty) or a point-to-point send. msg is nil for a payload that is
// no replication envelope (a reply to a client).
type sentMsg struct {
	to  string
	msg *Msg
}

func (p *recPort) Addr() string { return p.addr }

func (p *recPort) Multicast(payload []byte, _ gcs.ServiceLevel, _ vtime.Time, _ vtime.Ledger) error {
	p.record("", payload)
	return nil
}

func (p *recPort) SendDirect(to string, payload transport.Buf, _ vtime.Time, _ vtime.Ledger) error {
	p.record(to, payload.Bytes())
	return nil
}

func (p *recPort) DirectRoom() transport.Room { return transport.Room{} }

func (p *recPort) record(to string, b []byte) {
	m, err := Decode(append([]byte(nil), b...))
	if err != nil {
		m = nil
	}
	p.mu.Lock()
	p.sent = append(p.sent, sentMsg{to, m})
	p.mu.Unlock()
}

// take returns the messages of kind sent since the last take of kind.
func (p *recPort) take(kind MsgKind) []sentMsg {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []sentMsg
	keep := p.sent[:0]
	for _, s := range p.sent {
		if s.msg != nil && s.msg.Kind == kind {
			out = append(out, s)
		} else {
			keep = append(keep, s)
		}
	}
	p.sent = keep
	return out
}

// sentTo counts everything sent point-to-point to addr.
func (p *recPort) sentTo(addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, s := range p.sent {
		if s.to == addr {
			n++
		}
	}
	return n
}

// portEngine builds an engine at addr on a recording port: no member, no
// transport and no goroutine. The test drives it through step.
func portEngine(t *testing.T, addr string, cfg Config) (*Engine, *recPort) {
	t.Helper()
	if cfg.Model == (vtime.CostModel{}) {
		cfg.Model = vtime.DefaultCostModel()
	}
	if cfg.State == nil {
		cfg.State = &memState{}
	}
	p := &recPort{addr: addr}
	return newEngine(p, orb.NewAdapter(vtime.DefaultCostModel()), cfg), p
}

// runPort starts e's goroutine on a stream of events the test feeds: feed
// returns once e has handled ev, so what it sent is on the port.
func runPort(t *testing.T, e *Engine) (feed func(ev gcs.Event)) {
	t.Helper()
	out := make(chan gcs.Event)
	go e.run(out)
	t.Cleanup(e.Stop)
	return func(ev gcs.Event) {
		out <- ev
		e.do(func() {}) // run takes the next command only after the event
	}
}

func viewEvent(id uint64, members ...string) gcs.Event {
	return gcs.Event{Kind: gcs.EventView, Seq: id, View: gcs.View{ID: id, Members: members}}
}

// agreedEvent delivers m from sender on the agreed stream at seq.
func agreedEvent(sender string, seq uint64, m *Msg) gcs.Event {
	return gcs.Event{Kind: gcs.EventMessage, Sender: sender, Seq: seq, Payload: Encode(m)}
}

// directEvent delivers m from sender point-to-point.
func directEvent(sender string, m *Msg) gcs.Event {
	return gcs.Event{Kind: gcs.EventDirect, Sender: sender, Payload: Encode(m)}
}

// requestEvent delivers client c1's request rid on the agreed stream at
// seq rid.
func requestEvent(rid uint64) gcs.Event {
	return gcs.Event{Kind: gcs.EventMessage, Sender: "c1", Seq: rid, Payload: WrapRequest(requestBytes("c1", rid))}
}
