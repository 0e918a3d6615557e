package orb

import (
	"sync/atomic"

	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// Buffer ownership: request and reply bytes are immutable from the moment
// they are handed to a Wire (or to the transport underneath it) and for as
// long as anyone holds them — wires and group layers keep them for
// retransmission, fabrics hand one slice to several receivers, and
// receivers may retain what they are given but never write to it (see
// transport.Message.Payload).

// Wire is the client ORB's view of its transport connection. The baseline
// uses DirectWire (point-to-point, like a GIOP TCP connection); the
// interceptor package substitutes implementations that add interception
// costs or redirect onto group communication. Invoke never knows the
// difference — the transparency property of library interposition.
//
// Requests go down as calls (Send) and replies come back up as calls (the
// bound ReplySink): a wire owns no goroutine, it is a function from an
// inbound message to an up-call on whatever is stacked above it, run by the
// transport's receiving goroutine.
type Wire interface {
	// Room is the room a request needs around it for the wire and the
	// layers under it to carry it without copying: the client encodes
	// each request into a buffer with that much room.
	Room() transport.Room
	// Send transmits an encoded request at virtual time sentAt with the
	// costs accumulated so far, wrapping it in place in its room. The
	// wire takes ownership of req: a second send of the same request is a
	// Clone (see transport.Buf).
	Send(req transport.Buf, sentAt vtime.Time, led vtime.Ledger) error
	// Bind installs the sink replies are delivered to. The layer above
	// (the client ORB, or a wire stacked on this one) calls it once, at
	// construction; replies arriving before that are dropped.
	Bind(sink ReplySink)
	// Close releases the wire. A reply that arrives after Close has
	// returned is not delivered.
	Close() error
}

// WireReply is one reply arriving at the client.
type WireReply struct {
	Bytes  []byte
	VTime  vtime.Time
	Ledger vtime.Ledger
}

// ReplySink is the up-call a Wire hands each inbound reply to. It runs on
// the goroutine that received the message, so it never blocks; the wire
// holds no lock while calling it, so it may call Send on the same wire; and
// it is not invoked once the wire's Close has returned.
type ReplySink func(WireReply)

// Upcall is the sink slot of a Wire implementation: Bind installs the
// sink, Deliver calls it (a no-op before Bind and after Shut), Shut clears
// it on Close. Lock-free, so Deliver never runs the sink under a lock.
type Upcall struct {
	sink atomic.Pointer[ReplySink]
}

// Bind installs sink.
func (u *Upcall) Bind(sink ReplySink) { u.sink.Store(&sink) }

// Deliver hands wr to the bound sink, if there is one.
func (u *Upcall) Deliver(wr WireReply) {
	if sink := u.sink.Load(); sink != nil {
		(*sink)(wr)
	}
}

// Shut unbinds the sink: later Delivers do nothing.
func (u *Upcall) Shut() { u.sink.Store(nil) }

// Envelope wraps VIOP bytes with their virtual timing context when they
// travel point-to-point (the GIOP service-context analogue): the receiver
// needs the sender's accumulated ledger and virtual send instant, which raw
// VIOP does not carry.
type Envelope struct {
	VT     vtime.Time
	Ledger vtime.Ledger
	Bytes  []byte
}

// envelopeHeadSize is the length of env's encoding in front of its Bytes:
// the timing fields and the Bytes length prefix.
func envelopeHeadSize(env *Envelope) int {
	return 8 + 4 + 8*len(env.Ledger.Slots()) + 4
}

// envelopeRoom is the room a VIOP message needs around it to travel in an
// envelope, sealed in place.
var envelopeRoom = transport.SealRoom.Around(envelopeHeadSize(&Envelope{}), 0)

// EncodeEnvelope serializes an envelope.
func EncodeEnvelope(env *Envelope) []byte {
	b := appendEnvelopeHead(make([]byte, 0, envelopeHeadSize(env)+len(env.Bytes)), env)
	return append(b, env.Bytes...)
}

// appendEnvelopeHead appends the envelopeHeadSize(env) bytes of env's
// encoding that precede its Bytes.
func appendEnvelopeHead(b []byte, env *Envelope) []byte {
	e := codec.AppendTo(b)
	e.PutInt64(int64(env.VT))
	slots := env.Ledger.Slots()
	e.PutUint32(uint32(len(slots)))
	for _, d := range slots {
		e.PutInt64(int64(d))
	}
	e.PutUint32(uint32(len(env.Bytes)))
	return e.Bytes()
}

// sendEnvelope wraps env's header around m, the buffer holding env.Bytes,
// in place, seals it and sends it.
func sendEnvelope(conn transport.Conn, to string, env *Envelope, m transport.Buf) error {
	head, _ := m.Wrap(envelopeHeadSize(env), 0)
	appendEnvelopeHead(head[:0], env)
	return conn.Send(to, conn.Seal(m), env.VT)
}

// DecodeEnvelope parses an envelope. Bytes is a sub-slice of b, not a copy.
func DecodeEnvelope(b []byte) (*Envelope, error) {
	var env Envelope
	if err := decodeEnvelope(b, &env); err != nil {
		return nil, err
	}
	return &env, nil
}

// decodeEnvelope is DecodeEnvelope into *env, an envelope the caller owns
// (every field overwritten).
func decodeEnvelope(b []byte, env *Envelope) error {
	*env = Envelope{}
	d := codec.NewDecoder(b)
	vt, err := d.Int64()
	if err != nil {
		return err
	}
	env.VT = vtime.Time(vt)
	n, _, err := d.Count(8)
	if err != nil {
		return err
	}
	slots := env.Ledger.Slots()
	for i := 0; i < n; i++ {
		v, err := d.Int64()
		if err != nil {
			return err
		}
		if i < len(slots) {
			slots[i] = vtime.Duration(v)
		}
	}
	env.Bytes, err = d.Bytes()
	return err
}

// DirectWire is the unreplicated point-to-point connection to one server
// (the paper's "no interceptor" baseline). Wire time on this path is
// charged to the ORB component: the baseline measurement in Figure 4 has no
// group-communication layer to attribute it to.
type DirectWire struct {
	conn   transport.Conn
	server string
	model  vtime.CostModel
	up     Upcall
}

var _ Wire = (*DirectWire)(nil)

// NewDirectWire creates a wire from conn to the server address. The caller
// must route inbound ProtoVIOP messages to HandleTransport.
func NewDirectWire(conn transport.Conn, server string, model vtime.CostModel) *DirectWire {
	return &DirectWire{conn: conn, server: server, model: model}
}

// Bind installs the reply sink.
func (w *DirectWire) Bind(sink ReplySink) { w.up.Bind(sink) }

// Room is what a request needs to travel in a sealed timing envelope.
func (w *DirectWire) Room() transport.Room { return envelopeRoom }

// Send transmits the request inside a timing envelope.
func (w *DirectWire) Send(req transport.Buf, sentAt vtime.Time, led vtime.Ledger) error {
	return sendEnvelope(w.conn, w.server, &Envelope{VT: sentAt, Ledger: led, Bytes: req.Bytes()}, req)
}

// HandleTransport turns an inbound reply message into an up-call on the
// bound sink, charging the wire time to the ORB component.
func (w *DirectWire) HandleTransport(msg transport.Message) {
	var env Envelope
	if decodeEnvelope(msg.Payload, &env) != nil {
		return
	}
	led := env.Ledger
	vt := env.VT
	if msg.ArriveAt >= msg.SentAt && msg.SentAt == env.VT {
		led.Charge(vtime.ComponentORB, msg.ArriveAt.Sub(msg.SentAt))
		vt = msg.ArriveAt
	}
	w.up.Deliver(WireReply{Bytes: env.Bytes, VTime: vt, Ledger: led})
}

// Close unbinds the sink; the connection belongs to the caller.
func (w *DirectWire) Close() error {
	w.up.Shut()
	return nil
}
