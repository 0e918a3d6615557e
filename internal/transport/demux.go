package transport

import (
	"versadep/internal/codec"
	"versadep/internal/trace"
	"versadep/internal/vtime"
)

// Protocol identifies which stack layer a datagram belongs to. It occupies
// the first byte of every payload on the wire, so a single process can host
// several protocol endpoints (a GCS daemon, raw ORB traffic, a group-client
// handle) behind one network address — the way the paper's replicator
// shares a node with the application it intercepts.
type Protocol byte

// Wire protocols.
const (
	// ProtoGCS carries group-communication frames.
	ProtoGCS Protocol = 1
	// ProtoVIOP carries raw (non-intercepted) ORB messages.
	ProtoVIOP Protocol = 2
	// ProtoGroupClient carries replies and view hints to external group
	// clients.
	ProtoGroupClient Protocol = 3
)

// Headroom is how many bytes an outbound buffer reserves in front of the
// message for the demux's protocol byte.
const Headroom = 1

// Conn is the sending surface a protocol layer sees after demultiplexing.
// A message goes out in two steps: Seal turns the buffer the layers above
// filled (see Buf) into a wire frame, and the send calls transmit sealed
// frames. The split lets a layer that retransmits keep the sealed frame and
// send the same bytes again.
//
// A sealed frame is immutable: the fabric hands the slice itself to every
// receiver, so it must not be written to — or sealed again — by anyone,
// for as long as anyone holds it. Multicast counts payload bytes once (LAN
// multicast semantics) and does not retain tos, so a caller may send to
// the same list every time; control sends are excluded from traffic
// accounting entirely.
type Conn interface {
	Addr() string
	// Seal writes the protocol byte and the checksum trailer into the
	// room around m (SealRoom), in place, and returns the sealed frame.
	Seal(m Buf) []byte
	Send(to string, sealed []byte, sentAt vtime.Time) error
	SendMulticast(tos []string, sealed []byte, sentAt vtime.Time) error
	SendControl(to string, sealed []byte, sentAt vtime.Time) error
}

// MultiEndpoint is the full surface demux requires from a transport
// implementation. *simnet.Endpoint satisfies it; TCP endpoints provide
// degenerate multicast/control implementations.
type MultiEndpoint interface {
	Addr() string
	Send(to string, payload []byte, sentAt vtime.Time) error
	// SendMulticast sends payload to every address in tos. It reads tos
	// during the call and does not retain it: the caller keeps the list
	// and may send to it again.
	SendMulticast(tos []string, payload []byte, sentAt vtime.Time) error
	SendControl(to string, payload []byte, sentAt vtime.Time) error
	// Serve hands every inbound message to fn on the goroutine that
	// received it: simnet's pump for the endpoint, or the reader of the TCP
	// connection the frame arrived on. Messages that arrive before Serve
	// wait, and reach fn in arrival order once it is called; only the first
	// call counts. fn must not block. Messages of one link reach it in the
	// order they were sent, but on TCP, frames from different peers may be
	// in fn at once. Close returns with no call of fn running, and none
	// starts after it, so fn must not close the endpoint it serves.
	Serve(fn func(Message))
	Close() error
}

// Demux fans one endpoint's inbound stream out to per-protocol handlers and
// provides per-protocol Conn views for sending.
//
// Every outbound payload is sealed with a CRC32-C trailer and every inbound
// payload is verified before dispatch: a frame the wire damaged is dropped
// and counted — converted into an ordinary message loss the upper layers'
// retransmission already recovers from — rather than delivered to a
// protocol decoder.
type Demux struct {
	ep MultiEndpoint
	// handlers, by protocol byte, is written only before Start.
	handlers [256]func(Message)

	cCorrupt *trace.Counter
}

// NewDemux wraps ep. Call Handle for each protocol, then Start.
//
// If the endpoint supports it, the demux declares its checksum trailer as
// link framing excluded from byte accounting: the calibrated cost model
// keeps charging the application-visible bytes it was calibrated for, just
// as the paper's bandwidth measurements exclude the Ethernet FCS.
func NewDemux(ep MultiEndpoint) *Demux {
	if fx, ok := ep.(interface{ ExcludeFraming(bytes int) }); ok {
		fx.ExcludeFraming(codec.SealOverhead)
	}
	return &Demux{ep: ep}
}

// Handle registers fn for proto, before Start. A handler runs on the
// endpoint's receiving goroutines (see MultiEndpoint.Serve).
func (d *Demux) Handle(proto Protocol, fn func(Message)) {
	d.handlers[proto] = fn
}

// Start begins delivery: the endpoint calls dispatch for every message.
func (d *Demux) Start() { d.ep.Serve(d.dispatch) }

// SetTrace registers the corrupt-frame drop counter with r
// (transport/corrupt_frames_dropped). Call before Start.
func (d *Demux) SetTrace(r *trace.Recorder) {
	d.cCorrupt = r.Counter(trace.SubTransport, "corrupt_frames_dropped")
}

// Close shuts down the underlying endpoint; no handler runs once it returns.
func (d *Demux) Close() error { return d.ep.Close() }

// Addr returns the underlying endpoint address.
func (d *Demux) Addr() string { return d.ep.Addr() }

// dispatch verifies one inbound message and hands it to its protocol's
// handler.
func (d *Demux) dispatch(m Message) {
	body, err := codec.VerifyChecksum(m.Payload)
	if err != nil || len(body) == 0 {
		d.cCorrupt.Inc()
		return
	}
	// Capacity clipped: the buffer is shared (other receivers, the sender's
	// retransmission copy), so an append by a holder must reallocate rather
	// than run over the checksum behind the payload.
	m.Payload = body[Headroom:len(body):len(body)]
	if fn := d.handlers[body[0]]; fn != nil {
		fn(m)
	}
}

// Conn returns the sending surface for proto: the endpoint's sends, and a
// Seal that writes proto.
func (d *Demux) Conn(proto Protocol) Conn { return protoConn{d.ep, byte(proto)} }

type protoConn struct {
	MultiEndpoint
	proto byte
}

func (c protoConn) Seal(m Buf) []byte {
	head, _ := m.Wrap(Headroom, codec.SealOverhead)
	head[0] = c.proto
	frame := m.Bytes()
	// The checksum's window is inside the clipped capacity: appended in place.
	return codec.AppendChecksum(frame[:len(frame)-codec.SealOverhead])
}
