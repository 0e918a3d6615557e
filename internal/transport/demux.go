package transport

import (
	"sync"

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
// multicast semantics); control sends are excluded from traffic accounting
// entirely.
type Conn interface {
	Addr() string
	// Seal writes the protocol byte and the checksum trailer into the
	// room around m (SealRoom), in place, and returns the sealed frame.
	Seal(m Buf) []byte
	Send(to string, sealed []byte, sentAt vtime.Time) error
	SendMulticast(tos []string, sealed []byte, sentAt vtime.Time) error
	SendControl(to string, sealed []byte, sentAt vtime.Time) error
}

// MultiEndpoint is the full sending surface demux requires from a
// transport implementation. *simnet.Endpoint satisfies it; TCP endpoints
// provide degenerate multicast/control implementations.
type MultiEndpoint interface {
	Addr() string
	Send(to string, payload []byte, sentAt vtime.Time) error
	SendMulticast(tos []string, payload []byte, sentAt vtime.Time) error
	SendControl(to string, payload []byte, sentAt vtime.Time) error
	Recv() <-chan Message
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

	mu       sync.Mutex
	handlers map[Protocol]func(Message)
	started  bool
	done     chan struct{}

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
	return &Demux{
		ep:       ep,
		handlers: make(map[Protocol]func(Message)),
		done:     make(chan struct{}),
	}
}

// Handle registers fn for proto. Handlers run on the demux goroutine and
// must not block for long; layers queue internally. Handle must be called
// before Start.
func (d *Demux) Handle(proto Protocol, fn func(Message)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers[proto] = fn
}

// Start launches the dispatch goroutine.
func (d *Demux) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	go d.run()
}

// SetTrace registers the corrupt-frame drop counter with r
// (transport/corrupt_frames_dropped). Call before Start.
func (d *Demux) SetTrace(r *trace.Recorder) {
	d.cCorrupt = r.Counter(trace.SubTransport, "corrupt_frames_dropped")
}

// Close shuts down the underlying endpoint and waits for dispatch to stop.
func (d *Demux) Close() error {
	err := d.ep.Close()
	<-d.done
	return err
}

// Addr returns the underlying endpoint address.
func (d *Demux) Addr() string { return d.ep.Addr() }

func (d *Demux) run() {
	defer close(d.done)
	for m := range d.ep.Recv() {
		body, err := codec.VerifyChecksum(m.Payload)
		if err != nil || len(body) == 0 {
			d.cCorrupt.Inc()
			continue
		}
		proto := Protocol(body[0])
		// Capacity clipped: the buffer is shared (other receivers, the
		// sender's retransmission copy), so an append by a holder must
		// reallocate rather than run over the checksum behind the payload.
		m.Payload = body[Headroom:len(body):len(body)]
		d.mu.Lock()
		fn := d.handlers[proto]
		d.mu.Unlock()
		if fn != nil {
			fn(m)
		}
	}
}

// Conn returns the sending surface for proto.
func (d *Demux) Conn(proto Protocol) Conn {
	return protoConn{d: d, proto: byte(proto)}
}

type protoConn struct {
	d     *Demux
	proto byte
}

var _ Conn = protoConn{}

func (c protoConn) Addr() string { return c.d.ep.Addr() }

func (c protoConn) Seal(m Buf) []byte {
	head, _ := m.Wrap(Headroom, codec.SealOverhead)
	head[0] = c.proto
	frame := m.Bytes()
	// The checksum's window is inside the clipped capacity: appended in place.
	return codec.AppendChecksum(frame[:len(frame)-codec.SealOverhead])
}

func (c protoConn) Send(to string, sealed []byte, sentAt vtime.Time) error {
	return c.d.ep.Send(to, sealed, sentAt)
}

func (c protoConn) SendMulticast(tos []string, sealed []byte, sentAt vtime.Time) error {
	return c.d.ep.SendMulticast(tos, sealed, sentAt)
}

func (c protoConn) SendControl(to string, sealed []byte, sentAt vtime.Time) error {
	return c.d.ep.SendControl(to, sealed, sentAt)
}
