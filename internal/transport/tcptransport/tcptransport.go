// Package tcptransport is the live-network back end of the transport
// abstraction: real TCP connections between processes, for multi-process
// deployments driven by cmd/vdnode.
//
// Peers are named by logical addresses mapped to host:port pairs in a
// static registry (the moral equivalent of the paper's testbed host list),
// and learned dynamically: every frame advertises its sender's listening
// address, so a process can answer peers (clients, joiners) that were not
// in its initial registry.
// Each peer gets a dedicated sender goroutine with a bounded queue, so a
// slow or unreachable peer can never stall the protocol goroutines — a
// blocked dial on a real network would otherwise wedge heartbeating and
// cascade into false suspicions. Overflowing or undeliverable frames are
// dropped, preserving the datagram semantics the upper layers are built on
// (the GCS retransmits). Frames that wait in a queue together leave in one
// vectored write, and each connection is read through one buffer, so a burst
// costs a system call each way, not three per frame; the bytes on the stream
// are the same either way. A sender woken by a burst's first frame yields
// once before it drains its queue, so the goroutine that woke it can queue
// the rest of the burst first. A frame is two pieces of that vector: a header
// formatted into the sender's reused buffer, and the sealed payload itself,
// which is never copied. Each connection's reader hands its frames up
// itself, so one peer's frames keep their order and two peers' frames are
// handled side by side.
//
// In live mode the virtual-time machinery is inert: messages carry their
// virtual send instant through unchanged (ArriveAt = SentAt, a zero-cost
// wire), and the interesting measurements are real wall-clock ones.
package tcptransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// maxFrame bounds a frame's size to keep a malicious or corrupt peer from
// forcing huge allocations.
const maxFrame = 64 << 20

// sendQueueDepth bounds each peer's outbound queue, and so the frames one
// write carries.
const sendQueueDepth = 1024

// readBufSize is each inbound connection's read buffer: room for a few
// dozen request-sized frames per system call. A larger frame's body is read
// straight into its own buffer.
const readBufSize = 32 << 10

// RetryConfig tunes outbound connection establishment. A frame triggers up
// to DialAttempts connection attempts, each bounded by AttemptTimeout,
// separated by jittered exponential backoff starting at BackoffBase and
// capped at BackoffMax. Only after the whole budget is exhausted is the
// frame dropped (datagram semantics; the upper layers retransmit) — so the
// budget is exactly how long a peer restart may take before frames queued
// behind the dial are lost.
type RetryConfig struct {
	DialAttempts   int
	AttemptTimeout time.Duration
	BackoffBase    time.Duration
	BackoffMax     time.Duration
}

// DefaultRetry is the retry policy used unless overridden by WithRetry:
// a handful of attempts spanning roughly two seconds, matching
// the single 2s dial timeout the transport shipped with historically.
func DefaultRetry() RetryConfig {
	return RetryConfig{
		DialAttempts:   4,
		AttemptTimeout: 2 * time.Second,
		BackoffBase:    50 * time.Millisecond,
		BackoffMax:     time.Second,
	}
}

// sanitize clamps nonsensical values so a zero or partial config still
// behaves (at least one attempt, non-zero timeout and backoff).
func (c RetryConfig) sanitize() RetryConfig {
	d := DefaultRetry()
	if c.DialAttempts < 1 {
		c.DialAttempts = 1
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = d.AttemptTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = d.BackoffBase
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = c.BackoffBase
	}
	return c
}

// backoffFor returns the jittered backoff before attempt n (n counts from
// 1 between the first and second dials): exponential growth capped at
// BackoffMax, with ±50% jitter so a cohort of reconnecting peers does not
// stampede a restarted listener in lockstep.
func (c RetryConfig) backoffFor(n int) time.Duration {
	b := c.BackoffBase
	for i := 1; i < n && b < c.BackoffMax; i++ {
		b *= 2
	}
	if b > c.BackoffMax {
		b = c.BackoffMax
	}
	half := int64(b) / 2
	if half <= 0 {
		return b
	}
	return time.Duration(half + rand.Int63n(half*2))
}

// Stats counts the endpoint's wire-level events. Reconnects counts dials
// that succeeded after at least one failure for the same frame — the
// signature of riding out a peer restart. CorruptFrames counts inbound
// frames whose checksum or structure failed verification and were dropped
// without disturbing the stream. Writes counts the vectored writes the
// peer senders made and FramesSent the frames those writes carried whole,
// so FramesSent/Writes is the frames one system call carries.
type Stats struct {
	Dials         uint64
	DialFailures  uint64
	Reconnects    uint64
	Dropped       uint64
	CorruptFrames uint64
	Writes        uint64
	FramesSent    uint64
}

// Option configures an Endpoint at Listen time.
type Option func(*Endpoint)

// WithRetry sets the initial dial-retry policy.
func WithRetry(c RetryConfig) Option {
	return func(e *Endpoint) { e.retry = c.sanitize() }
}

// Endpoint is one process's TCP attachment.
type Endpoint struct {
	name  string
	ln    net.Listener
	bound string // ln's address, formatted once: every frame carries it
	peers map[string]string
	retry RetryConfig // set at Listen, read by every dial

	mu      sync.Mutex
	senders map[string]*peerSender
	inbound map[net.Conn]bool
	closed  bool

	dials         atomic.Uint64
	dialFailures  atomic.Uint64
	reconnects    atomic.Uint64
	dropped       atomic.Uint64
	corruptFrames atomic.Uint64
	writes        atomic.Uint64
	framesSent    atomic.Uint64

	serve func(transport.Message) // set by Serve, before any reader starts
	recv  transport.RecvChan

	done chan struct{}
	wg   sync.WaitGroup
}

var _ transport.MultiEndpoint = (*Endpoint)(nil)

// Listen starts an endpoint with the given logical name, binding bind
// (host:port), with peers mapping logical names to host:port addresses.
func Listen(name, bind string, peers map[string]string, opts ...Option) (*Endpoint, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", bind, err)
	}
	e := &Endpoint{
		name:    name,
		ln:      ln,
		bound:   ln.Addr().String(),
		peers:   peers,
		senders: make(map[string]*peerSender),
		inbound: make(map[net.Conn]bool),
		done:    make(chan struct{}),
		retry:   DefaultRetry(),
	}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// Stats returns a snapshot of the endpoint's wire counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		Dials:         e.dials.Load(),
		DialFailures:  e.dialFailures.Load(),
		Reconnects:    e.reconnects.Load(),
		Dropped:       e.dropped.Load(),
		CorruptFrames: e.corruptFrames.Load(),
		Writes:        e.writes.Load(),
		FramesSent:    e.framesSent.Load(),
	}
}

// Addr returns the endpoint's logical name.
func (e *Endpoint) Addr() string { return e.name }

// BoundAddr returns the actual listening address (useful with ":0").
func (e *Endpoint) BoundAddr() string { return e.bound }

// Serve starts accepting connections; each one's reader hands every frame
// it decodes to fn (see transport.MultiEndpoint.Serve). Peers that connect
// earlier wait in the listen backlog.
func (e *Endpoint) Serve(fn func(transport.Message)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed && e.serve == nil {
		e.serve = fn
		e.wg.Add(1)
		go e.accept()
	}
}

// Recv returns the inbound message stream (see transport.Endpoint.Recv).
func (e *Endpoint) Recv() <-chan transport.Message { return e.recv.Get(e, e.done) }

// Send enqueues payload for the named peer. It never blocks: unknown
// peers, closed endpoints with pending work, and overflowing queues all
// drop the frame.
func (e *Endpoint) Send(to string, payload []byte, sentAt vtime.Time) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return transport.ErrClosed
	}
	ps := e.senders[to]
	if ps == nil {
		hostport, ok := e.peers[to]
		if !ok {
			e.mu.Unlock()
			return nil // unknown peer: datagram drop
		}
		ps = newPeerSender(e, hostport)
		e.senders[to] = ps
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			ps.run()
		}()
	}
	e.mu.Unlock()

	select {
	case ps.ch <- outFrame{payload: payload, sentAt: sentAt}:
	default:
		// Queue full: drop; the upper layers retransmit.
		e.dropped.Add(1)
	}
	return nil
}

// SendMulticast loops unicast sends (no IP multicast assumption on real
// networks; the LAN-multicast byte accounting only matters in simulation).
func (e *Endpoint) SendMulticast(tos []string, payload []byte, sentAt vtime.Time) error {
	for _, to := range tos {
		if err := e.Send(to, payload, sentAt); err != nil {
			return err
		}
	}
	return nil
}

// SendControl is a plain send on the live network.
func (e *Endpoint) SendControl(to string, payload []byte, sentAt vtime.Time) error {
	return e.Send(to, payload, sentAt)
}

// Close shuts the endpoint down: the listener, every inbound connection,
// and every peer sender. It returns once every reader has stopped, so no
// call of the served function starts after it.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return nil
	}
	e.closed = true
	inbound := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()

	close(e.done)
	err := e.ln.Close()
	for _, c := range inbound {
		_ = c.Close()
	}
	e.wg.Wait()
	e.recv.Close()
	return err
}

func (e *Endpoint) accept() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			return
		}
		e.inbound[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.read(conn)
	}
}

func (e *Endpoint) read(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReaderSize(conn, readBufSize)
	var names codec.Names // this connection's senders, each name made once
	for {
		f, err := readFrame(br, &names)
		if err == errCorruptFrame {
			// Damaged but correctly length-framed: drop just this frame
			// and keep the connection — the stream is still in sync and
			// the upper layers retransmit. Closing here would amplify one
			// flipped bit into a reconnect storm.
			e.corruptFrames.Add(1)
			continue
		}
		if err != nil {
			return
		}
		from, fromAddr, payload, sentAt := f.From, f.FromAddr, f.Payload, vtime.Time(f.SentAt)
		if fromAddr != "" {
			// Learn (or refresh) the sender's listening address so
			// replies reach peers absent from the static registry.
			e.mu.Lock()
			if e.peers[from] != fromAddr {
				e.peers[from] = fromAddr
				if ps := e.senders[from]; ps != nil && ps.hostport != fromAddr {
					// The peer moved: retire the old sender lazily by
					// dropping our handle; a fresh one is built on the
					// next send.
					delete(e.senders, from)
				}
			}
			e.mu.Unlock()
		}
		e.serve(transport.Message{
			From:     from,
			To:       e.name,
			Payload:  payload,
			SentAt:   sentAt,
			ArriveAt: sentAt, // live mode: virtual wire is free
		})
	}
}

// peerSender owns the outbound connection to one peer.
type peerSender struct {
	ep       *Endpoint
	hostport string
	ch       chan outFrame
	done     <-chan struct{}

	// Owned by run: the connection, the frames of the write in progress,
	// their heads formatted back to back, and the vector handed to the
	// kernel — net.Buffers consumes the slice it is given, so iov is a
	// fresh window onto iovBuf for every write.
	conn   net.Conn
	batch  []outFrame
	heads  []byte
	iovBuf [][]byte
	iov    net.Buffers
}

func newPeerSender(e *Endpoint, hostport string) *peerSender {
	return &peerSender{
		ep:       e,
		hostport: hostport,
		ch:       make(chan outFrame, sendQueueDepth),
		done:     e.done,
	}
}

// dial establishes the outbound connection under the endpoint's
// retry budget: up to DialAttempts tries, each bounded by AttemptTimeout,
// separated by jittered exponential backoff. It returns nil when the
// budget is exhausted or the endpoint shut down. Frames enqueued behind
// the dial simply wait in the bounded queue, so a peer restart inside the
// budget loses nothing that was already queued.
func (p *peerSender) dial() net.Conn {
	cfg := p.ep.retry
	for attempt := 1; ; attempt++ {
		p.ep.dials.Add(1)
		conn, err := net.DialTimeout("tcp", p.hostport, cfg.AttemptTimeout)
		if err == nil {
			if attempt > 1 {
				p.ep.reconnects.Add(1)
			}
			return conn
		}
		p.ep.dialFailures.Add(1)
		if attempt >= cfg.DialAttempts {
			return nil
		}
		select {
		case <-p.done:
			return nil
		case <-time.After(cfg.backoffFor(attempt)):
		}
	}
}

func (p *peerSender) run() {
	defer func() {
		if p.conn != nil {
			_ = p.conn.Close()
		}
	}()
	for {
		select {
		case <-p.done:
			return
		case frame := <-p.ch:
			p.batch = append(p.batch, frame)
		}
		// The first frame of a burst woke this goroutine, most likely on
		// another processor while the sender of the frame is still queueing
		// the rest (a sequencer partway through a batch, a reader acking a
		// reply while its callers submit). One yield lets it finish; then
		// whatever is waiting leaves with the first frame.
		runtime.Gosched()
	drain:
		for len(p.batch) < sendQueueDepth {
			select {
			case frame := <-p.ch:
				p.batch = append(p.batch, frame)
			default:
				break drain
			}
		}
		if unsent := p.send(p.batch); unsent > 0 {
			p.ep.dropped.Add(uint64(unsent)) // upper layers retransmit
		}
		clear(p.batch)
		p.batch = p.batch[:0]
	}
}

// send writes frames to the peer, dialing first if need be, and returns how
// many it had to give up on. A dial that exhausts its budget gives up on all
// of them. When the peer vanishes mid-stream (restart, crash), send redials
// under the same budget and gives the frames the dead connection did not
// take one more try before reverting to datagram drop semantics.
func (p *peerSender) send(frames []outFrame) int {
	if p.conn == nil {
		if p.conn = p.dial(); p.conn == nil {
			return len(frames)
		}
	}
	frames = frames[p.write(frames):]
	if len(frames) == 0 {
		return 0
	}
	_ = p.conn.Close()
	if p.conn = p.dial(); p.conn == nil {
		return len(frames)
	}
	frames = frames[p.write(frames):]
	if len(frames) > 0 {
		_ = p.conn.Close()
		p.conn = nil
	}
	return len(frames)
}

// write hands frames to the connection in one vectored write and returns
// how many it took whole; fewer than len(frames) means the write failed,
// and the first frame not counted may have left in part.
func (p *peerSender) write(frames []outFrame) int {
	p.iov = p.vector(frames)
	n, err := p.iov.WriteTo(p.conn)
	clear(p.iovBuf)
	whole := len(frames)
	if err != nil {
		head := p.ep.headSize()
		whole = 0
		for _, f := range frames {
			if n -= int64(head + len(f.payload)); n < 0 {
				break
			}
			whole++
		}
	}
	p.ep.writes.Add(1)
	p.ep.framesSent.Add(uint64(whole))
	return whole
}

// vector formats every frame's head into the sender's one head buffer,
// grown only when a batch outgrows it, and returns the vector that puts
// each head in front of its payload.
func (p *peerSender) vector(frames []outFrame) [][]byte {
	size := p.ep.headSize()
	if need := size * len(frames); cap(p.heads) < need {
		p.heads = make([]byte, need)
	}
	p.iovBuf = p.iovBuf[:0]
	for i, f := range frames {
		head := p.heads[i*size : (i+1)*size : (i+1)*size]
		p.ep.putHead(head, f)
		p.iovBuf = append(p.iovBuf, head, f.payload)
	}
	return p.iovBuf
}

// Wire format: u32 total | codec frame body (which begins with its own
// CRC32-C covering everything after it). The outer length prefix is the
// only field the checksum cannot protect, so it gets a hard structural
// bound instead: a total exceeding maxFrame is unrecoverable (the stream
// may be desynced) and closes the connection; anything inside a valid
// length is verified by codec.DecodeFrame and at worst drops one frame.

// outFrame is one frame on its way out: payload is the sealed frame the
// upper layers handed to Send — immutable and shared with whoever else
// holds it, so it is written from where it lies — and sentAt the virtual
// instant its head carries. The head is formatted only when the frame is
// written (see peerSender.vector).
type outFrame struct {
	payload []byte
	sentAt  vtime.Time
}

// headSize is the length of every frame head this endpoint writes: the
// length prefix and the codec frame body up to the payload. It depends
// only on the endpoint's name and address.
func (e *Endpoint) headSize() int {
	return 4 + codec.FrameHeaderSize(codec.Frame{From: e.name, FromAddr: e.bound})
}

// putHead formats f's head into head, headSize bytes long.
func (e *Endpoint) putHead(head []byte, f outFrame) {
	cf := codec.Frame{From: e.name, FromAddr: e.bound, Payload: f.payload, SentAt: int64(f.sentAt)}
	binary.BigEndian.PutUint32(head, uint32(codec.FrameSize(cf)))
	codec.PutFrameHeader(head[4:], cf)
}

// errCorruptFrame reports a frame that was correctly length-delimited but
// failed checksum or structural verification: droppable without closing.
var errCorruptFrame = errors.New("tcptransport: corrupt frame dropped")

// readFrame reads r's next frame; once names holds its sender's names, the
// frame's buffer is all it allocates.
func readFrame(r *bufio.Reader, names *codec.Names) (codec.Frame, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return codec.Frame{}, err
	}
	total := binary.BigEndian.Uint32(hdr)
	_, _ = r.Discard(4)
	if total > maxFrame {
		return codec.Frame{}, fmt.Errorf("tcptransport: frame length %d exceeds limit", total)
	}
	buf := make([]byte, total)
	if _, err := io.ReadFull(r, buf); err != nil {
		return codec.Frame{}, err
	}
	f, err := codec.DecodeFrame(buf, names)
	if err != nil {
		return codec.Frame{}, errCorruptFrame
	}
	return f, nil
}
