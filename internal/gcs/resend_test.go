package gcs

import (
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// recConn is a transport.Conn that records what it is asked to send.
type recConn struct {
	addr string

	mu   sync.Mutex
	sent []recSend
}

type recSend struct {
	to    string
	frame []byte
}

func (c *recConn) Addr() string { return c.addr }

// sealer seals as a member's conn does; a demux's Seal never touches its
// endpoint.
var sealer = transport.NewDemux(nil).Conn(transport.ProtoGCS)

func (c *recConn) Seal(m transport.Buf) []byte { return sealer.Seal(m) }

func (c *recConn) record(to string, frame []byte) error {
	c.mu.Lock()
	c.sent = append(c.sent, recSend{to, frame})
	c.mu.Unlock()
	return nil
}

func (c *recConn) Send(to string, f []byte, _ vtime.Time) error        { return c.record(to, f) }
func (c *recConn) SendControl(to string, f []byte, _ vtime.Time) error { return c.record(to, f) }
func (c *recConn) SendMulticast(tos []string, f []byte, _ vtime.Time) error {
	for _, to := range tos {
		_ = c.record(to, f)
	}
	return nil
}

// sends returns the frames of the given kind sent so far.
func (c *recConn) sends(t *testing.T, kind frameKind) []recSend {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []recSend
	for _, s := range c.sent {
		if decodeSent(t, s).Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// unseal returns the GCS frame encoding inside a sealed wire frame: what the
// receiving transport would hand up.
func unseal(t *testing.T, s recSend) []byte {
	t.Helper()
	body, err := codec.VerifyChecksum(s.frame)
	if err != nil {
		t.Fatalf("sent frame fails its own seal: %v", err)
	}
	return body[transport.Headroom:]
}

func decodeSent(t *testing.T, s recSend) *frame {
	t.Helper()
	f, err := decodeNew(unseal(t, s))
	if err != nil {
		t.Fatalf("sent frame does not decode: %v", err)
	}
	return f
}

// quietConfig is DefaultConfig with a heartbeat so long the member's own
// ticker never fires: the tests drive tick by hand against a fake clock.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.HBInterval = time.Hour
	cfg.ResendInterval = 30 * time.Millisecond
	return cfg
}

// sameBytes reports whether two slices are the same memory, not merely
// equal: a retransmission must reuse the retained frame.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// TestMemberResendWaitsForResendInterval pins the documented meaning of
// Config.ResendInterval: an unacknowledged direct frame and an unsequenced
// submission are re-sent by the first tick that finds them a full interval
// old, never by one that lands right behind the original transmission, and
// the retransmission is the retained frame, not a fresh encoding.
func TestMemberResendWaitsForResendInterval(t *testing.T) {
	conn, xconn := &recConn{addr: "b"}, &recConn{addr: "b"}
	cfg := quietConfig()
	cfg.Trace = trace.New()
	m := Open(conn, xconn, cfg)
	defer m.Stop()

	clock := time.Unix(1000, 0)
	tick := func(advance time.Duration) {
		t.Helper()
		if err := m.do(func() { clock = clock.Add(advance); m.tick() }); err != nil {
			t.Fatal(err)
		}
	}
	// A two-member view in which the other member sequences, so an agreed
	// multicast stays pending; "a" was heard from just now and the clock
	// never moves far enough for it to be suspected.
	if err := m.do(func() {
		m.now = func() time.Time { return clock }
		m.view = View{ID: 1, Members: []string{"a", "b"}}
		m.resetPerViewState()
	}); err != nil {
		t.Fatal(err)
	}

	if err := m.SendDirect("client", transport.CopyBuf(m.DirectRoom(), []byte("reply")), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Multicast([]byte("request"), Agreed, 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	direct, data := xconn.sends(t, kDirect), conn.sends(t, kData)
	if len(direct) != 1 || len(data) != 1 {
		t.Fatalf("first transmission: %d direct, %d data frames, want 1 and 1", len(direct), len(data))
	}

	tick(0)
	tick(cfg.ResendInterval - time.Nanosecond)
	if d, s := len(xconn.sends(t, kDirect)), len(conn.sends(t, kData)); d != 1 || s != 1 {
		t.Fatalf("re-sent before ResendInterval elapsed: %d direct, %d data frames", d, s)
	}

	tick(time.Nanosecond)
	direct, data = xconn.sends(t, kDirect), conn.sends(t, kData)
	if len(direct) != 2 || len(data) != 2 {
		t.Fatalf("after ResendInterval: %d direct, %d data frames, want 2 and 2", len(direct), len(data))
	}
	if !sameBytes(direct[0].frame, direct[1].frame) || !sameBytes(data[0].frame, data[1].frame) {
		t.Fatal("a retransmission re-encoded its frame instead of sending the retained bytes")
	}
	if data[1].to != "a" || direct[1].to != "client" {
		t.Fatalf("retransmissions went to %q and %q", data[1].to, direct[1].to)
	}

	// The resend restarts the clock for that frame.
	tick(0)
	tick(cfg.ResendInterval / 2)
	if d, s := len(xconn.sends(t, kDirect)), len(conn.sends(t, kData)); d != 2 || s != 2 {
		t.Fatalf("re-sent again half an interval after a resend: %d direct, %d data frames", d, s)
	}
	if got := cfg.Trace.Counter(trace.SubGCS, "retransmits").Load(); got != 2 {
		t.Fatalf("gcs/retransmits = %d, want 2", got)
	}

	// An acknowledged frame is never sent again.
	m.HandleTransport(transport.Message{From: "client", To: "b",
		Payload: encodeFrame(&frame{Kind: kDirectAck, Origin: "client", OSeq: 1})})
	tick(0) // runs after the ack on the member's goroutine
	tick(2 * cfg.ResendInterval)
	if d := len(xconn.sends(t, kDirect)); d != 2 {
		t.Fatalf("acknowledged direct frame re-sent: %d transmissions", d)
	}
}

// TestClientResendWaitsForResendInterval is the same contract on the
// external client's side.
func TestClientResendWaitsForResendInterval(t *testing.T) {
	conn := &recConn{addr: "client"}
	cc := DefaultClientConfig([]string{"a", "b"})
	cc.ResendInterval = time.Hour // the client's own ticker stays out of the way
	c := NewClient(conn, cc, func(Event) {})
	defer c.Stop()

	clock := time.Unix(1000, 0)
	c.mu.Lock()
	c.now = func() time.Time { return clock }
	c.mu.Unlock()
	tick := func(advance time.Duration) {
		c.mu.Lock()
		clock = clock.Add(advance)
		c.tick()
		c.mu.Unlock()
	}

	if err := c.Submit(transport.CopyBuf(c.Room(), []byte("request")), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	tick(0)
	tick(cc.ResendInterval - time.Nanosecond)
	if n := len(conn.sends(t, kData)); n != 1 {
		t.Fatalf("submission re-sent before ResendInterval elapsed: %d transmissions", n)
	}
	tick(time.Nanosecond)
	data := conn.sends(t, kData)
	if len(data) != 2 || !sameBytes(data[0].frame, data[1].frame) {
		t.Fatalf("after ResendInterval: %d transmissions (same bytes: %v), want 2 of the same frame",
			len(data), len(data) == 2 && sameBytes(data[0].frame, data[1].frame))
	}
	tick(cc.ResendInterval / 2)
	if n := len(conn.sends(t, kData)); n != 2 {
		t.Fatalf("re-sent again half an interval after a resend: %d transmissions", n)
	}
}

// oseqsFrom decodes the OSeqs of the frames conn was asked to send from
// index from on, failing if one is not of the given kind.
func oseqsFrom(t *testing.T, conn *recConn, from int, kind frameKind) []uint64 {
	t.Helper()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	var out []uint64
	for _, s := range conn.sent[from:] {
		f := decodeSent(t, s)
		if f.Kind != kind {
			t.Fatalf("tick sent a frame of kind %d, want %d", f.Kind, kind)
		}
		out = append(out, f.OSeq)
	}
	return out
}

func (c *recConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sent)
}

// checkBurstSweep drives tick until it sends nothing and checks what each one
// added to conn: at most resendBurst frames, lowest OSeq first, every one of
// 1..backlog exactly once over the sweep.
func checkBurstSweep(t *testing.T, conn *recConn, kind frameKind, backlog int, tick func()) {
	t.Helper()
	next := uint64(1)
	for ticks := 0; ; ticks++ {
		before := conn.count()
		tick()
		got := oseqsFrom(t, conn, before, kind)
		if len(got) == 0 {
			break
		}
		if len(got) > resendBurst {
			t.Fatalf("tick %d re-sent %d frames, burst is %d", ticks, len(got), resendBurst)
		}
		for _, oseq := range got {
			if oseq != next {
				t.Fatalf("tick %d re-sent OSeq %d, want %d (oldest first, each once)", ticks, oseq, next)
			}
			next++
		}
	}
	if int(next-1) != backlog {
		t.Fatalf("sweep covered OSeqs 1..%d, want 1..%d", next-1, backlog)
	}
}

// TestMemberResendBurstIsBounded: with thousands of unacknowledged direct
// frames to one client all due at once, a tick re-sends the resendBurst
// oldest and leaves the rest to the ticks that follow — the sweep's work does
// not grow with its backlog.
func TestMemberResendBurstIsBounded(t *testing.T) {
	const backlog = 5000
	cfg := quietConfig()
	r := openRig(t, cfg, "b", "a", "b")
	for i := 0; i < backlog; i++ {
		r.sendDirect("client", []byte("reply"))
	}
	if n := r.xconn.count(); n != backlog {
		t.Fatalf("first transmission: %d frames, want %d", n, backlog)
	}
	// Every frame falls due at the first tick; the clock then stands still,
	// so a frame just re-sent is not due again while the rest are.
	advance := cfg.ResendInterval
	checkBurstSweep(t, r.xconn, kDirect, backlog, func() { r.tick(advance); advance = 0 })
}

// TestClientResendBurstIsBounded is the same bound on the external client's
// submissions.
func TestClientResendBurstIsBounded(t *testing.T) {
	const backlog = 5000
	conn := &recConn{addr: "client"}
	cc := DefaultClientConfig([]string{"a"})
	cc.ResendInterval = time.Hour // the client's own ticker stays out of the way
	c := NewClient(conn, cc, func(Event) {})
	defer c.Stop()

	clock := time.Unix(1000, 0)
	c.mu.Lock()
	c.now = func() time.Time { return clock }
	c.mu.Unlock()
	for i := 0; i < backlog; i++ {
		if err := c.Submit(transport.CopyBuf(c.Room(), []byte("request")), 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	clock = clock.Add(cc.ResendInterval)
	c.mu.Unlock()
	checkBurstSweep(t, conn, kData, backlog, func() {
		c.mu.Lock()
		c.tick()
		c.mu.Unlock()
	})
}
