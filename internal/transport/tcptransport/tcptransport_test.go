package tcptransport

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"versadep/internal/transport"
	"versadep/internal/vtime"
)

func recvOne(t *testing.T, e *Endpoint) transport.Message {
	t.Helper()
	select {
	case m, ok := <-e.Recv():
		if !ok {
			t.Fatal("recv closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("recv timed out")
		return transport.Message{}
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0", map[string]string{"a": a.BoundAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Send("a", []byte("hello"), vtime.Time(1234)); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, a)
	if string(m.Payload) != "hello" || m.From != "b" || m.SentAt != vtime.Time(1234) {
		t.Fatalf("message = %+v", m)
	}
	if m.ArriveAt != m.SentAt {
		t.Fatalf("live mode should carry SentAt through: %v vs %v", m.ArriveAt, m.SentAt)
	}
}

func TestDynamicPeerLearning(t *testing.T) {
	// a has no registry at all; b contacts it; a replies using the
	// learned address.
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0", map[string]string{"a": a.BoundAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Send("a", []byte("ping"), 0); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a)
	if err := a.Send("b", []byte("pong"), 0); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if string(m.Payload) != "pong" || m.From != "a" {
		t.Fatalf("reply = %+v", m)
	}
}

func TestUnknownPeerDrops(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("ghost", []byte("x"), 0); err != nil {
		t.Fatalf("send to unknown peer should drop silently: %v", err)
	}
}

func TestUnreachablePeerDoesNotBlock(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{
		// A port that nothing listens on.
		"dead": "127.0.0.1:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := a.Send("dead", []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("sends to an unreachable peer blocked the caller")
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0", map[string]string{"a": a.BoundAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := b.Send("a", []byte(fmt.Sprintf("m-%d", i)), vtime.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, a)
		if want := fmt.Sprintf("m-%d", i); string(m.Payload) != want {
			t.Fatalf("position %d = %q, want %q (TCP must preserve order)", i, m.Payload, want)
		}
	}
}

// TestBurstLeavesInFewerWrites: one goroutine sends 64 frames back to back
// over an established connection. All of them arrive whole and in order,
// and they leave in fewer writes than frames.
func TestBurstLeavesInFewerWrites(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen("b", "127.0.0.1:0", map[string]string{"a": a.BoundAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Send("a", []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a) // the connection is up before the burst
	before := sentStats(t, b, 1)

	const n = 64
	for i := 0; i < n; i++ {
		if err := b.Send("a", burstPayload(i), vtime.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m := recvOne(t, a)
		if !bytes.Equal(m.Payload, burstPayload(i)) || m.SentAt != vtime.Time(i) {
			t.Fatalf("position %d: %d bytes starting %q", i, len(m.Payload), m.Payload[:8])
		}
	}
	st := sentStats(t, b, 1+n)
	if writes := st.Writes - before.Writes; writes >= n {
		t.Fatalf("%d frames in %d writes, want fewer writes", n, writes)
	}
}

// sentStats returns e's stats once they count frames sent: a sender
// counts a write when the write returns, which can be after the receiver
// has read it.
func sentStats(t *testing.T, e *Endpoint, frames uint64) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats()
		if st.FramesSent == frames {
			return st
		}
		if st.FramesSent > frames || time.Now().After(deadline) {
			t.Fatalf("FramesSent = %d, want %d", st.FramesSent, frames)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMulticastLoops(t *testing.T) {
	a, _ := Listen("a", "127.0.0.1:0", map[string]string{})
	defer a.Close()
	b, _ := Listen("b", "127.0.0.1:0", map[string]string{})
	defer b.Close()
	c, err := Listen("c", "127.0.0.1:0", map[string]string{
		"a": a.BoundAddr(), "b": b.BoundAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.SendMulticast([]string{"a", "b"}, []byte("mc"), 0); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, a); string(m.Payload) != "mc" {
		t.Fatalf("a got %q", m.Payload)
	}
	if m := recvOne(t, b); string(m.Payload) != "mc" {
		t.Fatalf("b got %q", m.Payload)
	}
}

func TestCloseIsPromptAndIdempotent(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen("b", "127.0.0.1:0", map[string]string{"a": a.BoundAddr()})
	if err != nil {
		t.Fatal(err)
	}
	// Open an inbound connection into a.
	if err := b.Send("a", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a)

	done := make(chan struct{})
	go func() {
		_ = a.Close()
		_ = b.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on inbound connections")
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := a.Send("b", []byte("x"), 0); err != transport.ErrClosed {
		t.Fatalf("send after close = %v", err)
	}
}

func TestMalformedFrameDropsConnection(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Dial raw and send garbage with an absurd length prefix.
	conn, err := dialRaw(a.BoundAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The endpoint must stay alive for well-formed traffic.
	b, err := Listen("b", "127.0.0.1:0", map[string]string{"a": a.BoundAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Send("a", []byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, a); string(m.Payload) != "ok" {
		t.Fatalf("got %q", m.Payload)
	}
}

func dialRaw(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

func TestRetryConfigSanitizeAndBackoff(t *testing.T) {
	c := RetryConfig{}.sanitize()
	d := DefaultRetry()
	if c.DialAttempts != 1 || c.AttemptTimeout != d.AttemptTimeout ||
		c.BackoffBase != d.BackoffBase || c.BackoffMax < c.BackoffBase {
		t.Fatalf("sanitized zero config = %+v", c)
	}
	c = RetryConfig{DialAttempts: 8, AttemptTimeout: time.Second,
		BackoffBase: 10 * time.Millisecond, BackoffMax: 40 * time.Millisecond}
	for n := 1; n <= 10; n++ {
		b := c.backoffFor(n)
		if b < c.BackoffBase/2 || b > c.BackoffMax+c.BackoffMax/2 {
			t.Fatalf("backoffFor(%d) = %v outside jitter envelope [%v, %v]",
				n, b, c.BackoffBase/2, c.BackoffMax+c.BackoffMax/2)
		}
	}
}

func TestReconnectAfterListenerRestart(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	addr := a.BoundAddr()
	b, err := Listen("b", "127.0.0.1:0", map[string]string{"a": addr},
		WithRetry(RetryConfig{
			DialAttempts:   20,
			AttemptTimeout: time.Second,
			BackoffBase:    20 * time.Millisecond,
			BackoffMax:     100 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Send("a", []byte("before"), 0); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, a); string(m.Payload) != "before" {
		t.Fatalf("got %q", m.Payload)
	}

	// Kill the listener mid-stream, keep sending into the outage, then
	// restart it on the same port. The retry budget (20 attempts with
	// backoff) comfortably covers the restart, so frames queued behind
	// the redial must be delivered — not silently dropped.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := make(chan *Endpoint, 1)
	go func() {
		// Send() learns of the dead conn only when a write fails, so
		// push frames during the outage; they park in the peer queue.
		time.Sleep(300 * time.Millisecond)
		a2, err := Listen("a", addr, map[string]string{})
		if err != nil {
			t.Errorf("restart listener: %v", err)
			restarted <- nil
			return
		}
		restarted <- a2
	}()
	for i := 0; i < 5; i++ {
		if err := b.Send("a", []byte(fmt.Sprintf("during-%d", i)), 0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	a2 := <-restarted
	if a2 == nil {
		t.FailNow()
	}
	defer a2.Close()

	// At least one frame sent into the outage must arrive after the
	// restart (a kill can RST a frame already handed to the old socket,
	// so "all five" would over-promise; "none" means retry is broken).
	got := map[string]bool{}
	deadline := time.After(10 * time.Second)
collect:
	for len(got) == 0 {
		select {
		case m, ok := <-a2.Recv():
			if !ok {
				break collect
			}
			got[string(m.Payload)] = true
		case <-deadline:
			break collect
		}
	}
	if len(got) == 0 {
		t.Fatalf("no frame survived the listener restart; stats=%+v", b.Stats())
	}
	st := b.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("expected at least one reconnect, stats=%+v", st)
	}
	if st.Dials < 2 {
		t.Fatalf("expected multiple dials, stats=%+v", st)
	}
}

func TestSetRetryTakesEffect(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{"ghost": "127.0.0.1:1"},
		WithRetry(RetryConfig{DialAttempts: 3, AttemptTimeout: 200 * time.Millisecond,
			BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Port 1 refuses immediately: the full budget burns fast and the
	// frame is dropped after exactly DialAttempts failures.
	if err := a.Send("ghost", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := a.Stats()
		if st.Dropped >= 1 {
			if st.DialFailures != 3 {
				t.Fatalf("expected exactly 3 dial failures, stats=%+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame never dropped, stats=%+v", a.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
