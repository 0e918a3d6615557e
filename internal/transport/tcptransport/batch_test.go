package tcptransport

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"versadep/internal/vtime"
)

// patientRetry rides out a listener that comes up late.
var patientRetry = RetryConfig{
	DialAttempts:   50,
	AttemptTimeout: time.Second,
	BackoffBase:    5 * time.Millisecond,
	BackoffMax:     20 * time.Millisecond,
}

// freeAddr returns a loopback address nothing is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// burstPayload is frame i of a test burst; every tenth is larger than the
// receiver's read buffer.
func burstPayload(i int) []byte {
	size := 64
	if i%10 == 5 {
		size = 3 * readBufSize
	}
	p := bytes.Repeat([]byte{byte(i)}, size)
	copy(p, fmt.Sprintf("m-%d.", i))
	return p
}

// TestBurstQueuedBeforeListenerAccepts: frames queued while the peer is not
// accepting yet wait behind the dial and then leave together; all of them
// arrive, whole and in order, the ones larger than the read buffer included.
func TestBurstQueuedBeforeListenerAccepts(t *testing.T) {
	addr := freeAddr(t)
	b, err := Listen("b", "127.0.0.1:0", map[string]string{"a": addr}, WithRetry(patientRetry))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 100
	for i := 0; i < n; i++ {
		if err := b.Send("a", burstPayload(i), vtime.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond) // several refused dials
	a, err := Listen("a", addr, map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < n; i++ {
		m := recvOne(t, a)
		if !bytes.Equal(m.Payload, burstPayload(i)) || m.SentAt != vtime.Time(i) {
			t.Fatalf("position %d: %d bytes starting %q", i, len(m.Payload), m.Payload[:8])
		}
	}
	if st := b.Stats(); st.Dropped != 0 || st.DialFailures == 0 {
		t.Fatalf("stats %+v: want no drops and at least one refused dial", st)
	}
}

// TestCorruptFrameInsideABatch: one read delivers a small frame, a damaged
// one, a frame larger than the read buffer and another small one. The
// damaged frame is dropped alone; the stream stays in step and the
// connection stays up.
func TestCorruptFrameInsideABatch(t *testing.T) {
	a, err := Listen("a", "127.0.0.1:0", map[string]string{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	conn, err := dialRaw(a.BoundAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame := func(i int) []byte { return streamOf(encodeFrame("raw", "", burstPayload(i), 0)) }
	damaged := frame(1)
	damaged[len(damaged)-1] ^= 0x40
	stream := append(frame(0), damaged...)
	stream = append(stream, frame(5)...) // 3 × readBufSize
	stream = append(stream, frame(2)...)
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 5, 2} {
		if m := recvOne(t, a); !bytes.Equal(m.Payload, burstPayload(i)) {
			t.Fatalf("want frame %d next, got %d bytes starting %q", i, len(m.Payload), m.Payload[:8])
		}
	}
	if _, err := conn.Write(frame(3)); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, a); !bytes.Equal(m.Payload, burstPayload(3)) {
		t.Fatalf("the connection did not survive the damaged frame: got %q", m.Payload[:8])
	}
	if st := a.Stats(); st.CorruptFrames != 1 {
		t.Fatalf("CorruptFrames = %d, want 1", st.CorruptFrames)
	}
}

// dyingConn takes budget bytes and then fails, like a connection whose peer
// went away in the middle of a vectored write.
type dyingConn struct {
	net.Conn
	budget int
}

func (c *dyingConn) Write(b []byte) (int, error) {
	if len(b) > c.budget {
		n := c.budget
		c.budget = 0
		return n, io.ErrClosedPipe
	}
	c.budget -= len(b)
	return len(b), nil
}

func (c *dyingConn) Close() error { return nil }

// TestPeerRestartMidBatch: the connection dies two and a half frames into a
// batch of five. The sender redials and gives what the dead connection did
// not take whole — the cut frame from its first byte — one more try; with
// nobody listening any more it drops those frames, and counts each.
func TestPeerRestartMidBatch(t *testing.T) {
	e, err := Listen("b", "127.0.0.1:0", map[string]string{},
		WithRetry(RetryConfig{DialAttempts: 1, AttemptTimeout: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	batch := make([]outFrame, 5)
	wire := make([]wireFrame, len(batch))
	for i := range batch {
		batch[i] = outFrame{payload: burstPayload(i), sentAt: vtime.Time(i)}
		wire[i] = encodeFrame(e.Addr(), e.BoundAddr(), burstPayload(i), vtime.Time(i))
	}
	cut := len(streamOf(wire[:2]...)) + len(streamOf(wire[2]))/2

	t.Run("restarted peer gets the rest", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		got := make(chan []byte, 1)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				got <- nil
				return
			}
			defer conn.Close()
			all, _ := io.ReadAll(conn)
			got <- all
		}()
		p := newPeerSender(e, ln.Addr().String())
		p.conn = &dyingConn{budget: cut}
		if unsent := p.send(batch); unsent != 0 {
			t.Fatalf("%d frames given up on with the peer back up", unsent)
		}
		_ = p.conn.Close()
		if all := <-got; !bytes.Equal(all, streamOf(wire[2:]...)) {
			t.Fatalf("restarted peer read %d bytes, want frames 2–4 whole (%d bytes)", len(all), len(streamOf(wire[2:]...)))
		}
	})

	t.Run("no peer, frames dropped and counted", func(t *testing.T) {
		p := newPeerSender(e, freeAddr(t))
		p.conn = &dyingConn{budget: cut}
		if unsent := p.send(batch); unsent != 3 {
			t.Fatalf("send gave up on %d frames, want 3", unsent)
		}
		if p.conn != nil {
			t.Fatal("sender kept a connection it could not establish")
		}
	})

	t.Run("Dropped counts frames", func(t *testing.T) {
		e.mu.Lock()
		e.peers["ghost"] = freeAddr(t)
		e.mu.Unlock()
		before := e.Stats().Dropped
		const n = 40
		for i := 0; i < n; i++ {
			if err := e.Send("ghost", []byte("x"), 0); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for e.Stats().Dropped-before != n {
			if time.Now().After(deadline) {
				t.Fatalf("Dropped rose by %d for %d undeliverable frames", e.Stats().Dropped-before, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
