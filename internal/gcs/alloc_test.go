package gcs

import (
	"sync"
	"testing"
	"time"

	"versadep/internal/alloctest"
	"versadep/internal/codec"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

func budgetFrame(payload []byte) *frame {
	var led vtime.Ledger
	led.Charge(vtime.ComponentGC, 25*vtime.Microsecond)
	return &frame{Kind: kSeq, ViewID: 3, Seq: 99, Origin: "client-1", OSeq: 42,
		Level: Agreed, SentVT: vtime.Time(123456), Ledger: led, Payload: payload}
}

// TestFrameEncodeOneBuffer: a frame is encoded into one buffer of exactly
// its size — bare for frame lists, and with the transport's headroom and
// seal room on the way to the wire. A payload built in the room a frame
// needs (a submission, a direct reply) is framed and sealed where it lies:
// no allocation, and the payload does not move.
func TestFrameEncodeOneBuffer(t *testing.T) {
	alloctest.OneBuffer(t, "encodeFrame", 0, func(p []byte) []byte {
		return encodeFrame(budgetFrame(p))
	})

	conn := &recConn{addr: "a"}
	f := budgetFrame(nil)
	alloctest.OneBuffer(t, "a frame sealed for the wire", 0, func(p []byte) []byte {
		f.Payload, f.enc, f.wire = p, nil, nil
		return f.sealed(conn, 0)
	})

	for _, size := range []int{200, 64 << 10} {
		f := budgetFrame(make([]byte, size))
		payload := transport.CopyBuf(f.room(), f.Payload)
		f.Payload = payload.Bytes()
		var sealed []byte
		if allocs := testing.AllocsPerRun(20, func() { sealed = f.sealAround(conn, 0, payload) }); allocs != 0 {
			t.Errorf("framing and sealing a %d B payload in its room: %v allocations, want 0", size, allocs)
		}
		if &sealed[transport.Headroom+frameHeadSize(f)] != &f.Payload[0] {
			t.Errorf("framing a %d B payload in its room moved it", size)
		}
		if want := sealer.Seal(transport.CopyBuf(transport.SealRoom, encodeFrame(f))); string(sealed) != string(want) {
			t.Errorf("a %d B payload framed in its room differs from the frame encoded whole", size)
		}
	}
}

// TestFrameSealedOnce: the wire form is built on first use and reused, and
// the encoding the history keeps is a window onto it, not a second buffer.
func TestFrameSealedOnce(t *testing.T) {
	conn := &recConn{addr: "a"}
	f := budgetFrame(make([]byte, 4096))
	first := f.sealed(conn, 0)
	if allocs := testing.AllocsPerRun(20, func() { _ = f.sealed(conn, 0); _ = f.encoded(0) }); allocs != 0 {
		t.Errorf("re-sending a sealed frame: %v allocations, want 0", allocs)
	}
	if !sameBytes(first, f.sealed(conn, 0)) {
		t.Error("second use re-encoded the frame")
	}
	if !alloctest.Inside(first, f.encoded(0)) || string(f.encoded(0)) != string(encodeFrame(f)) {
		t.Error("the retained encoding is not the one inside the wire form")
	}
}

// TestReceivedFrameKeepsItsBytes: a decoded frame's encoding is the buffer
// it arrived in, so history and forwarding re-send what was received.
func TestReceivedFrameKeepsItsBytes(t *testing.T) {
	in := encodeFrame(budgetFrame(make([]byte, 4096)))
	f, err := decodeNew(in)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBytes(f.encoded(0), in) {
		t.Error("a received frame was re-encoded")
	}
	wire := f.sealed(&recConn{addr: "a"}, 0)
	if got := wire[transport.Headroom : len(wire)-codec.SealOverhead]; string(got) != string(in) {
		t.Error("forwarding a received frame changed its bytes")
	}
}

// TestFrameDecodeAliases: decoding costs the same whatever the payload
// size, and the payload it returns is a window onto the input.
func TestFrameDecodeAliases(t *testing.T) {
	encode := func(p []byte) []byte { return encodeFrame(budgetFrame(p)) }
	var f frame
	alloctest.SizeBlind(t, "decodeFrame", encode, func(b []byte) {
		if err := decodeFrame(b, nil, &f); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFrameDecodeKnownOrigin: decoding a submission or a direct frame from
// an origin the receiver has heard from before allocates nothing — the
// frame is the caller's, the origin's address is in the receiver's name
// table, the payload is a window onto the input. Without a table the
// address is the one allocation per frame. Each read one more while the
// decoder returned a frame of its own.
func TestFrameDecodeKnownOrigin(t *testing.T) {
	var names codec.Names
	for _, kind := range []frameKind{kData, kDirect} {
		f := budgetFrame(make([]byte, 200))
		f.Kind = kind
		in := encodeFrame(f)
		decode := func(names *codec.Names) float64 {
			var got frame
			return testing.AllocsPerRun(100, func() {
				if err := decodeFrame(in, names, &got); err != nil || got.Origin != "client-1" {
					t.Fatalf("decoded %+v, %v", got, err)
				}
			})
		}
		if allocs := decode(&names); allocs != 0 {
			t.Errorf("kind %d from a known origin: %v allocations, want 0", kind, allocs)
		}
		if allocs := decode(nil); allocs != 1 {
			t.Errorf("kind %d without a table: %v allocations, want 1 (the origin)", kind, allocs)
		}
	}
}

// TestInboxReusesItsArrays: the inbox and the batch being drained swap two
// arrays between them for as long as bursts fit — the inbox used to start
// from nil after every drain — and a drained array lets go of its payloads.
func TestInboxReusesItsArrays(t *testing.T) {
	r := openRig(t, deferConfig(), "a", "a")
	msg := transport.Message{From: "x", Payload: []byte{0xff}} // not a frame: the decoder drops it
	arrays := map[*transport.Message]bool{}
	r.do(func() {
		for i := 0; i < 100; i++ {
			r.m.HandleTransport(msg)
			arrays[&r.m.inbox[0]] = true
			r.m.drainInbox()
			if spare := r.m.inSpare[:1]; spare[0].Payload != nil {
				t.Fatal("a drained inbox array still holds a payload")
			}
		}
	})
	if len(arrays) > 2 {
		t.Errorf("100 messages went through %d inbox arrays, want 2", len(arrays))
	}
}

// dropConn is a member's conn that seals as a demux does and sends nowhere:
// what a member allocates is then its own.
type dropConn struct{ addr string }

func (c dropConn) Addr() string                                     { return c.addr }
func (c dropConn) Seal(m transport.Buf) []byte                      { return sealer.Seal(m) }
func (c dropConn) Send(string, []byte, vtime.Time) error            { return nil }
func (c dropConn) SendControl(string, []byte, vtime.Time) error     { return nil }
func (c dropConn) SendMulticast([]string, []byte, vtime.Time) error { return nil }

// openQuiet starts member addr of the view {a, b}, a the sequencer, on
// conns that send nowhere, with its events drained.
func openQuiet(t *testing.T, addr string) *Member {
	t.Helper()
	cfg := deferConfig()
	cfg.HistorySize = historyStart // the ring never grows under the measurement
	m := Open(dropConn{addr}, dropConn{addr}, cfg)
	t.Cleanup(m.Stop)
	go func() {
		for range m.Out() {
		}
	}()
	if err := m.do(func() {
		m.view = View{ID: 1, Members: []string{"a", "b"}}
		m.resetPerViewState()
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// inOrder measures what handling frame(i) for i = 1, 2, ... allocates on
// m's protocol goroutine, once warmed by the first hundred.
func inOrder(t *testing.T, m *Member, from string, frame func(i uint64) *frame) float64 {
	t.Helper()
	const warm, runs = 100, 200
	msgs := make([]transport.Message, warm+runs+1)
	for i := range msgs {
		msgs[i] = transport.Message{From: from, To: m.Addr(), Payload: encodeFrame(frame(uint64(i + 1)))}
	}
	var allocs float64
	if err := m.do(func() {
		for _, msg := range msgs[:warm] {
			m.handleMessage(msg)
		}
		next := msgs[warm:]
		allocs = testing.AllocsPerRun(runs, func() {
			m.handleMessage(next[0])
			next = next[1:]
		})
	}); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestInOrderFrameAllocatesItsFrame: a frame that need not wait is handled
// straight from its decode, so an in-order kSeq at a member allocates
// nothing (the history keeps a window onto the bytes it arrived in), and an
// in-order kData at the sequencer allocates only the sealed buffer of its
// kSeq, which the history keeps. They read 1 and 4 while every received
// frame was decoded into a frame of its own, the kSeq frame was allocated
// and castData built its destination list per frame; 2 and 6 while every
// received frame was also wrapped in a record of its own.
func TestInOrderFrameAllocatesItsFrame(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	payload := make([]byte, 200)
	seq := inOrder(t, openQuiet(t, "b"), "a", func(i uint64) *frame {
		return &frame{Kind: kSeq, ViewID: 1, Seq: i, Origin: "a", OSeq: i, Level: Agreed, Payload: payload}
	})
	if seq != 0 {
		t.Errorf("an in-order kSeq at a member: %v allocations, want 0", seq)
	}
	sub := inOrder(t, openQuiet(t, "a"), "b", func(i uint64) *frame {
		return &frame{Kind: kData, ViewID: 1, Origin: "b", OSeq: i, Level: Agreed, Payload: payload}
	})
	if sub != 1 {
		t.Errorf("an in-order kData at the sequencer: %v allocations, want 1 (the kSeq's sealed buffer)", sub)
	}
}

// TestClientDirectAllocatesItsAck: a group client hands a fresh kDirect to
// its handler straight from the decode and acknowledges it with a frame on
// its stack, so handling one allocates the ack's sealed buffer and nothing
// else. It read 3 while the decoded frame and the ack were allocated.
func TestClientDirectAllocatesItsAck(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	cfg := DefaultClientConfig([]string{"a"})
	cfg.ResendInterval = time.Hour // no resend tick under the measurement
	delivered := 0
	c := NewClient(dropConn{"c"}, cfg, func(Event) { delivered++ })
	t.Cleanup(c.Stop)
	const warm, runs = 100, 200
	payload := make([]byte, 200)
	msgs := make([]transport.Message, warm+runs+1)
	for i := range msgs {
		f := &frame{Kind: kDirect, Origin: "a", OSeq: uint64(i + 1), Payload: payload}
		msgs[i] = transport.Message{From: "a", To: "c", Payload: encodeFrame(f)}
	}
	for _, msg := range msgs[:warm] {
		c.HandleTransport(msg)
	}
	next := msgs[warm:]
	allocs := testing.AllocsPerRun(runs, func() {
		c.HandleTransport(next[0])
		next = next[1:]
	})
	if delivered != len(msgs) {
		t.Fatalf("%d of %d direct frames delivered", delivered, len(msgs))
	}
	if allocs != 1 {
		t.Errorf("a fresh kDirect at a client: %v allocations, want 1 (its ack's sealed buffer)", allocs)
	}
}

// TestCallAllocatesOnlyItsClosure: a call from another goroutine onto the
// protocol goroutine reuses a pooled call record, so it allocates nothing of
// its own, and a SendDirect costs its closure and what the send costs on the
// protocol goroutine (the frame the outbox keeps). The wrapper closure and
// completion channel each call used to make were two more.
func TestCallAllocatesOnlyItsClosure(t *testing.T) {
	if alloctest.Race {
		t.Skip("the race detector allocates on its own account")
	}
	m := openQuiet(t, "a")
	noop := func() {}
	if allocs := testing.AllocsPerRun(200, func() { _ = m.do(noop) }); allocs != 0 {
		t.Errorf("a call with a ready-made function: %v allocations, want 0", allocs)
	}

	const runs = 200
	room := m.DirectRoom()
	bufs := func() []transport.Buf {
		out := make([]transport.Buf, runs+1)
		for i := range out {
			out[i] = transport.CopyBuf(room, make([]byte, 160))
		}
		return out
	}
	next := bufs()
	direct := testing.AllocsPerRun(runs, func() {
		_ = m.SendDirect("client", next[0], 0, vtime.Ledger{})
		next = next[1:]
	})
	next = bufs()
	var locked float64
	if err := m.do(func() {
		locked = testing.AllocsPerRun(runs, func() {
			m.sendDirectLocked("client", next[0], 0, vtime.Ledger{})
			next = next[1:]
		})
	}); err != nil {
		t.Fatal(err)
	}
	if direct != locked+1 {
		t.Errorf("a SendDirect from another goroutine: %v allocations, want %v (its closure and the send's %v)", direct, locked+1, locked)
	}
}

// TestCallsFromManyGoroutines: pooled call records go back and forth
// between goroutines; every caller's function runs exactly once per call,
// and each call returns only after its own function has run.
func TestCallsFromManyGoroutines(t *testing.T) {
	m := openQuiet(t, "a")
	const callers, calls = 8, 200
	var counts [callers]int // each written on the protocol goroutine only
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= calls; i++ {
				var ran bool
				if err := m.do(func() { counts[c]++; ran = true }); err != nil {
					t.Error(err)
					return
				}
				if !ran {
					t.Errorf("caller %d: call %d returned before its function ran", c, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := m.do(func() {
		for c, n := range counts {
			if n != calls {
				t.Errorf("caller %d: %d runs for %d calls", c, n, calls)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
