package simnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"versadep/internal/transport"
	"versadep/internal/vtime"
)

func recvOne(t *testing.T, ep *Endpoint) transport.Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return transport.Message{}
	}
}

func mustEndpoint(t *testing.T, n *Network, addr string) *Endpoint {
	t.Helper()
	ep, err := n.Endpoint(addr)
	if err != nil {
		t.Fatalf("endpoint %q: %v", addr, err)
	}
	return ep
}

func TestBasicDelivery(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	if err := a.Send("b", []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if string(m.Payload) != "hello" || m.From != "a" || m.To != "b" {
		t.Fatalf("bad message: %+v", m)
	}
	if !m.ArriveAt.After(0) {
		t.Fatalf("arrival time %v not after send", m.ArriveAt)
	}
}

func TestArrivalTimeIncludesTransmission(t *testing.T) {
	model := vtime.DefaultCostModel()
	model.JitterFrac = 0
	n := New(WithCostModel(model))
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	if err := a.Send("b", make([]byte, 12500), 0); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	want := model.Transmit(12500)
	if got := m.ArriveAt.Sub(0); got != want {
		t.Fatalf("arrival delay = %v, want %v", got, want)
	}
}

func TestFIFOPerLink(t *testing.T) {
	n := New(WithSeed(3))
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	const total = 200
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte{byte(i)}, vtime.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	var last vtime.Time
	for i := 0; i < total; i++ {
		m := recvOne(t, b)
		if m.Payload[0] != byte(i) {
			t.Fatalf("out of order: got %d at position %d", m.Payload[0], i)
		}
		if m.ArriveAt.Before(last) {
			t.Fatalf("arrival times regressed: %v < %v", m.ArriveAt, last)
		}
		last = m.ArriveAt
	}
}

func TestSendToUnknownAddressDrops(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	if err := a.Send("ghost", []byte("x"), 0); err != nil {
		t.Fatalf("send to unknown addr should not error: %v", err)
	}
	st := n.Stats()
	if st.MessagesDropped != 1 {
		t.Fatalf("dropped = %d, want 1", st.MessagesDropped)
	}
}

func TestDuplicateAddress(t *testing.T) {
	n := New()
	defer n.Close()
	mustEndpoint(t, n, "a")
	if _, err := n.Endpoint("a"); !errors.Is(err, transport.ErrDuplicateAddr) {
		t.Fatalf("err = %v, want ErrDuplicateAddr", err)
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	n.Crash("b")
	if !n.Crashed("b") {
		t.Fatal("b not marked crashed")
	}
	if err := a.Send("b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-b.Recv():
		if ok {
			t.Fatal("crashed endpoint received a message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crashed endpoint's channel not closed")
	}

	// Sends from a crashed process are also discarded.
	n.Crash("a")
	if err := a.Send("b", []byte("x"), 0); err != nil && !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCrashedAddressCanReattach(t *testing.T) {
	n := New()
	defer n.Close()
	mustEndpoint(t, n, "a")
	n.Crash("a")
	// A recovered incarnation re-attaches under the same address.
	ep, err := n.Endpoint("a")
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	if n.Crashed("a") {
		t.Fatal("reattached address still marked crashed")
	}
	b := mustEndpoint(t, n, "b")
	if err := b.Send("a", []byte("wb"), 0); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, ep)
	if string(m.Payload) != "wb" {
		t.Fatalf("bad payload %q", m.Payload)
	}
}

func TestPartition(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	n.Partition("b", 1)
	if err := a.Send("b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if n.Stats().MessagesDropped != 1 {
		t.Fatal("partitioned message not dropped")
	}

	n.Heal()
	if err := a.Send("b", []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if string(m.Payload) != "y" {
		t.Fatalf("post-heal payload %q", m.Payload)
	}
}

func TestDropProbability(t *testing.T) {
	n := New(WithSeed(9))
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	n.SetLink("a", "b", transport.Rule{Drop: 1.0})
	for i := 0; i < 10; i++ {
		if err := a.Send("b", []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.Stats().MessagesDropped; got != 10 {
		t.Fatalf("dropped = %d, want 10", got)
	}

	// Wildcard drop applies to links without an exact entry.
	mustEndpoint(t, n, "c")
	n.SetLink("a", "*", transport.Rule{Drop: 1.0})
	if err := a.Send("c", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().MessagesDropped; got != 11 {
		t.Fatalf("wildcard drop = %d, want 11", got)
	}
	// An exact entry overrides the wildcard, even when it is zero.
	n.SetLink("a", "b", transport.Rule{})
	if err := a.Send("b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if got := n.Stats().MessagesDropped; got != 11 {
		t.Fatalf("exact-overrides-wildcard drop = %d, want 11", got)
	}
	recvOne(t, b)
}

func TestPartialDropRate(t *testing.T) {
	n := New(WithSeed(42))
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	n.SetLink("a", "b", transport.Rule{Drop: 0.5})
	const total = 2000
	for i := 0; i < total; i++ {
		if err := a.Send("b", []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	dropped := n.Stats().MessagesDropped
	if dropped < total/3 || dropped > 2*total/3 {
		t.Fatalf("drop rate %d/%d far from 0.5", dropped, total)
	}
	// Drain what survived so the pump goroutine can exit cleanly.
	for i := int64(0); i < int64(total)-dropped; i++ {
		recvOne(t, b)
	}
}

func TestExtraDelay(t *testing.T) {
	model := vtime.DefaultCostModel()
	model.JitterFrac = 0
	n := New(WithCostModel(model))
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	n.SetLink("a", "b", transport.Rule{Delay: 5 * vtime.Millisecond})
	if err := a.Send("b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	want := model.Transmit(1) + 5*vtime.Millisecond
	if got := m.ArriveAt.Sub(0); got != want {
		t.Fatalf("delay = %v, want %v", got, want)
	}
}

func TestStatsAndReset(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	payload := make([]byte, 100)
	if err := a.Send("b", payload, 0); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	st := n.Stats()
	if st.MessagesSent != 1 || st.BytesSent != 100 {
		t.Fatalf("stats = %+v", st)
	}
	n.ResetStats()
	if st := n.Stats(); st.MessagesSent != 0 || st.BytesSent != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestCloseNetwork(t *testing.T) {
	n := New()
	a := mustEndpoint(t, n, "a")
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", nil, 0); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("send after close = %v", err)
	}
	if _, err := n.Endpoint("c"); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("endpoint after close = %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestEndpointClose(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-a.Recv(); ok {
		t.Fatal("recv channel not closed")
	}
	// The address is free for reuse after close.
	if _, err := n.Endpoint("a"); err != nil {
		t.Fatalf("reuse after close: %v", err)
	}
}

func TestDeterministicArrivals(t *testing.T) {
	run := func() []vtime.Time {
		n := New(WithSeed(77))
		defer n.Close()
		a := mustEndpoint(t, n, "a")
		b := mustEndpoint(t, n, "b")
		var out []vtime.Time
		for i := 0; i < 50; i++ {
			if err := a.Send("b", make([]byte, 64), vtime.Time(i*1000)); err != nil {
				t.Fatal(err)
			}
			out = append(out, recvOne(t, b).ArriveAt)
		}
		return out
	}
	r1, r2 := run(), run()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestBurstDoesNotBlockSender(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")

	// Nothing reads b while we send a large burst; sends must not block.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			if err := a.Send("b", []byte{1}, 0); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender blocked on unread receiver")
	}
	for i := 0; i < 10000; i++ {
		recvOne(t, b)
	}
}

// TestEndpointQueueReusesItsArray: a message that finds the destination's
// queue drained — every message of a request/reply exchange — costs no
// allocation on its way through the fabric; the queue used to grow a fresh
// array for nearly every one.
func TestEndpointQueueReusesItsArray(t *testing.T) {
	net := New()
	defer net.Close()
	a, _ := net.Endpoint("a")
	b, _ := net.Endpoint("b")
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(200, func() {
		if err := a.Send("b", payload, 0); err != nil {
			t.Fatal(err)
		}
		<-b.Recv()
	})
	if allocs != 0 {
		t.Errorf("one message through a drained endpoint queue: %v allocations, want 0", allocs)
	}
}

// TestMostSpecificRuleAppliesWhole: rules do not merge across wildcard
// levels — a (from,*) entry replaces (*,*) entirely, fields it leaves zero
// included.
func TestMostSpecificRuleAppliesWhole(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")
	n.SetLink("*", "*", transport.Rule{Drop: 1})
	n.SetLink("a", "*", transport.Rule{Delay: vtime.Millisecond})
	if got := n.Rule("a", "b"); got != (transport.Rule{Delay: vtime.Millisecond}) {
		t.Fatalf("rule on a->b = %+v", got)
	}
	if err := a.Send("b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if got := n.Rule("b", "a"); got != (transport.Rule{Drop: 1}) {
		t.Fatalf("rule on b->a = %+v", got)
	}
}

// Regression: a reordered message parked at an idle endpoint waited for the
// next arrival there, which on a link that goes quiet never comes. The
// pump is woken and flushes it once the queue drains.
func TestReorderedMessageToIdleEndpointIsDelivered(t *testing.T) {
	n := New()
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")
	n.SetLink("a", "b", transport.Rule{Reorder: 1})
	time.Sleep(10 * time.Millisecond) // b's pump is asleep
	if err := a.Send("b", []byte("late"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		if string(m.Payload) != "late" {
			t.Fatalf("payload %q", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("reordered message to an idle endpoint never delivered")
	}
	if got := n.Stats().MessagesReordered; got != 1 {
		t.Fatalf("reordered = %d, want 1", got)
	}
}

// TestJitterIsAFunctionOfTheLink: the k-th data frame on a link draws the
// same jitter whatever else the fabric carries — control frames on the same
// link, traffic on other links, and which link sent first.
func TestJitterIsAFunctionOfTheLink(t *testing.T) {
	run := func(noise bool) []vtime.Duration {
		n := New(WithSeed(5))
		defer n.Close()
		a := mustEndpoint(t, n, "a")
		b := mustEndpoint(t, n, "b")
		c := mustEndpoint(t, n, "c")
		var out []vtime.Duration
		for i := 0; i < 40; i++ {
			// Frames a millisecond apart: no FIFO clamping between them.
			at := vtime.Time(i) * vtime.Time(vtime.Millisecond)
			if noise {
				_ = a.Send("c", make([]byte, 64), at)
				_ = c.SendMulticast([]string{"a", "b"}, make([]byte, 32), at)
			}
			if err := a.Send("b", make([]byte, 64), at); err != nil {
				t.Fatal(err)
			}
			if noise {
				// After the data frame, so FIFO order on a->b cannot hold
				// the data frame back behind it.
				_ = a.SendControl("b", make([]byte, 16), at)
			}
		}
		for len(out) < 40 {
			if m := recvOne(t, b); m.From == "a" && len(m.Payload) == 64 {
				out = append(out, m.ArriveAt.Sub(m.SentAt))
			}
		}
		return out
	}
	quiet, noisy := run(false), run(true)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("data frame %d on a->b: %v alone, %v with other traffic", i, quiet[i], noisy[i])
		}
	}
}

// TestFabricAndLiveWrapperDecideAlike: given the same rule, seed and
// payloads, the simulated fabric and the live wrapper decide the same drop,
// duplicate and reorder outcome and deliver the same corrupted bytes for
// every message.
func TestFabricAndLiveWrapperDecideAlike(t *testing.T) {
	const seed, count = 11, 1000
	rule := transport.Rule{Drop: 0.2, Dup: 0.2, Reorder: 0.2, Corrupt: 0.2}
	type outcome struct {
		drop, dup, reorder, corrupt bool
		got                         []string
	}
	delta := func(before, after transport.Stats) outcome {
		return outcome{
			drop:    after.MessagesDropped > before.MessagesDropped,
			dup:     after.MessagesDuplicated > before.MessagesDuplicated,
			reorder: after.MessagesReordered > before.MessagesReordered,
			corrupt: after.MessagesCorrupted > before.MessagesCorrupted,
		}
	}
	payload := func(i int) []byte { return []byte(fmt.Sprintf("message %04d", i)) }

	n := New(WithSeed(seed))
	defer n.Close()
	a := mustEndpoint(t, n, "a")
	b := mustEndpoint(t, n, "b")
	n.SetLink("a", "b", rule)

	inner := &recordingEndpoint{addr: "a", sent: make(chan []byte, 2)}
	live := transport.ApplyRule(inner, rule, seed)

	for i := 0; i < count; i++ {
		before := n.Stats()
		if err := a.Send("b", payload(i), 0); err != nil {
			t.Fatal(err)
		}
		fab := delta(before, n.Stats())
		before = live.Stats()
		if err := live.Send("b", payload(i), 0); err != nil {
			t.Fatal(err)
		}
		wire := delta(before, live.Stats())
		copies := 1
		if fab.dup {
			copies = 2
		}
		if fab.drop {
			copies = 0
		}
		for k := 0; k < copies; k++ {
			fab.got = append(fab.got, string(recvOne(t, b).Payload))
			select {
			case p := <-inner.sent:
				wire.got = append(wire.got, string(p))
			case <-time.After(2 * time.Second):
				t.Fatalf("message %d: live wrapper emitted %d of %d copies", i, k, copies)
			}
		}
		if fmt.Sprint(fab) != fmt.Sprint(wire) {
			t.Fatalf("message %d: fabric %+v, live wrapper %+v", i, fab, wire)
		}
	}
	if st := n.Stats(); st.MessagesDropped == 0 || st.MessagesDuplicated == 0 || st.MessagesReordered == 0 || st.MessagesCorrupted == 0 {
		t.Fatalf("a fault class never fired: %+v", st)
	}
}

// recordingEndpoint is a live endpoint stand-in that hands every emitted
// payload to a channel.
type recordingEndpoint struct {
	addr string
	sent chan []byte
}

func (r *recordingEndpoint) Addr() string { return r.addr }
func (r *recordingEndpoint) Send(_ string, p []byte, _ vtime.Time) error {
	r.sent <- append([]byte(nil), p...)
	return nil
}
func (r *recordingEndpoint) SendMulticast([]string, []byte, vtime.Time) error { return nil }
func (r *recordingEndpoint) SendControl(string, []byte, vtime.Time) error     { return nil }
func (r *recordingEndpoint) Serve(func(transport.Message))                    {}
func (r *recordingEndpoint) Close() error                                     { return nil }
