package transport_test

import (
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/simnet"
	"versadep/internal/transport"
)

type collector struct {
	mu   sync.Mutex
	msgs []transport.Message
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1)}
}

func (c *collector) handle(m transport.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *collector) wait(t *testing.T, n int) []transport.Message {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]transport.Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for %d messages", n)
		}
	}
}

func TestDemuxRoutesByProtocol(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	epA, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}

	da := transport.NewDemux(epA)
	db := transport.NewDemux(epB)
	gcs := newCollector()
	viop := newCollector()
	db.Handle(transport.ProtoGCS, gcs.handle)
	db.Handle(transport.ProtoVIOP, viop.handle)
	da.Start()
	db.Start()
	defer da.Close()
	defer db.Close()

	if err := sendOn(da.Conn(transport.ProtoGCS), "b", []byte("g1")); err != nil {
		t.Fatal(err)
	}
	if err := sendOn(da.Conn(transport.ProtoVIOP), "b", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := sendOn(da.Conn(transport.ProtoGCS), "b", []byte("g2")); err != nil {
		t.Fatal(err)
	}

	g := gcs.wait(t, 2)
	if string(g[0].Payload) != "g1" || string(g[1].Payload) != "g2" {
		t.Fatalf("gcs got %q %q", g[0].Payload, g[1].Payload)
	}
	v := viop.wait(t, 1)
	if string(v[0].Payload) != "v1" {
		t.Fatalf("viop got %q", v[0].Payload)
	}
	if g[0].From != "a" {
		t.Fatalf("From = %q", g[0].From)
	}
}

// seal builds the wire frame for msg the way an outermost encoder does:
// encoded inside the room Seal fills, sealed in place.
func seal(c transport.Conn, msg []byte) []byte {
	return c.Seal(transport.CopyBuf(transport.SealRoom, msg))
}

func sendOn(c transport.Conn, to string, msg []byte) error {
	return c.Send(to, seal(c, msg), 0)
}

// TestSealInPlace: a buffer built inside SealRoom already has the
// protocol byte's slot in front and the checksum's room behind, so sealing
// it allocates nothing and moves nothing.
func TestSealInPlace(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	ep, _ := n.Endpoint("a")
	conn := transport.NewDemux(ep).Conn(transport.ProtoVIOP)
	for _, size := range []int{200, 64 << 10} {
		m := transport.NewBuf(transport.SealRoom, size)
		if room := m.Room(); room != transport.SealRoom {
			t.Fatalf("NewBuf(SealRoom, %d) leaves room %+v, want %+v", size, room, transport.SealRoom)
		}
		buf := m.Bytes()
		var sealed []byte
		if allocs := testing.AllocsPerRun(20, func() { sealed = conn.Seal(m) }); allocs != 0 {
			t.Errorf("sealing a %d B message: %v allocations, want 0", size, allocs)
		}
		if &sealed[transport.Headroom] != &buf[0] {
			t.Errorf("sealing a %d B message moved it", size)
		}
		body, err := codec.VerifyChecksum(sealed)
		if err != nil || transport.Protocol(body[0]) != transport.ProtoVIOP || len(body) != transport.Headroom+size {
			t.Errorf("sealed %d B message does not verify: proto %d, %d body bytes, err %v", size, body[0], len(body), err)
		}
	}
}

func TestDemuxUnhandledProtocolDropped(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	epA, _ := n.Endpoint("a")
	epB, _ := n.Endpoint("b")

	da := transport.NewDemux(epA)
	db := transport.NewDemux(epB)
	gcs := newCollector()
	db.Handle(transport.ProtoGCS, gcs.handle)
	da.Start()
	db.Start()
	defer da.Close()
	defer db.Close()

	// No handler for VIOP at b; must not wedge the dispatcher.
	if err := sendOn(da.Conn(transport.ProtoVIOP), "b", []byte("lost")); err != nil {
		t.Fatal(err)
	}
	if err := sendOn(da.Conn(transport.ProtoGCS), "b", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	g := gcs.wait(t, 1)
	if string(g[0].Payload) != "kept" {
		t.Fatalf("got %q", g[0].Payload)
	}
}

func TestDemuxMulticastAndControl(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	epA, _ := n.Endpoint("a")
	epB, _ := n.Endpoint("b")
	epC, _ := n.Endpoint("c")

	da := transport.NewDemux(epA)
	db := transport.NewDemux(epB)
	dc := transport.NewDemux(epC)
	cb := newCollector()
	cc := newCollector()
	db.Handle(transport.ProtoGCS, cb.handle)
	dc.Handle(transport.ProtoGCS, cc.handle)
	da.Start()
	db.Start()
	dc.Start()
	defer da.Close()
	defer db.Close()
	defer dc.Close()

	conn := da.Conn(transport.ProtoGCS)
	payload := make([]byte, 99)
	if err := conn.SendMulticast([]string{"b", "c"}, seal(conn, payload), 0); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1)
	cc.wait(t, 1)
	// Multicast counts the framed payload once.
	if got := n.Stats().BytesSent; got != 100 {
		t.Fatalf("multicast bytes = %d, want 100", got)
	}

	// Control traffic is not counted at all.
	if err := conn.SendControl("b", seal(conn, []byte("hb")), 0); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 2)
	if got := n.Stats().BytesSent; got != 100 {
		t.Fatalf("control bytes counted: %d", got)
	}
}

func TestDemuxEmptyPayloadIgnored(t *testing.T) {
	n := simnet.New()
	defer n.Close()
	epA, _ := n.Endpoint("a")
	epB, _ := n.Endpoint("b")

	db := transport.NewDemux(epB)
	gcs := newCollector()
	db.Handle(transport.ProtoGCS, gcs.handle)
	db.Start()
	defer db.Close()

	// A zero-length raw payload (no protocol byte) must be ignored.
	if err := epA.Send("b", nil, 0); err != nil {
		t.Fatal(err)
	}
	da := transport.NewDemux(epA)
	da.Start()
	defer da.Close()
	if err := sendOn(da.Conn(transport.ProtoGCS), "b", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	g := gcs.wait(t, 1)
	if string(g[0].Payload) != "ok" {
		t.Fatalf("got %q", g[0].Payload)
	}
}

func TestSimnetMulticastFaultIndependence(t *testing.T) {
	n := simnet.New(simnet.WithSeed(5))
	defer n.Close()
	epA, _ := n.Endpoint("a")
	epB, _ := n.Endpoint("b")
	epC, _ := n.Endpoint("c")
	_ = epB

	// b is partitioned away; multicast still reaches c.
	n.Partition("b", 1)
	if err := epA.SendMulticast([]string{"b", "c"}, []byte("m"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-epC.Recv():
		if string(m.Payload) != "m" {
			t.Fatalf("payload %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("c did not receive multicast")
	}
	select {
	case <-epB.Recv():
		t.Fatal("partitioned b received multicast")
	case <-time.After(50 * time.Millisecond):
	}
}
