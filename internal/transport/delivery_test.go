package transport_test

import (
	"encoding/binary"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/transport/tcptransport"
)

// The delivery contract every endpoint keeps (transport.MultiEndpoint.Serve),
// checked through a Demux on both fabrics: one link's messages are handled
// in the order they were sent, messages that arrive before Start wait for
// it, and no handler starts once Close — or, on simnet, Network.Crash — has
// returned.

// fabric opens endpoints at addrs, each able to send to those before it.
// crash is the fabric's process crash, nil where it has none.
type fabric struct {
	name string
	open func(t *testing.T, addrs ...string) (eps []transport.MultiEndpoint, crash func(addr string))
}

var fabrics = []fabric{{"simnet", openSimnet}, {"tcp", openTCP}}

func openSimnet(t *testing.T, addrs ...string) ([]transport.MultiEndpoint, func(string)) {
	t.Helper()
	n := simnet.New()
	t.Cleanup(func() { _ = n.Close() })
	eps := make([]transport.MultiEndpoint, len(addrs))
	for i, addr := range addrs {
		ep, err := n.Endpoint(addr)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return eps, n.Crash
}

// openTCP gives each endpoint the addresses of those listening before it:
// an endpoint's peer table is its own once it listens.
func openTCP(t *testing.T, addrs ...string) ([]transport.MultiEndpoint, func(string)) {
	t.Helper()
	peers := map[string]string{}
	eps := make([]transport.MultiEndpoint, len(addrs))
	for i, addr := range addrs {
		ep, err := tcptransport.Listen(addr, "127.0.0.1:0", maps.Clone(peers))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		peers[addr] = ep.BoundAddr()
		eps[i] = ep
	}
	return eps, nil
}

// numbered is message i of sender from.
func numbered(from byte, i int) []byte {
	return binary.BigEndian.AppendUint32([]byte{from}, uint32(i))
}

func number(m transport.Message) (from byte, i int) {
	return m.Payload[0], int(binary.BigEndian.Uint32(m.Payload[1:]))
}

// checkNumbered fails unless msgs are messages 0, 1, 2, … of one sender.
func checkNumbered(t *testing.T, msgs []transport.Message) {
	t.Helper()
	for k, m := range msgs {
		if _, i := number(m); i != k {
			t.Fatalf("delivery %d is message %d", k, i)
		}
	}
}

// TestDeliveryKeepsLinkOrder: one link's messages are handled in the order
// they were sent.
func TestDeliveryKeepsLinkOrder(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			eps, _ := f.open(t, "b", "a")
			b, a := transport.NewDemux(eps[0]), transport.NewDemux(eps[1])
			got := newCollector()
			b.Handle(transport.ProtoGCS, got.handle)
			b.Start()
			const n = 500
			for i := 0; i < n; i++ {
				if err := sendOn(a.Conn(transport.ProtoGCS), "b", numbered('a', i)); err != nil {
					t.Fatal(err)
				}
			}
			checkNumbered(t, got.wait(t, n))
		})
	}
}

// TestDeliveryWaitsForStart: messages that arrive before Start are not
// handled, and are handled in arrival order once it is called.
func TestDeliveryWaitsForStart(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			eps, _ := f.open(t, "b", "a")
			b, a := transport.NewDemux(eps[0]), transport.NewDemux(eps[1])
			got := newCollector()
			b.Handle(transport.ProtoGCS, got.handle)
			const n = 100
			for i := 0; i < n; i++ {
				if err := sendOn(a.Conn(transport.ProtoGCS), "b", numbered('a', i)); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(50 * time.Millisecond) // arrived, on either fabric
			got.mu.Lock()
			early := len(got.msgs)
			got.mu.Unlock()
			if early != 0 {
				t.Fatalf("%d messages were handled before Start", early)
			}
			b.Start()
			checkNumbered(t, got.wait(t, n))
		})
	}
}

// TestNoHandlerStartsAfterClose: while a peer floods the endpoint, Close —
// and, on simnet, Crash — returns with no handler running, and none starts
// after it.
func TestNoHandlerStartsAfterClose(t *testing.T) {
	for _, f := range fabrics {
		for _, how := range []string{"close", "crash"} {
			t.Run(f.name+"/"+how, func(t *testing.T) {
				eps, crash := f.open(t, "b", "a")
				if how == "crash" && crash == nil {
					t.Skip("the fabric has no process crash")
				}
				b, a := transport.NewDemux(eps[0]), transport.NewDemux(eps[1])
				var stopped atomic.Bool
				var handled, running, late atomic.Int64
				b.Handle(transport.ProtoGCS, func(transport.Message) {
					running.Add(1)
					if stopped.Load() {
						late.Add(1)
					}
					handled.Add(1)
					time.Sleep(10 * time.Microsecond) // a handler is in flight most of the time
					running.Add(-1)
				})
				b.Start()

				done := make(chan struct{})
				var flood sync.WaitGroup
				flood.Add(1)
				go func() {
					defer flood.Done()
					for i := 0; i < 20000; i++ {
						select {
						case <-done:
							return
						default:
						}
						_ = sendOn(a.Conn(transport.ProtoGCS), "b", numbered('a', i))
						if i%64 == 63 {
							time.Sleep(50 * time.Microsecond)
						}
					}
				}()
				deadline := time.Now().Add(5 * time.Second)
				for handled.Load() < 100 {
					if time.Now().After(deadline) {
						t.Fatalf("only %d messages handled", handled.Load())
					}
					time.Sleep(time.Millisecond)
				}
				if how == "crash" {
					crash("b")
				} else {
					_ = b.Close()
				}
				stopped.Store(true)
				if n := running.Load(); n != 0 {
					t.Errorf("%s returned with %d handlers running", how, n)
				}
				time.Sleep(20 * time.Millisecond) // the flood goes on
				close(done)
				flood.Wait()
				if n := late.Load(); n != 0 {
					t.Fatalf("%d handlers started after %s returned", n, how)
				}
			})
		}
	}
}

// TestTCPPeersFloodOneDemux (run it with -race): four peers flood one
// endpoint at once. Each connection's reader runs the handler itself, so
// handlers for different peers run side by side; each peer's messages must
// still be handled one at a time, in the order it sent them. The per-peer
// state is deliberately unsynchronised: the race detector reports it if two
// of one peer's messages are ever handled concurrently.
func TestTCPPeersFloodOneDemux(t *testing.T) {
	const peers, per = 4, 1000 // per stays inside a peer's send queue: nothing is dropped
	addrs := []string{"r"}
	for p := 0; p < peers; p++ {
		addrs = append(addrs, string(rune('0'+p)))
	}
	eps, _ := openTCP(t, addrs...)
	r := transport.NewDemux(eps[0])
	var next [peers]int
	var total, misordered atomic.Int64
	r.Handle(transport.ProtoGCS, func(m transport.Message) {
		from, i := number(m)
		p := from - '0'
		if i != next[p] {
			misordered.Add(1)
		}
		next[p] = i + 1
		total.Add(1)
	})
	r.Start()

	var send sync.WaitGroup
	for p := 0; p < peers; p++ {
		send.Add(1)
		go func(p int) {
			defer send.Done()
			conn := transport.NewDemux(eps[1+p]).Conn(transport.ProtoGCS)
			for i := 0; i < per; i++ {
				if err := sendOn(conn, "r", numbered(byte('0'+p), i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	send.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for total.Load() < peers*per {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d messages handled", total.Load(), peers*per)
		}
		time.Sleep(time.Millisecond)
	}
	if n := misordered.Load(); n != 0 {
		t.Fatalf("%d messages handled out of their peer's order", n)
	}
	for p, n := range next {
		if n != per {
			t.Errorf("peer %d: last message handled is %d, want %d", p, n-1, per-1)
		}
	}
}
