package shard

import (
	"sync"
	"testing"
	"time"

	"versadep/internal/orb"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// shardWire is one dialed shard as the router sees it: it records what the
// router sends and lets the test play that shard's replies into the sink
// the router bound.
type shardWire struct {
	mu     sync.Mutex
	sent   [][]byte
	sink   orb.ReplySink
	closed bool
	gotReq chan struct{} // one token per Send
}

func (w *shardWire) Room() transport.Room { return transport.Room{} }
func (w *shardWire) Send(req transport.Buf, _ vtime.Time, _ vtime.Ledger) error {
	w.mu.Lock()
	w.sent = append(w.sent, req.Bytes())
	w.mu.Unlock()
	w.gotReq <- struct{}{}
	return nil
}
func (w *shardWire) Bind(sink orb.ReplySink) { w.sink = sink }
func (w *shardWire) Close() error {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	return nil
}
func (w *shardWire) sends() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sent)
}

// routerRig is a router over fake shard wires, with the ORB's place taken
// by a sink that records what reaches it.
type routerRig struct {
	r  *Router
	up []orb.WireReply // written only by the goroutine that delivers

	mu    sync.Mutex
	wires map[int]*shardWire // dialed from Send or from a re-route goroutine
}

func newRouterRig(fetch func() *Map) *routerRig {
	rig := &routerRig{wires: map[int]*shardWire{}}
	rig.r = NewRouter(fetch, func(g Group) (orb.Wire, error) {
		w := &shardWire{gotReq: make(chan struct{}, 16)} // never fills in these tests
		rig.mu.Lock()
		rig.wires[g.ID] = w
		rig.mu.Unlock()
		return w, nil
	})
	rig.r.Bind(func(wr orb.WireReply) { rig.up = append(rig.up, wr) })
	return rig
}

// wire returns the fake wire dialed for shard id, nil if none was.
func (rig *routerRig) wire(id int) *shardWire {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return rig.wires[id]
}

func request(rid uint64, object string) transport.Buf {
	return transport.CopyBuf(transport.Room{}, orb.EncodeRequest(&orb.Request{ClientID: "c", ReqID: rid, Object: object, Operation: "inc"}))
}

func reply(rid uint64, status orb.Status, msg string) orb.WireReply {
	return orb.WireReply{Bytes: orb.EncodeReply(&orb.Reply{ClientID: "c", ReqID: rid, Status: status, ErrMsg: msg})}
}

// objectOn returns an object reference the map places on the given shard.
func objectOn(t *testing.T, m *Map, shard int) string {
	t.Helper()
	for _, k := range ringKeys(500) {
		if g, ok := m.Lookup(k); ok && g.ID == shard {
			return k
		}
	}
	t.Fatalf("no key lands on shard %d", shard)
	return ""
}

// An ordinary reply and a real servant exception are final answers: they
// reach the ORB's sink before the shard wire's up-call returns — on the
// receiving goroutine, no hand-off — and release the re-route bookkeeping.
func TestRouterPassesRepliesStraightThrough(t *testing.T) {
	m := NewMap(0, Group{ID: 0}, Group{ID: 1})
	rig := newRouterRig(func() *Map { return m })
	defer rig.r.Close()
	obj := objectOn(t, m, 1)
	for rid := uint64(1); rid <= 2; rid++ {
		if err := rig.r.Send(request(rid, obj), 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	w := rig.wire(1)
	if w == nil || w.sends() != 2 || rig.wire(0) != nil {
		t.Fatal("requests not routed to shard 1 only")
	}

	w.sink(reply(1, orb.StatusOK, ""))
	if len(rig.up) != 1 {
		t.Fatal("ordinary reply not delivered by the time the up-call returned")
	}
	w.sink(reply(2, orb.StatusException, "deliberate failure"))
	if len(rig.up) != 2 {
		t.Fatal("servant exception not delivered by the time the up-call returned")
	}
	if _, _, status, msg, _ := orb.PeekReplyError(rig.up[1].Bytes); status != orb.StatusException || msg != "deliberate failure" {
		t.Fatalf("exception arrived as %v %q", status, msg)
	}
	rig.r.mu.Lock()
	left := len(rig.r.inflight)
	rig.r.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d answered requests still tracked for re-routing", left)
	}
}

// A stale-epoch NAK is the one reply the router works on: it fetches a
// fresher map (an HTTP call in vdnode) and re-sends to the new owner. That
// must happen off the receiving goroutine — while the fetch is parked, the
// up-call has already returned and other replies keep flowing — and the NAK
// itself never reaches the ORB.
func TestRouterReroutesStaleNAKOffTheReceivingGoroutine(t *testing.T) {
	old := NewMap(0, Group{ID: 0})
	grown := old.WithShard(Group{ID: 1})
	moved := ""
	for _, k := range ringKeys(500) {
		if g, _ := grown.Lookup(k); g.ID == 1 {
			moved = k
			break
		}
	}
	if moved == "" {
		t.Fatal("no key moves to the new shard")
	}

	fetching := make(chan struct{})
	release := make(chan struct{})
	first := true
	rig := newRouterRig(func() *Map {
		if first { // NewRouter's own fetch: the router starts on the old layout
			first = false
			return old
		}
		close(fetching)
		<-release
		return grown
	})
	defer rig.r.Close()

	if err := rig.r.Send(request(1, moved), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	if err := rig.r.Send(request(2, moved), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	w0 := rig.wire(0)

	// Shard 0's guard already runs the grown map and NAKs request 1.
	nak := (&StaleError{Object: moved, Epoch: grown.Epoch}).Error()
	returned := make(chan struct{})
	go func() {
		w0.sink(reply(1, orb.StatusException, nak))
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the receiving goroutine is parked behind the map fetch")
	}
	<-fetching
	// The fetch is still parked; inbound traffic is not.
	w0.sink(reply(2, orb.StatusOK, ""))
	if len(rig.up) != 1 {
		t.Fatalf("%d replies reached the ORB while a re-route was pending, want 1", len(rig.up))
	}
	if _, rid, _ := orb.PeekReplyID(rig.up[0].Bytes); rid != 2 {
		t.Fatalf("reply %d reached the ORB, want 2 (the NAK must be consumed)", rid)
	}

	close(release)
	deadline := time.After(5 * time.Second)
	for rig.r.Map().Epoch != grown.Epoch || rig.wire(1) == nil {
		select {
		case <-deadline:
			t.Fatal("router never adopted the grown map and dialed the new shard")
		case <-time.After(time.Millisecond):
		}
	}
	w1 := rig.wire(1)
	select {
	case <-w1.gotReq:
	case <-deadline:
		t.Fatal("request 1 was not re-sent to its new owner")
	}
	if string(w1.sent[0]) != string(request(1, moved).Bytes()) {
		t.Fatal("re-routed bytes differ from the original request")
	}
	if len(rig.up) != 1 {
		t.Fatal("the stale NAK leaked to the ORB")
	}
}

// Close waits for a pending re-route, closes every shard wire, and nothing
// is delivered afterwards.
func TestRouterCloseStopsDelivery(t *testing.T) {
	m := NewMap(0, Group{ID: 0})
	rig := newRouterRig(func() *Map { return m })
	if err := rig.r.Send(request(1, "k"), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	w := rig.wire(0)
	// A NAK whose re-route finds no fresher map: dropped, but in flight
	// when Close begins.
	w.sink(reply(1, orb.StatusException, (&StaleError{Object: "k", Epoch: m.Epoch}).Error()))
	if err := rig.r.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.closed {
		t.Fatal("shard wire left open")
	}
	w.sink(reply(1, orb.StatusOK, ""))
	if len(rig.up) != 0 {
		t.Fatal("sink invoked after Close returned")
	}
	if err := rig.r.Send(request(2, "k"), 0, vtime.Ledger{}); err != orb.ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}
