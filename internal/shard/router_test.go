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
}

func (w *shardWire) Room() transport.Room { return transport.Room{} }
func (w *shardWire) Send(req transport.Buf, _ vtime.Time, _ vtime.Ledger) error {
	w.mu.Lock()
	w.sent = append(w.sent, req.Bytes())
	w.mu.Unlock()
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
	wires map[int]*shardWire // dialed from Send
}

func newRouterRig(fetch func() *Map) *routerRig {
	rig := &routerRig{wires: map[int]*shardWire{}}
	rig.r = NewRouter(fetch, func(g Group) (orb.Wire, error) {
		w := &shardWire{}
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
// receiving goroutine, no hand-off.
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
}

// waitEpoch waits until the router has adopted a map of the given epoch.
func waitEpoch(t *testing.T, r *Router, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.m.load().Epoch != epoch {
		if time.Now().After(deadline) {
			t.Fatalf("router never adopted the epoch-%d map", epoch)
		}
		time.Sleep(time.Millisecond)
	}
}

// A stale-epoch NAK is the one reply the router works on: it fetches a
// fresher map (an HTTP call in vdnode). That must happen off the receiving
// goroutine — while the fetch is parked, the up-call has already returned
// and other replies keep flowing — and the NAK itself never reaches the
// ORB. The router sends nothing on its own: the ORB's retransmission of the
// NAKed request id is what reaches the new owner, with the original bytes.
func TestRouterReroutesStaleNAKOffTheReceivingGoroutine(t *testing.T) {
	old := NewMap(0, Group{ID: 0})
	grown := old.WithShard(Group{ID: 1})
	moved := objectOn(t, grown, 1)

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
		t.Fatalf("%d replies reached the ORB while a refresh was pending, want 1", len(rig.up))
	}
	if _, rid, _ := orb.PeekReplyID(rig.up[0].Bytes); rid != 2 {
		t.Fatalf("reply %d reached the ORB, want 2 (the NAK must be consumed)", rid)
	}

	close(release)
	waitEpoch(t, rig.r, grown.Epoch)
	if rig.wire(1) != nil {
		t.Fatal("the router dialed the new shard on its own; only the ORB's retransmission sends")
	}
	// The ORB's retransmission of request 1.
	if err := rig.r.Send(request(1, moved), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	w1 := rig.wire(1)
	if w1 == nil || w1.sends() != 1 || w0.sends() != 2 {
		t.Fatal("the retransmission did not go to the new owner")
	}
	if string(w1.sent[0]) != string(request(1, moved).Bytes()) {
		t.Fatal("re-routed bytes differ from the original request")
	}
	if len(rig.up) != 1 {
		t.Fatal("the stale NAK leaked to the ORB")
	}
}

// N stale NAKs for N requests, all advertising one newer epoch, cost one
// map fetch: NAKs that arrive while the refresh is in flight, or after the
// router has adopted the advertised epoch, fetch nothing. Each NAKed
// request id's next Send goes to its new owner, once.
func TestRouterFetchesOncePerAdvertisedEpoch(t *testing.T) {
	const n = 8
	old := NewMap(0, Group{ID: 0})
	grown := old.WithShard(Group{ID: 1})
	moved := objectOn(t, grown, 1)

	var mu sync.Mutex
	fetches := 0
	release := make(chan struct{})
	rig := newRouterRig(func() *Map {
		mu.Lock()
		fetches++
		initial := fetches == 1
		mu.Unlock()
		if initial { // NewRouter's own fetch
			return old
		}
		<-release
		return grown
	})
	for rid := uint64(1); rid <= n; rid++ {
		if err := rig.r.Send(request(rid, moved), 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	w0 := rig.wire(0)
	nak := (&StaleError{Object: moved, Epoch: grown.Epoch}).Error()
	// Half the NAKs arrive while the first one's fetch is parked, half
	// after the router has adopted the grown map.
	for rid := uint64(1); rid <= n/2; rid++ {
		w0.sink(reply(rid, orb.StatusException, nak))
	}
	close(release)
	waitEpoch(t, rig.r, grown.Epoch)
	for rid := uint64(n/2 + 1); rid <= n; rid++ {
		w0.sink(reply(rid, orb.StatusException, nak))
	}
	// The ORB's retransmissions.
	for rid := uint64(1); rid <= n; rid++ {
		if err := rig.r.Send(request(rid, moved), 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.r.Close(); err != nil { // waits for any refresh in flight
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if fetches != 2 {
		t.Fatalf("%d NAKs advertising one epoch cost %d fetches, want 1", n, fetches-1)
	}
	w1 := rig.wire(1)
	if w1 == nil || w1.sends() != n || w0.sends() != n {
		t.Fatalf("sends: old owner %d, new owner %v; want %d each", w0.sends(), w1, n)
	}
	for i, b := range w1.sent {
		if string(b) != string(request(uint64(i+1), moved).Bytes()) {
			t.Fatalf("new owner's send %d is not request %d", i, i+1)
		}
	}
	if len(rig.up) != 0 {
		t.Fatalf("%d stale NAKs leaked to the ORB", len(rig.up))
	}
}

// Close waits for a pending map refresh, closes every shard wire, and
// nothing is delivered afterwards.
func TestRouterCloseStopsDelivery(t *testing.T) {
	m := NewMap(0, Group{ID: 0})
	rig := newRouterRig(func() *Map { return m })
	if err := rig.r.Send(request(1, "k"), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	w := rig.wire(0)
	// A NAK from a guard ahead of a coordinator that has not published
	// yet: its refresh finds no fresher map, but is in flight when Close
	// begins.
	w.sink(reply(1, orb.StatusException, (&StaleError{Object: "k", Epoch: m.Epoch + 1}).Error()))
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
