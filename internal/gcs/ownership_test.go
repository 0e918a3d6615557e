package gcs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/gcs"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/transport/tcptransport"
	"versadep/internal/vtime"
)

// TestPayloadImmutableAfterSend exercises the buffer-ownership rule under
// the conditions that would expose a violation (run it with -race): three
// members and an external client on a fabric that corrupts, duplicates and
// reorders; 4 KB payloads that every sender keeps, as a retransmitting
// layer would; one slice handed to several receivers by multicast. Nobody
// may write to a payload after it was sent, so at the end every retained
// buffer still has the checksum it had when it was handed over, and every
// delivery — at every member, and of every direct reply at the client —
// carries exactly the bytes that were sent, in the agreed order.
func TestPayloadImmutableAfterSend(t *testing.T) {
	net := simnet.New(simnet.WithSeed(97))
	defer net.Close()
	nodes := startGroup(t, net, 3)

	ep, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	const perSender, size = 40, 4096
	directs := make(chan gcs.Event, perSender) // one slot per distinct reply: the handler never blocks
	cl := gcs.NewClient(d.Conn(transport.ProtoGCS), gcs.DefaultClientConfig([]string{"ma", "mb", "mc"}),
		func(e gcs.Event) { directs <- e })
	d.Handle(transport.ProtoGroupClient, cl.HandleTransport)
	d.Start()
	defer cl.Stop()

	net.SetLink("*", "*", transport.Rule{Corrupt: 0.05, Dup: 0.10, Reorder: 0.10})

	type kept struct {
		buf []byte
		crc uint32
	}
	var retained []kept
	keep := func(sender byte, i int, room transport.Room) transport.Buf {
		m := transport.NewBuf(room, size)
		buf := m.Bytes()
		for j := range buf {
			buf[j] = sender + byte(i) + byte(j)
		}
		buf[0] = sender
		binary.BigEndian.PutUint32(buf[1:], uint32(i))
		retained = append(retained, kept{buf, crc32.ChecksumIEEE(buf)})
		return m
	}

	// Two members multicast and the client submits, interleaved; member c
	// answers the client directly with a buffer it also keeps.
	sent := map[byte][][]byte{}
	var replies [][]byte
	for i := 0; i < perSender; i++ {
		for s, n := range nodes[:2] {
			buf := keep(byte('a'+s), i, transport.Room{}).Bytes()
			sent[buf[0]] = append(sent[buf[0]], buf)
			if err := n.member.Multicast(buf, gcs.Agreed, 0, vtime.Ledger{}); err != nil {
				t.Fatal(err)
			}
		}
		buf := keep('x', i, cl.Room())
		sent['x'] = append(sent['x'], buf.Bytes())
		if err := cl.Submit(buf, 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
		reply := keep('r', i, nodes[2].member.DirectRoom())
		replies = append(replies, reply.Bytes())
		if err := nodes[2].member.SendDirect("client", reply, 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}

	// The client sees every reply exactly once (order is not promised for
	// direct traffic under reordering).
	got := map[uint32][]byte{}
	deadline := time.After(20 * time.Second)
	for len(got) < perSender {
		select {
		case e := <-directs:
			if e.Kind != gcs.EventDirect {
				continue
			}
			i := binary.BigEndian.Uint32(e.Payload[1:])
			if _, dup := got[i]; dup {
				t.Fatalf("reply %d delivered twice", i)
			}
			got[i] = e.Payload
		case <-deadline:
			t.Fatalf("client received %d of %d replies", len(got), perSender)
		}
	}
	for i, want := range replies {
		if !bytes.Equal(got[uint32(i)], want) {
			t.Fatalf("reply %d arrived with different bytes than were sent", i)
		}
	}

	// Every member delivers every payload, byte for byte, each sender's in
	// the order it sent them, and all members in the same total order.
	var order []string
	for _, n := range nodes {
		msgs := n.waitMessages(t, 3*perSender, 20*time.Second)
		next := map[byte]int{}
		var mine []string
		for _, e := range msgs {
			s := e.Payload[0]
			if next[s] >= len(sent[s]) || !bytes.Equal(e.Payload, sent[s][next[s]]) {
				t.Fatalf("%s: delivery %d from %q differs from what was sent", n.name, next[s], s)
			}
			next[s]++
			mine = append(mine, string(e.Payload[:5]))
		}
		if order == nil {
			order = mine
		} else if len(mine) != len(order) {
			t.Fatalf("%s delivered %d messages, %s delivered %d", n.name, len(mine), nodes[0].name, len(order))
		} else {
			for i := range mine {
				if mine[i] != order[i] {
					t.Fatalf("%s and %s disagree on delivery %d", n.name, nodes[0].name, i)
				}
			}
		}
	}

	for i, k := range retained {
		if crc32.ChecksumIEEE(k.buf) != k.crc {
			t.Fatalf("retained buffer %d was written to after it was sent", i)
		}
	}
	if st := net.Stats(); st.MessagesCorrupted == 0 || st.MessagesDuplicated == 0 || st.MessagesReordered == 0 {
		t.Fatalf("the fabric injected no faults: %+v", st)
	}
}

// TestViewSharedAndNeverWritten is the ownership rule for memberships (run
// it with -race): a member makes one Members slice per view it installs and
// hands that slice to every event of the view and to every caller of View,
// so nobody — the member least of all — may write to it afterwards. Two
// members multicast while the group shrinks and grows; a reader per member
// keeps reading the memberships of every event delivered so far, on its own
// goroutine, while the member installs the next view, and notes what each
// view read when it first saw it. At the end every event of a view carries
// the same slice, and every slice still reads what it read then.
func TestViewSharedAndNeverWritten(t *testing.T) {
	net := simnet.New(simnet.WithSeed(41))
	defer net.Close()
	nodes := startGroup(t, net, 3)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	firstRead := make([]map[uint64]string, 2) // per node: view id -> its members at first sight
	for i, n := range nodes[:2] {
		firstRead[i] = make(map[uint64]string)
		readers.Add(1)
		go func(n *node, first map[uint64]string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range n.snapshot() {
					if _, ok := first[e.View.ID]; !ok {
						first[e.View.ID] = fmt.Sprint(e.View.Members)
					}
				}
				if v, err := n.member.View(); err == nil {
					_ = v.Coordinator()
				}
				time.Sleep(time.Millisecond)
			}
		}(n, firstRead[i])
	}

	cast := func(from, count int) {
		for i := 0; i < count; i++ {
			if err := nodes[from].member.Multicast([]byte{byte(i)}, gcs.Agreed, 0, vtime.Ledger{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cast(0, 20)
	cast(1, 20)
	for _, n := range nodes[:2] {
		n.waitMessages(t, 40, 10*time.Second)
	}
	net.Crash("mc")
	nodes[0].waitView(t, []string{"ma", "mb"}, 5*time.Second)
	nodes[1].waitView(t, []string{"ma", "mb"}, 5*time.Second)
	cast(0, 20)
	for _, n := range nodes[:2] {
		n.waitMessages(t, 60, 10*time.Second)
	}
	md := startNode(t, net, "md", []string{"ma"})
	for _, n := range []*node{nodes[0], nodes[1], md} {
		n.waitView(t, []string{"ma", "mb", "md"}, 5*time.Second)
	}
	cast(1, 20)
	for _, n := range nodes[:2] {
		n.waitMessages(t, 80, 10*time.Second)
	}
	time.Sleep(5 * time.Millisecond) // a last pass of the readers over the final view
	close(stop)
	readers.Wait()

	for i, n := range nodes[:2] {
		slices := map[uint64]*string{}
		for _, e := range n.snapshot() {
			if len(e.View.Members) == 0 {
				continue
			}
			if first, ok := slices[e.View.ID]; !ok {
				slices[e.View.ID] = &e.View.Members[0]
			} else if first != &e.View.Members[0] {
				t.Fatalf("%s: two events of view %d carry different membership slices", n.name, e.View.ID)
			}
			if then, now := firstRead[i][e.View.ID], fmt.Sprint(e.View.Members); then != now {
				t.Fatalf("%s: view %d read %s when first delivered and reads %s now", n.name, e.View.ID, then, now)
			}
		}
		if len(slices) < 3 {
			t.Fatalf("%s: delivered events in %d views, want at least the three it went through", n.name, len(slices))
		}
		if v, err := n.member.View(); err != nil || &v.Members[0] != slices[v.ID] {
			t.Fatalf("%s: View() = %v, %v: not the installed view's slice", n.name, v, err)
		}
	}
}

// frameLog wraps an endpoint and keeps every sealed frame sent through it,
// with the checksum it had when it was handed over, and every frame that
// arrived at it.
type frameLog struct {
	transport.MultiEndpoint

	mu        sync.Mutex
	sent      []sentFrame
	multicast int // frames sent to two peers or more in one call
	received  map[string]int
}

type sentFrame struct {
	tos   []string
	frame []byte
	crc   uint32
}

func logFrames(ep transport.MultiEndpoint) *frameLog {
	return &frameLog{MultiEndpoint: ep, received: map[string]int{}}
}

// Serve counts every frame that arrives before fn sees it.
func (l *frameLog) Serve(fn func(transport.Message)) {
	l.MultiEndpoint.Serve(func(m transport.Message) {
		l.mu.Lock()
		l.received[string(m.Payload)]++
		l.mu.Unlock()
		fn(m)
	})
}

func (l *frameLog) record(tos []string, frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent = append(l.sent, sentFrame{tos, frame, crc32.ChecksumIEEE(frame)})
	if len(tos) > 1 {
		l.multicast++
	}
}

func (l *frameLog) Send(to string, frame []byte, at vtime.Time) error {
	l.record([]string{to}, frame)
	return l.MultiEndpoint.Send(to, frame, at)
}

func (l *frameLog) SendMulticast(tos []string, frame []byte, at vtime.Time) error {
	l.record(append([]string(nil), tos...), frame)
	return l.MultiEndpoint.SendMulticast(tos, frame, at)
}

func (l *frameLog) SendControl(to string, frame []byte, at vtime.Time) error {
	l.record([]string{to}, frame)
	return l.MultiEndpoint.SendControl(to, frame, at)
}

// TestTCPMulticastSharesOneSealedFrame is the ownership rule on the live
// transport (run it with -race): three members on loopback TCP, where the
// sequencer hands one sealed frame to SendMulticast for both other members
// and the transport writes that frame from where it lies, behind a header
// of its own, once per peer and from one sender goroutine per peer. The
// frame is never copied, so it must never be written to either: at the end
// every frame each member sent still has the checksum it was sent with and
// still verifies, every multicast frame reached both peers byte for byte,
// and every payload was delivered as sent.
func TestTCPMulticastSharesOneSealedFrame(t *testing.T) {
	names := []string{"ma", "mb", "mc"}
	logs := make([]*frameLog, len(names))
	nodes := make([]*node, len(names))
	peers := map[string]string{} // each endpoint knows those started before it
	for i, name := range names {
		ep, err := tcptransport.Listen(name, "127.0.0.1:0", maps.Clone(peers))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ep.Close() })
		peers[name] = ep.BoundAddr()
		logs[i] = logFrames(ep)
		var seeds []string
		if i > 0 {
			seeds = names[:1]
		}
		nodes[i] = startNodeOn(t, logs[i], name, seeds)
		for _, n := range nodes[:i+1] {
			n.waitView(t, names[:i+1], 10*time.Second)
		}
	}

	const perSender, size = 20, 4096
	sent := map[byte][][]byte{}
	for i := 0; i < perSender; i++ {
		for s, n := range nodes {
			buf := make([]byte, size)
			for j := range buf {
				buf[j] = byte(s*7 + i + j)
			}
			buf[0] = byte('a' + s)
			sent[buf[0]] = append(sent[buf[0]], buf)
			if err := n.member.Multicast(buf, gcs.Agreed, 0, vtime.Ledger{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range nodes {
		next := map[byte]int{}
		for _, e := range n.waitMessages(t, len(nodes)*perSender, 20*time.Second) {
			s := e.Payload[0]
			if next[s] >= len(sent[s]) || !bytes.Equal(e.Payload, sent[s][next[s]]) {
				t.Fatalf("%s: delivery %d from %q differs from what was sent", n.name, next[s], s)
			}
			next[s]++
		}
	}

	byName := map[string]*frameLog{}
	for i, l := range logs {
		byName[names[i]] = l
	}
	multicasts := 0
	for i, l := range logs {
		l.mu.Lock()
		sentFrames := append([]sentFrame(nil), l.sent...)
		multicasts += l.multicast
		l.mu.Unlock()
		for k, f := range sentFrames {
			if crc32.ChecksumIEEE(f.frame) != f.crc {
				t.Fatalf("%s: frame %d was written to after it was sent", names[i], k)
			}
			if _, err := codec.VerifyChecksum(f.frame); err != nil {
				t.Fatalf("%s: frame %d does not verify: %v", names[i], k, err)
			}
			if len(f.tos) < 2 {
				continue
			}
			for _, to := range f.tos {
				if waitReceived(byName[to], f.frame, 5*time.Second) == 0 {
					t.Fatalf("%s: multicast frame %d never reached %s as sent", names[i], k, to)
				}
			}
		}
	}
	if multicasts == 0 {
		t.Fatal("no frame was multicast to two peers")
	}
}

// waitReceived returns how many times l has received frame, waiting up to
// d for the first.
func waitReceived(l *frameLog, frame []byte, d time.Duration) int {
	deadline := time.Now().Add(d)
	for {
		l.mu.Lock()
		n := l.received[string(frame)]
		l.mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
