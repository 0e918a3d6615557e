package gcs_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// node bundles a member with its transport plumbing and an event recorder.
type node struct {
	name   string
	demux  *transport.Demux
	member *gcs.Member

	mu     sync.Mutex
	events []gcs.Event
	notify chan struct{}
	wg     sync.WaitGroup
}

func (n *node) collect() {
	defer n.wg.Done()
	for e := range n.member.Out() {
		n.mu.Lock()
		n.events = append(n.events, e)
		n.mu.Unlock()
		select {
		case n.notify <- struct{}{}:
		default:
		}
	}
}

func (n *node) snapshot() []gcs.Event {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]gcs.Event(nil), n.events...)
}

// messages returns delivered application messages (EventMessage only).
func (n *node) messages() []gcs.Event {
	var out []gcs.Event
	for _, e := range n.snapshot() {
		if e.Kind == gcs.EventMessage {
			out = append(out, e)
		}
	}
	return out
}

func (n *node) waitMessages(t *testing.T, count int, within time.Duration) []gcs.Event {
	t.Helper()
	deadline := time.After(within)
	for {
		if msgs := n.messages(); len(msgs) >= count {
			return msgs
		}
		select {
		case <-n.notify:
		case <-deadline:
			t.Fatalf("%s: timed out with %d/%d messages", n.name, len(n.messages()), count)
		}
	}
}

func (n *node) waitView(t *testing.T, members []string, within time.Duration) gcs.View {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		v, err := n.member.View()
		if err == nil && len(v.Members) == len(members) {
			match := true
			for i := range members {
				if v.Members[i] != members[i] {
					match = false
					break
				}
			}
			if match {
				return v
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: timed out waiting for view %v (have %v, err=%v)", n.name, members, v.Members, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func startNode(t *testing.T, net *simnet.Network, name string, seeds []string) *node {
	t.Helper()
	ep, err := net.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	return startNodeOn(t, ep, name, seeds)
}

// startNodeOn launches a member on ep.
func startNodeOn(t *testing.T, ep transport.MultiEndpoint, name string, seeds []string) *node {
	t.Helper()
	d := transport.NewDemux(ep)
	cfg := gcs.DefaultConfig()
	cfg.Seeds = seeds
	cfg.Seed = uint64(len(name)) + 7
	m := gcs.Open(d.Conn(transport.ProtoGCS), d.Conn(transport.ProtoGroupClient), cfg)
	d.Handle(transport.ProtoGCS, m.HandleTransport)
	d.Start()
	n := &node{name: name, demux: d, member: m, notify: make(chan struct{}, 1)}
	n.wg.Add(1)
	go n.collect()
	t.Cleanup(func() {
		m.Stop()
		n.wg.Wait()
	})
	return n
}

// startGroup launches members named a, b, c... and waits for convergence.
func startGroup(t *testing.T, net *simnet.Network, count int) []*node {
	t.Helper()
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("m%c", 'a'+i)
	}
	nodes := make([]*node, count)
	nodes[0] = startNode(t, net, names[0], nil)
	for i := 1; i < count; i++ {
		nodes[i] = startNode(t, net, names[i], []string{names[0]})
	}
	for _, n := range nodes {
		n.waitView(t, names, 5*time.Second)
	}
	return nodes
}

func TestBootstrapSingleton(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	n := startNode(t, net, "solo", nil)
	v := n.waitView(t, []string{"solo"}, time.Second)
	if v.Coordinator() != "solo" || v.ID != 1 {
		t.Fatalf("bootstrap view = %+v", v)
	}
}

func TestJoinConvergence(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes := startGroup(t, net, 3)
	for _, n := range nodes {
		v, err := n.member.View()
		if err != nil {
			t.Fatal(err)
		}
		if v.Coordinator() != "ma" {
			t.Fatalf("%s coordinator = %s", n.name, v.Coordinator())
		}
	}
}

func TestAgreedTotalOrder(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes := startGroup(t, net, 3)

	const perSender = 30
	for _, n := range nodes {
		go func(n *node) {
			for i := 0; i < perSender; i++ {
				payload := []byte(fmt.Sprintf("%s-%d", n.name, i))
				if err := n.member.Multicast(payload, gcs.Agreed, 0, vtime.Ledger{}); err != nil {
					t.Errorf("%s multicast: %v", n.name, err)
					return
				}
			}
		}(n)
	}

	total := perSender * len(nodes)
	var sequences [][]string
	for _, n := range nodes {
		msgs := n.waitMessages(t, total, 10*time.Second)
		seq := make([]string, 0, total)
		for _, e := range msgs {
			seq = append(seq, string(e.Payload))
		}
		sequences = append(sequences, seq)
	}
	for i := 1; i < len(sequences); i++ {
		if len(sequences[i]) != len(sequences[0]) {
			t.Fatalf("length mismatch: %d vs %d", len(sequences[i]), len(sequences[0]))
		}
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("order diverged at %d: %q vs %q", j, sequences[i][j], sequences[0][j])
			}
		}
	}
}

func TestAgreedUnderMessageLoss(t *testing.T) {
	net := simnet.New(simnet.WithSeed(11))
	defer net.Close()
	nodes := startGroup(t, net, 3)
	// 15% loss on every link.
	net.SetLink("*", "*", transport.Rule{Drop: 0.15})

	const perSender = 20
	for _, n := range nodes {
		go func(n *node) {
			for i := 0; i < perSender; i++ {
				payload := []byte(fmt.Sprintf("%s-%d", n.name, i))
				_ = n.member.Multicast(payload, gcs.Agreed, 0, vtime.Ledger{})
			}
		}(n)
	}
	total := perSender * len(nodes)
	var first []string
	for i, n := range nodes {
		msgs := n.waitMessages(t, total, 20*time.Second)
		seq := make([]string, 0, total)
		for _, e := range msgs[:total] {
			seq = append(seq, string(e.Payload))
		}
		if i == 0 {
			first = seq
			continue
		}
		for j := range first {
			if seq[j] != first[j] {
				t.Fatalf("order diverged under loss at %d: %q vs %q", j, seq[j], first[j])
			}
		}
	}
	// No duplicates.
	seen := make(map[string]bool)
	for _, s := range first {
		if seen[s] {
			t.Fatalf("duplicate delivery %q", s)
		}
		seen[s] = true
	}
}

// TestFIFOOrderUnderLoss: agreed delivery keeps each sender's order — one
// sender's messages reach every other member in the order they were sent,
// at 20 % loss on every link.
func TestFIFOOrderUnderLoss(t *testing.T) {
	net := simnet.New(simnet.WithSeed(13))
	defer net.Close()
	nodes := startGroup(t, net, 3)
	net.SetLink("*", "*", transport.Rule{Drop: 0.2})

	const count = 40
	go func() {
		for i := 0; i < count; i++ {
			_ = nodes[0].member.Multicast([]byte(fmt.Sprintf("f-%d", i)), gcs.Agreed, 0, vtime.Ledger{})
		}
	}()
	for _, n := range nodes[1:] {
		msgs := n.waitMessages(t, count, 20*time.Second)
		for i, e := range msgs[:count] {
			want := fmt.Sprintf("f-%d", i)
			if string(e.Payload) != want {
				t.Fatalf("%s: position %d = %q, want %q", n.name, i, e.Payload, want)
			}
		}
	}
}

// TestMulticastRejectsOtherLevels: Agreed is the one service level; any
// other is refused, not quietly served as agreed.
func TestMulticastRejectsOtherLevels(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	n := startNode(t, net, "solo", nil)
	n.waitView(t, []string{"solo"}, time.Second)
	for _, lvl := range []gcs.ServiceLevel{0, 1, 2, 3, 5} {
		if err := n.member.Multicast([]byte("x"), lvl, 0, vtime.Ledger{}); !errors.Is(err, gcs.ErrServiceLevel) {
			t.Fatalf("multicast at level %d = %v, want ErrServiceLevel", lvl, err)
		}
	}
	// Nothing refused went out: the next agreed message is the first one.
	if err := n.member.Multicast([]byte("agreed"), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	if msgs := n.waitMessages(t, 1, 5*time.Second); string(msgs[0].Payload) != "agreed" || msgs[0].Seq != 1 {
		t.Fatalf("first delivery %q at seq %d, want \"agreed\" at 1", msgs[0].Payload, msgs[0].Seq)
	}
}

func TestBackupCrashTriggersViewChange(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes := startGroup(t, net, 3)

	net.Crash("mc")
	nodes[0].waitView(t, []string{"ma", "mb"}, 5*time.Second)
	nodes[1].waitView(t, []string{"ma", "mb"}, 5*time.Second)

	// The group still works.
	if err := nodes[0].member.Multicast([]byte("after"), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	msgs := nodes[1].waitMessages(t, 1, 5*time.Second)
	if string(msgs[len(msgs)-1].Payload) != "after" {
		t.Fatalf("post-crash delivery = %q", msgs[len(msgs)-1].Payload)
	}
}

func TestCoordinatorCrashRecovery(t *testing.T) {
	net := simnet.New(simnet.WithSeed(23))
	defer net.Close()
	nodes := startGroup(t, net, 3)

	// Traffic before the crash.
	for i := 0; i < 10; i++ {
		if err := nodes[1].member.Multicast([]byte(fmt.Sprintf("pre-%d", i)), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].waitMessages(t, 10, 10*time.Second)
	nodes[2].waitMessages(t, 10, 10*time.Second)

	// Kill the sequencer.
	net.Crash("ma")
	nodes[1].waitView(t, []string{"mb", "mc"}, 5*time.Second)
	nodes[2].waitView(t, []string{"mb", "mc"}, 5*time.Second)

	// mb is the new sequencer; agreed traffic must flow again.
	for i := 0; i < 5; i++ {
		if err := nodes[2].member.Multicast([]byte(fmt.Sprintf("post-%d", i)), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	m1 := nodes[1].waitMessages(t, 15, 10*time.Second)
	m2 := nodes[2].waitMessages(t, 15, 10*time.Second)
	for i := range m1 {
		if string(m1[i].Payload) != string(m2[i].Payload) {
			t.Fatalf("diverged at %d: %q vs %q", i, m1[i].Payload, m2[i].Payload)
		}
	}
}

func TestSubmissionSurvivesSequencerCrash(t *testing.T) {
	net := simnet.New(simnet.WithSeed(29))
	defer net.Close()
	nodes := startGroup(t, net, 3)

	// Cut mb's submissions off from the sequencer, submit, then crash the
	// sequencer: the pending submission must be resubmitted to the new
	// sequencer and delivered exactly once.
	net.SetLink("mb", "ma", transport.Rule{Drop: 1.0})
	if err := nodes[1].member.Multicast([]byte("survivor"), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	net.Crash("ma")
	nodes[1].waitView(t, []string{"mb", "mc"}, 5*time.Second)

	msgs := nodes[2].waitMessages(t, 1, 10*time.Second)
	count := 0
	for _, e := range msgs {
		if string(e.Payload) == "survivor" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("survivor delivered %d times", count)
	}
}

// TestVirtualSynchrony checks that all survivors observe the view change at
// the same position in the agreed stream.
func TestVirtualSynchrony(t *testing.T) {
	net := simnet.New(simnet.WithSeed(31))
	defer net.Close()
	nodes := startGroup(t, net, 3)

	stopSend := make(chan struct{})
	var sent sync.WaitGroup
	sent.Add(1)
	go func() {
		defer sent.Done()
		i := 0
		for {
			select {
			case <-stopSend:
				return
			default:
			}
			_ = nodes[1].member.Multicast([]byte(fmt.Sprintf("s-%d", i)), gcs.Agreed, 0, vtime.Ledger{})
			i++
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(30 * time.Millisecond)
	net.Crash("ma")
	nodes[1].waitView(t, []string{"mb", "mc"}, 5*time.Second)
	time.Sleep(50 * time.Millisecond)
	close(stopSend)
	sent.Wait()
	time.Sleep(200 * time.Millisecond)

	// Find, for each survivor, the payloads delivered before the
	// mb/mc view; they must be identical sets in identical order.
	cut := func(n *node) []string {
		var out []string
		for _, e := range n.snapshot() {
			if e.Kind == gcs.EventView && !e.View.Contains("ma") {
				break
			}
			if e.Kind == gcs.EventMessage {
				out = append(out, string(e.Payload))
			}
		}
		return out
	}
	b, c := cut(nodes[1]), cut(nodes[2])
	if len(b) != len(c) {
		t.Fatalf("pre-view prefixes differ in length: %d vs %d", len(b), len(c))
	}
	for i := range b {
		if b[i] != c[i] {
			t.Fatalf("pre-view prefix diverged at %d: %q vs %q", i, b[i], c[i])
		}
	}
}

func TestExternalClientSubmitAndReply(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes := startGroup(t, net, 3)

	ep, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	cc := gcs.DefaultClientConfig([]string{"ma", "mb", "mc"})
	directs := make(chan gcs.Event, 8) // room for every delivery: the handler must not block
	cl := gcs.NewClient(d.Conn(transport.ProtoGCS), cc, func(e gcs.Event) { directs <- e })
	d.Handle(transport.ProtoGroupClient, cl.HandleTransport)
	d.Start()
	defer cl.Stop()

	if err := cl.Submit(transport.CopyBuf(cl.Room(), []byte("request-1")), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	// All members deliver the client's submission in the agreed stream.
	for _, n := range nodes {
		msgs := n.waitMessages(t, 1, 5*time.Second)
		if string(msgs[0].Payload) != "request-1" || msgs[0].Sender != "client" {
			t.Fatalf("%s got %+v", n.name, msgs[0])
		}
	}
	// A member replies directly.
	if err := nodes[1].member.SendDirect("client", transport.CopyBuf(nodes[1].member.DirectRoom(), []byte("reply-1")), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-directs:
		if e.Kind != gcs.EventDirect || string(e.Payload) != "reply-1" || e.Sender != "mb" {
			t.Fatalf("client got %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client reply timed out")
	}
}

func TestExternalClientWrongHint(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes := startGroup(t, net, 3)
	_ = nodes

	ep, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	// Hint points at a backup, not the coordinator: submission must be
	// forwarded and a view hint returned.
	cc := gcs.DefaultClientConfig([]string{"mc"})
	cl := gcs.NewClient(d.Conn(transport.ProtoGCS), cc, func(gcs.Event) {})
	d.Handle(transport.ProtoGroupClient, cl.HandleTransport)
	d.Start()
	defer cl.Stop()

	if err := cl.Submit(transport.CopyBuf(cl.Room(), []byte("via-backup")), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	msgs := nodes[0].waitMessages(t, 1, 5*time.Second)
	if string(msgs[0].Payload) != "via-backup" {
		t.Fatalf("got %q", msgs[0].Payload)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := cl.Members()
		if len(m) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client hint not corrected: %v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClientSubmitRetransmitsThroughCoordinatorCrash(t *testing.T) {
	net := simnet.New(simnet.WithSeed(37))
	defer net.Close()
	nodes := startGroup(t, net, 3)

	ep, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	cc := gcs.DefaultClientConfig([]string{"ma", "mb", "mc"})
	cl := gcs.NewClient(d.Conn(transport.ProtoGCS), cc, func(gcs.Event) {})
	d.Handle(transport.ProtoGroupClient, cl.HandleTransport)
	d.Start()
	defer cl.Stop()

	// Crash the coordinator, then submit while the view change runs.
	net.Crash("ma")
	if err := cl.Submit(transport.CopyBuf(cl.Room(), []byte("during-change")), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	msgs := nodes[1].waitMessages(t, 1, 10*time.Second)
	found := 0
	for _, e := range msgs {
		if string(e.Payload) == "during-change" {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("during-change delivered %d times", found)
	}
}

func TestAgreedLedgerAndVTime(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes := startGroup(t, net, 2)

	var led vtime.Ledger
	led.Charge(vtime.ComponentORB, 100*vtime.Microsecond)
	if err := nodes[0].member.Multicast([]byte("x"), gcs.Agreed, vtime.Time(1000), led); err != nil {
		t.Fatal(err)
	}
	msgs := nodes[1].waitMessages(t, 1, 5*time.Second)
	e := msgs[0]
	if e.Ledger.Of(vtime.ComponentORB) != 100*vtime.Microsecond {
		t.Fatalf("ORB charge lost: %v", e.Ledger.Of(vtime.ComponentORB))
	}
	if e.Ledger.Of(vtime.ComponentGC) <= 0 {
		t.Fatal("no GC charge accumulated")
	}
	if !e.VTime.After(vtime.Time(1000)) {
		t.Fatalf("delivery vtime %v not after send", e.VTime)
	}
}

func TestGracefulLeave(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes := startGroup(t, net, 3)
	nodes[2].member.Leave()
	nodes[0].waitView(t, []string{"ma", "mb"}, 5*time.Second)
	nodes[1].waitView(t, []string{"ma", "mb"}, 5*time.Second)
}

func TestJoinAfterTraffic(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	nodes := startGroup(t, net, 2)
	for i := 0; i < 5; i++ {
		if err := nodes[0].member.Multicast([]byte(fmt.Sprintf("old-%d", i)), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].waitMessages(t, 5, 5*time.Second)

	late := startNode(t, net, "mz", []string{"ma"})
	late.waitView(t, []string{"ma", "mb", "mz"}, 5*time.Second)

	// New traffic reaches the joiner; old traffic does not (it joined
	// after the cut).
	if err := nodes[0].member.Multicast([]byte("new-0"), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	msgs := late.waitMessages(t, 1, 5*time.Second)
	if string(msgs[0].Payload) != "new-0" {
		t.Fatalf("joiner got %q", msgs[0].Payload)
	}
	// And dedup watermarks were inherited: a duplicate of an old
	// submission must not be re-sequenced (indirectly verified by new-0
	// being the joiner's first and only message).
	if len(late.messages()) != 1 {
		t.Fatalf("joiner delivered %d messages", len(late.messages()))
	}
}
