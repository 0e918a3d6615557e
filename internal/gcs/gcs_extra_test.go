package gcs_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// TestMultipleGroupsShareFabric runs two independent groups on one
// network: traffic must not leak between them (a replica process group
// and the replicator's own state group coexist this way in the paper).
func TestMultipleGroupsShareFabric(t *testing.T) {
	net := simnet.New(simnet.WithSeed(301))
	defer net.Close()

	mkGroup := func(prefix string, n int) []*node {
		nodes := make([]*node, n)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("%s%c", prefix, 'a'+i)
		}
		nodes[0] = startNode(t, net, names[0], nil)
		for i := 1; i < n; i++ {
			nodes[i] = startNode(t, net, names[i], []string{names[0]})
		}
		for _, nd := range nodes {
			nd.waitView(t, names, 5*time.Second)
		}
		return nodes
	}
	g1 := mkGroup("g1-", 2)
	g2 := mkGroup("g2-", 2)

	if err := g1[0].member.Multicast([]byte("for-g1"), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	if err := g2[0].member.Multicast([]byte("for-g2"), gcs.Agreed, 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	m1 := g1[1].waitMessages(t, 1, 5*time.Second)
	m2 := g2[1].waitMessages(t, 1, 5*time.Second)
	if string(m1[0].Payload) != "for-g1" || string(m2[0].Payload) != "for-g2" {
		t.Fatalf("cross-group leak: %q / %q", m1[0].Payload, m2[0].Payload)
	}
	time.Sleep(50 * time.Millisecond)
	if len(g1[1].messages()) != 1 || len(g2[1].messages()) != 1 {
		t.Fatalf("extra deliveries: g1=%d g2=%d", len(g1[1].messages()), len(g2[1].messages()))
	}
}

func TestLargePayloadMulticast(t *testing.T) {
	net := simnet.New(simnet.WithSeed(307))
	defer net.Close()
	nodes := startGroup(t, net, 3)

	payload := make([]byte, 256*1024)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := nodes[0].member.Multicast(payload, gcs.Agreed, 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[1:] {
		msgs := n.waitMessages(t, 1, 10*time.Second)
		if !bytes.Equal(msgs[0].Payload, payload) {
			t.Fatalf("%s: large payload corrupted (%d bytes)", n.name, len(msgs[0].Payload))
		}
	}
	// The virtual transmission time reflects the size: 256 KiB at
	// 12.5 MB/s is ≈ 20 ms of wire time on the slowest hop.
	e := nodes[1].messages()[0]
	if e.Ledger.Of(vtime.ComponentGC) < 15*vtime.Millisecond {
		t.Fatalf("large transfer GC charge %v implausibly small", e.Ledger.Of(vtime.ComponentGC))
	}
}

// TestTotalOrderAcrossSeeds sweeps seeds and loss rates, checking the
// total-order invariant holds in each world: identical delivery sequences
// without duplicates at every member.
func TestTotalOrderAcrossSeeds(t *testing.T) {
	for _, cse := range []struct {
		seed uint64
		loss float64
	}{
		{401, 0}, {402, 0.05}, {403, 0.15}, {404, 0.25},
	} {
		cse := cse
		t.Run(fmt.Sprintf("seed%d-loss%.0f%%", cse.seed, cse.loss*100), func(t *testing.T) {
			t.Parallel()
			net := simnet.New(simnet.WithSeed(cse.seed))
			defer net.Close()
			nodes := startGroup(t, net, 3)
			if cse.loss > 0 {
				net.SetLink("*", "*", transport.Rule{Drop: cse.loss})
			}
			const perSender = 15
			for _, n := range nodes {
				go func(n *node) {
					for i := 0; i < perSender; i++ {
						_ = n.member.Multicast(
							[]byte(fmt.Sprintf("%s/%d", n.name, i)),
							gcs.Agreed, 0, vtime.Ledger{})
					}
				}(n)
			}
			total := perSender * len(nodes)
			var ref []string
			for i, n := range nodes {
				msgs := n.waitMessages(t, total, 30*time.Second)
				seq := make([]string, total)
				seen := make(map[string]bool, total)
				for j, e := range msgs[:total] {
					p := string(e.Payload)
					if seen[p] {
						t.Fatalf("%s: duplicate %q", n.name, p)
					}
					seen[p] = true
					seq[j] = p
				}
				if i == 0 {
					ref = seq
					continue
				}
				for j := range ref {
					if seq[j] != ref[j] {
						t.Fatalf("%s diverged at %d: %q vs %q", n.name, j, seq[j], ref[j])
					}
				}
			}
		})
	}
}

// TestAgreedSeqNumbersAreContiguous checks the exposed sequence numbers:
// strictly increasing by one at every member.
func TestAgreedSeqNumbersAreContiguous(t *testing.T) {
	net := simnet.New(simnet.WithSeed(311))
	defer net.Close()
	nodes := startGroup(t, net, 2)
	for i := 0; i < 10; i++ {
		if err := nodes[0].member.Multicast([]byte{byte(i)}, gcs.Agreed, 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	msgs := nodes[1].waitMessages(t, 10, 5*time.Second)
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Seq != msgs[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", msgs[i-1].Seq, msgs[i].Seq)
		}
	}
}

// TestDeliveryVTimesMonotone checks the virtual-time invariant: delivery
// timestamps never go backwards at a member.
func TestDeliveryVTimesMonotone(t *testing.T) {
	net := simnet.New(simnet.WithSeed(313))
	defer net.Close()
	nodes := startGroup(t, net, 3)
	for _, n := range nodes {
		go func(n *node) {
			for i := 0; i < 20; i++ {
				_ = n.member.Multicast([]byte{1}, gcs.Agreed, vtime.Time(i*1000), vtime.Ledger{})
			}
		}(n)
	}
	for _, n := range nodes {
		msgs := n.waitMessages(t, 60, 15*time.Second)
		var last vtime.Time
		for i, e := range msgs {
			if e.VTime.Before(last) {
				t.Fatalf("%s: delivery vtime regressed at %d: %v < %v", n.name, i, e.VTime, last)
			}
			last = e.VTime
		}
	}
}

// TestMemberStopIsIdempotentAndReleasesOut verifies clean shutdown.
func TestMemberStopIsIdempotentAndReleasesOut(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	n := startNode(t, net, "solo", nil)
	n.waitView(t, []string{"solo"}, time.Second)
	n.member.Stop()
	n.member.Stop() // idempotent
	if err := n.member.Multicast([]byte("x"), gcs.Agreed, 0, vtime.Ledger{}); err != gcs.ErrStopped {
		t.Fatalf("multicast after stop = %v", err)
	}
	if _, err := n.member.View(); err != gcs.ErrStopped {
		t.Fatalf("view after stop = %v", err)
	}
}

// TestStopConcurrent: Stop from several goroutines at once must not panic on
// a double close of the stop channel, for a member and for an external
// client (run with -race).
func TestStopConcurrent(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	n := startNode(t, net, "solo", nil)
	n.waitView(t, []string{"solo"}, time.Second)

	ep, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	cl := gcs.NewClient(d.Conn(transport.ProtoGCS), gcs.DefaultClientConfig([]string{"solo"}), func(gcs.Event) {})
	d.Handle(transport.ProtoGroupClient, cl.HandleTransport)
	d.Start()
	defer d.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			n.member.Stop()
		}()
		go func() {
			defer wg.Done()
			cl.Stop()
		}()
	}
	wg.Wait()
	if err := cl.Submit(transport.CopyBuf(cl.Room(), []byte("x")), 0, vtime.Ledger{}); err != gcs.ErrStopped {
		t.Fatalf("submit after stop = %v", err)
	}
}

// TestViewRankAndContains covers the View helpers.
func TestViewRankAndContains(t *testing.T) {
	v := gcs.View{ID: 3, Members: []string{"a", "b", "c"}}
	if v.Coordinator() != "a" || v.Rank("b") != 1 || v.Rank("zz") != -1 {
		t.Fatalf("view helpers broken: %+v", v)
	}
	if !v.Contains("c") || v.Contains("zz") {
		t.Fatal("Contains broken")
	}
	empty := gcs.View{}
	if empty.Coordinator() != "" {
		t.Fatal("empty coordinator should be empty string")
	}
	for _, lvl := range []gcs.ServiceLevel{gcs.BestEffort, gcs.FIFO, gcs.Causal, gcs.Agreed} {
		if lvl.String() == "unknown" {
			t.Fatalf("level %d has no name", lvl)
		}
	}
	if gcs.ServiceLevel(99).String() != "unknown" {
		t.Fatal("unknown level mis-rendered")
	}
}

// TestFIFOConcurrentSenders checks per-sender order with interleaving.
func TestFIFOConcurrentSenders(t *testing.T) {
	net := simnet.New(simnet.WithSeed(317))
	defer net.Close()
	nodes := startGroup(t, net, 3)
	const per = 20
	for _, n := range nodes[:2] {
		go func(n *node) {
			for i := 0; i < per; i++ {
				_ = n.member.Multicast([]byte(fmt.Sprintf("%s:%d", n.name, i)), gcs.FIFO, 0, vtime.Ledger{})
			}
		}(n)
	}
	msgs := nodes[2].waitMessages(t, 2*per, 15*time.Second)
	next := map[string]int{}
	for _, e := range msgs {
		sender, idxStr, ok := strings.Cut(string(e.Payload), ":")
		if !ok || sender != e.Sender {
			t.Fatalf("bad payload %q from %s", e.Payload, e.Sender)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			t.Fatalf("bad payload %q: %v", e.Payload, err)
		}
		if idx != next[e.Sender] {
			t.Fatalf("FIFO violated for %s: got %d, want %d", e.Sender, idx, next[e.Sender])
		}
		next[e.Sender]++
	}
}
