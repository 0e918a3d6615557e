package interceptor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// fakeWire is a scriptable inner wire for passthrough tests: the test plays
// the transport and pushes replies into the sink bound by the layer above.
type fakeWire struct {
	sent   [][]byte
	sentAt []vtime.Time
	leds   []vtime.Ledger
	sink   orb.ReplySink
	closed bool
}

func newFakeWire() *fakeWire { return &fakeWire{} }

func (w *fakeWire) Room() transport.Room { return transport.Room{} }

func (w *fakeWire) Send(req transport.Buf, sentAt vtime.Time, led vtime.Ledger) error {
	w.sent = append(w.sent, req.Bytes())
	w.sentAt = append(w.sentAt, sentAt)
	w.leds = append(w.leds, led)
	return nil
}

func (w *fakeWire) Bind(sink orb.ReplySink) { w.sink = sink }

func (w *fakeWire) Close() error {
	w.closed = true
	return nil
}

func TestPassthroughChargesBothDirections(t *testing.T) {
	model := vtime.DefaultCostModel()
	inner := newFakeWire()
	pw := NewPassthrough(inner, model)
	defer pw.Close()
	var got []orb.WireReply
	pw.Bind(func(wr orb.WireReply) { got = append(got, wr) })

	var led vtime.Ledger
	if err := pw.Send(transport.CopyBuf(pw.Room(), []byte("req")), vtime.Time(1000), led); err != nil {
		t.Fatal(err)
	}
	if len(inner.sent) != 1 {
		t.Fatalf("sent %d", len(inner.sent))
	}
	if got := inner.sentAt[0]; got != vtime.Time(1000).Add(model.Intercept) {
		t.Fatalf("send vt = %v", got)
	}
	if got := inner.leds[0].Of(vtime.ComponentReplicator); got != model.Intercept {
		t.Fatalf("send charge = %v", got)
	}

	reply := orb.EncodeReply(&orb.Reply{ClientID: "c", ReqID: 1, Status: orb.StatusOK})
	inner.sink(orb.WireReply{Bytes: reply, VTime: vtime.Time(5000)})
	if len(got) != 1 {
		t.Fatalf("passthrough delivered %d replies, want 1", len(got))
	}
	if wr := got[0]; wr.VTime != vtime.Time(5000).Add(model.Intercept) {
		t.Fatalf("recv vt = %v", wr.VTime)
	} else if charge := wr.Ledger.Of(vtime.ComponentReplicator); charge != model.Intercept {
		t.Fatalf("recv charge = %v", charge)
	}
}

func TestPassthroughCloseClosesInner(t *testing.T) {
	inner := newFakeWire()
	pw := NewPassthrough(inner, vtime.DefaultCostModel())
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if !inner.closed {
		t.Fatal("inner wire not closed")
	}
}

// The sink contract (orb.ReplySink) on both interposed wires: a sink that
// re-enters Send from inside the up-call completes, and nothing is
// delivered once Close has returned.
func TestPassthroughSinkContract(t *testing.T) {
	inner := newFakeWire()
	pw := NewPassthrough(inner, vtime.DefaultCostModel())
	delivered := 0
	pw.Bind(func(wr orb.WireReply) {
		delivered++
		if err := pw.Send(transport.CopyBuf(pw.Room(), wr.Bytes), wr.VTime, wr.Ledger); err != nil {
			t.Errorf("Send from inside the sink: %v", err)
		}
	})
	inner.sink(orb.WireReply{Bytes: []byte("r")})
	if delivered != 1 || len(inner.sent) != 1 {
		t.Fatalf("delivered %d, re-sent %d; want 1 and 1", delivered, len(inner.sent))
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	inner.sink(orb.WireReply{Bytes: []byte("late")})
	if delivered != 1 {
		t.Fatal("sink invoked after Close returned")
	}
}

func TestGroupWireSinkContract(t *testing.T) {
	conn := &sendCounter{}
	gcc := gcs.DefaultClientConfig([]string{"m"})
	gcc.ResendInterval = time.Hour // only first transmissions are counted
	w := NewGroupWire(conn, gcc)
	delivered := 0
	w.Bind(func(wr orb.WireReply) {
		delivered++
		// Re-enters GroupWire.Send → GroupClient.Submit: deadlocks if the
		// up-call ran under the wire's or the group client's lock.
		if err := w.Send(mkRequest(w, 2), wr.VTime, wr.Ledger); err != nil {
			t.Errorf("Send from inside the sink: %v", err)
		}
	})
	if err := w.Send(mkRequest(w, 1), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	reply := func(rid uint64) gcs.Event {
		return gcs.Event{Kind: gcs.EventDirect, Sender: "m", Payload: mkReply(rid, "x").Bytes}
	}
	done := make(chan struct{})
	go func() { // a deadlock must fail the test, not hang it
		defer close(done)
		w.deliver(reply(1))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("up-call that re-enters Send did not complete")
	}
	if delivered != 1 || conn.sends.Load() != 2 {
		t.Fatalf("delivered %d, submitted %d; want 1 and 2", delivered, conn.sends.Load())
	}

	// Concurrent closers (run with -race): Close is idempotent and every
	// call returns only after the group client has stopped.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	w.deliver(reply(2))
	if delivered != 1 {
		t.Fatal("sink invoked after Close returned")
	}
	if err := w.Send(mkRequest(w, 3), 0, vtime.Ledger{}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	if n := w.awaitingLen(); n != 0 {
		t.Fatalf("%d entries after Close and a failed Send, want 0", n)
	}
}

// sendCounter is a transport.Conn that only counts data sends.
type sendCounter struct{ sends atomic.Int64 }

func (c *sendCounter) Addr() string                { return "client" }
func (c *sendCounter) Seal(m transport.Buf) []byte { return m.Bytes() }
func (c *sendCounter) Send(string, []byte, vtime.Time) error {
	c.sends.Add(1)
	return nil
}
func (c *sendCounter) SendMulticast([]string, []byte, vtime.Time) error { return nil }
func (c *sendCounter) SendControl(string, []byte, vtime.Time) error     { return nil }

// newFilterWire is a GroupWire's reply filter alone, awaiting rids as if
// Send had submitted them.
func newFilterWire(f ReplyFilter, expected int, rids ...uint64) *GroupWire {
	w := &GroupWire{filter: f, expected: expected, awaiting: make(map[uint64][]ballot)}
	for _, rid := range rids {
		w.awaiting[rid] = nil
	}
	return w
}

func (w *GroupWire) awaitingLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.awaiting)
}

func mkReply(rid uint64, payload string) orb.WireReply {
	return orb.WireReply{
		Bytes: orb.EncodeReply(&orb.Reply{
			ClientID: "c", ReqID: rid, Status: orb.StatusOK,
			ErrMsg: payload, // distinguishes divergent replies bytewise
		}),
		VTime: vtime.Time(rid * 100),
	}
}

// mkRequest is the request the ORB "c" sends as rid.
func mkRequest(w *GroupWire, rid uint64) transport.Buf {
	return transport.CopyBuf(w.Room(), orb.EncodeRequest(&orb.Request{
		ClientID: "c", ReqID: rid, Object: "o", Operation: "op",
	}))
}

func TestFilterFirstDeliversOnceDropsDuplicates(t *testing.T) {
	w := newFilterWire(FilterFirst, 3, 1, 2)
	if _, ok := w.filterReply(mkReply(1, "a"), "ra"); !ok {
		t.Fatal("first reply not delivered")
	}
	if _, ok := w.filterReply(mkReply(1, "a"), "rb"); ok {
		t.Fatal("duplicate delivered")
	}
	if _, ok := w.filterReply(mkReply(1, "b"), "rc"); ok {
		t.Fatal("late divergent duplicate delivered")
	}
	if _, ok := w.filterReply(mkReply(2, "a"), "ra"); !ok {
		t.Fatal("next request's reply blocked")
	}
	if _, ok := w.filterReply(mkReply(3, "a"), "ra"); ok {
		t.Fatal("reply to a request never sent delivered")
	}
}

func TestFilterMajorityWaitsForQuorum(t *testing.T) {
	w := newFilterWire(FilterMajority, 3, 1)
	// Majority of 3 is 2: the first identical pair delivers.
	if _, ok := w.filterReply(mkReply(1, "x"), "ra"); ok {
		t.Fatal("delivered before quorum")
	}
	wr, ok := w.filterReply(mkReply(1, "x"), "rb")
	if !ok {
		t.Fatal("quorum not delivered")
	}
	if _, rid, _ := orb.PeekReplyID(wr.Bytes); rid != 1 {
		t.Fatalf("rid = %d", rid)
	}
	// The third (late) vote is suppressed.
	if _, ok := w.filterReply(mkReply(1, "x"), "rc"); ok {
		t.Fatal("post-quorum duplicate delivered")
	}
}

// A replica replies to one request id more than once: from its reply
// cache when the client ORB retransmits, and on failover when it replays
// its log. Each reply is a new direct frame, so only the vote counts by
// sender keep one replica from making a majority of three on its own.
func TestFilterMajorityCountsEachReplicaOnce(t *testing.T) {
	r := trace.New()
	w := NewGroupWire(&sendCounter{}, gcs.DefaultClientConfig([]string{"ra", "rb", "rc"}),
		WithFilter(FilterMajority), WithExpectedReplies(3), WithGroupTrace(r))
	defer w.Close()
	delivered := 0
	w.Bind(func(orb.WireReply) { delivered++ })
	if err := w.Send(mkRequest(w, 1), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	reply := func(sender string) gcs.Event {
		return gcs.Event{Kind: gcs.EventDirect, Sender: sender, Payload: mkReply(1, "x").Bytes}
	}
	w.deliver(reply("ra"))
	// The ORB retransmits: its entry keeps ra's vote.
	if err := w.Send(mkRequest(w, 1), 0, vtime.Ledger{}); err != nil {
		t.Fatal(err)
	}
	w.deliver(reply("ra"))
	if delivered != 0 {
		t.Fatal("one replica's two replies delivered as a majority of three")
	}
	if got := r.Value(trace.SubInterceptor, "duplicates_suppressed"); got != 1 {
		t.Fatalf("duplicates_suppressed = %d, want 1 (the second reply from ra)", got)
	}
	w.deliver(reply("rb"))
	if delivered != 1 {
		t.Fatalf("delivered %d after a second replica's matching reply, want 1", delivered)
	}
}

func TestFilterMajorityOutvotesDivergentReply(t *testing.T) {
	w := newFilterWire(FilterMajority, 3, 1)
	// A Byzantine-style divergent reply arrives first; it never reaches
	// quorum, the two honest identical ones do.
	if _, ok := w.filterReply(mkReply(1, "evil"), "ra"); ok {
		t.Fatal("single divergent reply delivered")
	}
	if _, ok := w.filterReply(mkReply(1, "good"), "rb"); ok {
		t.Fatal("first honest reply delivered early")
	}
	wr, ok := w.filterReply(mkReply(1, "good"), "rc")
	if !ok {
		t.Fatal("honest quorum blocked")
	}
	rep, err := orb.DecodeReply(wr.Bytes)
	if err != nil || rep.ErrMsg != "good" {
		t.Fatalf("delivered %q, %v", rep.ErrMsg, err)
	}
}

func TestFilterMajorityCarriesSlowestVoterTime(t *testing.T) {
	w := newFilterWire(FilterMajority, 3, 1)
	r1 := mkReply(1, "x")
	r1.VTime = vtime.Time(100)
	r2 := mkReply(1, "x")
	r2.VTime = vtime.Time(900)
	w.filterReply(r1, "ra")
	wr, ok := w.filterReply(r2, "rb")
	if !ok {
		t.Fatal("quorum not reached")
	}
	if wr.VTime != vtime.Time(900) {
		t.Fatalf("voted reply vt = %v, want the slower voter's 900", wr.VTime)
	}
}

func TestFilterMajorityOfFiveNeedsThree(t *testing.T) {
	w := newFilterWire(FilterMajority, 5, 1)
	w.filterReply(mkReply(1, "x"), "ra")
	if _, ok := w.filterReply(mkReply(1, "x"), "rb"); ok {
		t.Fatal("2/5 delivered")
	}
	if _, ok := w.filterReply(mkReply(1, "x"), "rc"); !ok {
		t.Fatal("3/5 not delivered")
	}
}

// The wire keeps state only for the requests it waits on: answering a
// request deletes its entry, however many requests come after it.
func TestFilterKeepsStateOnlyForAwaitedRequests(t *testing.T) {
	w := newFilterWire(FilterFirst, 1)
	for rid := uint64(1); rid <= 1000; rid++ {
		w.awaiting[rid] = nil
		if _, ok := w.filterReply(mkReply(rid, "x"), "ra"); !ok {
			t.Fatalf("reply %d not delivered", rid)
		}
		if n := w.awaitingLen(); n != 0 {
			t.Fatalf("%d entries after answering request %d, want 0", n, rid)
		}
	}
}

// An answered request's reply is never delivered again, whether it comes
// right after the answer or a thousand requests later.
func TestFilterSuppressesRetransmissionOfAnsweredRid(t *testing.T) {
	r := trace.New()
	w := newFilterWire(FilterFirst, 1)
	WithGroupTrace(r)(w)
	for rid := uint64(1); rid <= 1000; rid++ {
		w.awaiting[rid] = nil
		if _, ok := w.filterReply(mkReply(rid, "x"), "ra"); !ok {
			t.Fatalf("fresh reply %d not delivered", rid)
		}
	}
	if _, ok := w.filterReply(mkReply(1, "x"), "ra"); ok {
		t.Fatal("a retransmitted reply for an old rid re-delivered to the client")
	}
	if _, ok := w.filterReply(mkReply(1000, "x"), "ra"); ok {
		t.Fatal("a duplicate of the newest reply re-delivered to the client")
	}
	if got := r.Value(trace.SubInterceptor, "duplicates_suppressed"); got != 2 {
		t.Fatalf("duplicates_suppressed = %d, want 2", got)
	}
	if got := r.Value(trace.SubInterceptor, "replies_delivered"); got != 1000 {
		t.Fatalf("replies_delivered = %d, want 1000", got)
	}
}

// Votes are kept only while the request is awaited: the majority deletes
// them with the entry, so late votes cannot complete a second quorum, and
// Close frees the lonely votes of a request the ORB abandoned.
func TestFilterMajorityDropsVotesOfAnsweredRequests(t *testing.T) {
	w := newFilterWire(FilterMajority, 3, 1)
	// One lonely vote for rid 1: the request is abandoned without quorum.
	w.filterReply(mkReply(1, "x"), "ra")
	for rid := uint64(2); rid <= 600; rid++ {
		w.awaiting[rid] = nil
		w.filterReply(mkReply(rid, "x"), "ra")
		if _, ok := w.filterReply(mkReply(rid, "x"), "rb"); !ok {
			t.Fatalf("quorum for %d not delivered", rid)
		}
		// A late vote for an answered request delivers nothing.
		if _, ok := w.filterReply(mkReply(rid, "x"), "rc"); ok {
			t.Fatalf("late vote for %d delivered", rid)
		}
	}
	if n := w.awaitingLen(); n != 1 {
		t.Fatalf("%d entries, want 1 (the abandoned request)", n)
	}
	w.gc = gcs.NewClient(&sendCounter{}, gcs.DefaultClientConfig([]string{"ra"}), w.deliver)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := w.awaitingLen(); n != 0 {
		t.Fatalf("%d entries after Close, want 0", n)
	}
}

// A reply the group layer re-sends late, after the ORB's other requests
// have been answered, still answers the request waiting for it: how far
// behind the newest answered id it falls does not matter. A late duplicate
// of an answered request stays suppressed, and the table ends empty.
func TestLateReplyToAnAwaitedRequestIsDelivered(t *testing.T) {
	for _, f := range []struct {
		name     string
		filter   ReplyFilter
		replicas []string
	}{
		{"first", FilterFirst, []string{"ra"}},
		{"majority", FilterMajority, []string{"ra", "rb", "rc"}},
	} {
		t.Run(f.name, func(t *testing.T) {
			r := trace.New()
			gcc := gcs.DefaultClientConfig(f.replicas)
			gcc.ResendInterval = time.Hour
			w := NewGroupWire(&sendCounter{}, gcc, WithFilter(f.filter),
				WithExpectedReplies(len(f.replicas)), WithGroupTrace(r))
			defer w.Close()
			var got []uint64
			w.Bind(func(wr orb.WireReply) {
				_, rid, _ := orb.PeekReplyID(wr.Bytes)
				got = append(got, rid)
			})
			answer := func(rid uint64) {
				for _, m := range f.replicas {
					w.deliver(gcs.Event{Kind: gcs.EventDirect, Sender: m, Payload: mkReply(rid, "x").Bytes})
				}
			}
			const n = 300
			for rid := uint64(1); rid <= n; rid++ {
				if err := w.Send(mkRequest(w, rid), 0, vtime.Ledger{}); err != nil {
					t.Fatal(err)
				}
			}
			for rid := uint64(2); rid <= n; rid++ {
				answer(rid)
			}
			if len(got) != n-1 {
				t.Fatalf("%d replies delivered, want %d", len(got), n-1)
			}
			answer(1) // the oldest request's reply, re-sent late
			if len(got) != n || got[n-1] != 1 {
				t.Fatalf("late reply to awaited request 1 not delivered (delivered %d)", len(got))
			}
			answer(1) // and once more: now a duplicate
			answer(n)
			if len(got) != n {
				t.Fatalf("%d replies delivered, want %d: a duplicate went up", len(got), n)
			}
			if m := w.awaitingLen(); m != 0 {
				t.Fatalf("%d entries left, want 0", m)
			}
		})
	}
}

// Answering a request deletes its entry, so the table stays as large as
// the requests in flight and first-response delivery allocates nothing.
func BenchmarkFilterFirstDelivery(b *testing.B) {
	w := newFilterWire(FilterFirst, 1)
	replies := make([]orb.WireReply, 64)
	for i := range replies {
		replies[i] = mkReply(uint64(i+1), "x")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wr := replies[i%len(replies)]
		w.awaiting[uint64(i%len(replies)+1)] = nil
		w.filterReply(wr, "ra")
	}
}

func TestFilterRejectsGarbage(t *testing.T) {
	w := newFilterWire(FilterFirst, 1)
	if _, ok := w.filterReply(orb.WireReply{Bytes: []byte("not viop")}, "ra"); ok {
		t.Fatal("garbage delivered")
	}
}
