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
		if err := w.Send(transport.CopyBuf(w.Room(), wr.Bytes), wr.VTime, wr.Ledger); err != nil {
			t.Errorf("Send from inside the sink: %v", err)
		}
	})
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
	if delivered != 1 || conn.sends.Load() != 1 {
		t.Fatalf("delivered %d, submitted %d; want 1 and 1", delivered, conn.sends.Load())
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
	if err := w.Send(transport.CopyBuf(w.Room(), []byte("req")), 0, vtime.Ledger{}); err == nil {
		t.Fatal("Send after Close succeeded")
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

// filterHarness exercises GroupWire's reply filter directly.
func mkReply(rid uint64, payload string) orb.WireReply {
	return orb.WireReply{
		Bytes: orb.EncodeReply(&orb.Reply{
			ClientID: "c", ReqID: rid, Status: orb.StatusOK,
			ErrMsg: payload, // distinguishes divergent replies bytewise
		}),
		VTime: vtime.Time(rid * 100),
	}
}

func TestFilterFirstDeliversOnceDropsDuplicates(t *testing.T) {
	w := &GroupWire{
		filter:    FilterFirst,
		expected:  3,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
	}
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
}

func TestFilterMajorityWaitsForQuorum(t *testing.T) {
	w := &GroupWire{
		filter:    FilterMajority,
		expected:  3,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
	}
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
	reply := func(sender string) gcs.Event {
		return gcs.Event{Kind: gcs.EventDirect, Sender: sender, Payload: mkReply(1, "x").Bytes}
	}
	w.deliver(reply("ra"))
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
	w := &GroupWire{
		filter:    FilterMajority,
		expected:  3,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
	}
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
	w := &GroupWire{
		filter:    FilterMajority,
		expected:  3,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
	}
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

func TestFilterExpectedRepliesAdjustable(t *testing.T) {
	w := &GroupWire{
		filter:    FilterMajority,
		expected:  5,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
	}
	// Majority of 5 is 3.
	w.filterReply(mkReply(1, "x"), "ra")
	if _, ok := w.filterReply(mkReply(1, "x"), "rb"); ok {
		t.Fatal("2/5 delivered")
	}
	if _, ok := w.filterReply(mkReply(1, "x"), "rc"); !ok {
		t.Fatal("3/5 not delivered")
	}
	// The replicas knob moved down to 1: next request needs one vote.
	w.SetExpectedReplies(1)
	if _, ok := w.filterReply(mkReply(2, "y"), "ra"); !ok {
		t.Fatal("1/1 not delivered")
	}
	// Invalid values are ignored.
	w.SetExpectedReplies(0)
	if _, ok := w.filterReply(mkReply(3, "z"), "ra"); !ok {
		t.Fatal("threshold corrupted by invalid SetExpectedReplies")
	}
}

func TestFilterPrunesOldState(t *testing.T) {
	w := &GroupWire{
		filter:    FilterFirst,
		expected:  1,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
	}
	for rid := uint64(1); rid <= 1000; rid++ {
		w.filterReply(mkReply(rid, "x"), "ra")
	}
	w.mu.Lock()
	n := len(w.delivered)
	w.mu.Unlock()
	if n > 300 {
		t.Fatalf("delivered map grew unbounded: %d entries", n)
	}
}

// Regression: on the seed code the delivered-rid map pruned entries older
// than the 256-rid window, and a retransmitted reply for a pruned rid was
// re-delivered to the client as a duplicate. The ordered window must
// suppress anything below its floor.
func TestFilterSuppressesRetransmissionOfPrunedRid(t *testing.T) {
	r := trace.New()
	w := &GroupWire{
		filter:    FilterFirst,
		expected:  1,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
		floor:     1,
	}
	WithGroupTrace(r)(w)
	for rid := uint64(1); rid <= 1000; rid++ {
		if _, ok := w.filterReply(mkReply(rid, "x"), "ra"); !ok {
			t.Fatalf("fresh reply %d not delivered", rid)
		}
	}
	// rid 1 fell out of the window long ago; a straggling retransmission
	// must be suppressed, not re-delivered.
	if _, ok := w.filterReply(mkReply(1, "x"), "ra"); ok {
		t.Fatal("retransmitted reply for a pruned rid re-delivered to the client")
	}
	if got := r.Value(trace.SubInterceptor, "duplicates_suppressed"); got != 1 {
		t.Fatalf("duplicates_suppressed = %d, want 1", got)
	}
	if got := r.Value(trace.SubInterceptor, "replies_delivered"); got != 1000 {
		t.Fatalf("replies_delivered = %d, want 1000", got)
	}
	if got := r.Value(trace.SubInterceptor, "pruned_rids"); got == 0 {
		t.Fatal("pruned_rids counter never advanced")
	}
	w.mu.Lock()
	n, floor := len(w.delivered), w.floor
	w.mu.Unlock()
	if n > deliveredWindow {
		t.Fatalf("delivered map grew beyond the window: %d entries", n)
	}
	if floor != 1000-deliveredWindow+1 {
		t.Fatalf("floor = %d, want %d", floor, 1000-deliveredWindow+1)
	}
}

// Majority-vote state below the window floor must be pruned too, so a
// stale vote cannot complete a quorum for a long-finished request.
func TestFilterMajorityPrunesStaleVotes(t *testing.T) {
	w := &GroupWire{
		filter:    FilterMajority,
		expected:  3,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
		floor:     1,
	}
	// One lonely vote for rid 1 (never reaches quorum).
	w.filterReply(mkReply(1, "x"), "ra")
	// The run moves far ahead with quorum deliveries.
	for rid := uint64(2); rid <= 600; rid++ {
		w.filterReply(mkReply(rid, "x"), "ra")
		w.filterReply(mkReply(rid, "x"), "rb")
	}
	w.mu.Lock()
	_, staleVotes := w.votes[1]
	w.mu.Unlock()
	if staleVotes {
		t.Fatal("vote state for rid 1 survived far behind the window")
	}
	// Two late votes for rid 1 must not deliver it now.
	if _, ok := w.filterReply(mkReply(1, "x"), "rb"); ok {
		t.Fatal("stale quorum delivered below the floor")
	}
	if _, ok := w.filterReply(mkReply(1, "x"), "rc"); ok {
		t.Fatal("stale quorum delivered below the floor")
	}
}

// The prune path must be O(1) amortized: delivering N replies does work
// linear in N, not quadratic (the seed scanned the whole map per reply).
func BenchmarkFilterFirstDelivery(b *testing.B) {
	w := &GroupWire{
		filter:    FilterFirst,
		expected:  1,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
		floor:     1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.filterReply(mkReply(uint64(i+1), "x"), "ra")
	}
}

func TestFilterRejectsGarbage(t *testing.T) {
	w := &GroupWire{
		filter:    FilterFirst,
		expected:  1,
		delivered: make(map[uint64]bool),
		votes:     make(map[uint64]map[string]orb.WireReply),
	}
	if _, ok := w.filterReply(orb.WireReply{Bytes: []byte("not viop")}, "ra"); ok {
		t.Fatal("garbage delivered")
	}
}
