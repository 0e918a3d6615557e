package gcs

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// The tests below drive members and a client over recording conns against a
// hand-moved clock: every frame is carried from one side to the other by the
// test, so what is on the wire, and when, is exact.

// deferConfig is quietConfig (the member's own ticker never fires) with a
// ResendInterval twice the tick, so a hand-driven tick settles what is owed
// without also retransmitting, and no suspicion however far the clock is
// moved.
func deferConfig() Config {
	cfg := quietConfig()
	cfg.ResendInterval = 2 * cfg.HBInterval
	cfg.SuspectAfter = 1 << 20 * time.Hour
	return cfg
}

// rig is one member with its two conns and its clock.
type rig struct {
	t           *testing.T
	m           *Member
	conn, xconn *recConn
	clock       time.Time // touched on the member's goroutine only
}

// openRig starts member addr with view installed by hand.
func openRig(t *testing.T, cfg Config, addr string, view ...string) *rig {
	t.Helper()
	r := &rig{t: t, conn: &recConn{addr: addr}, xconn: &recConn{addr: addr}, clock: time.Unix(1000, 0)}
	r.m = Open(r.conn, r.xconn, cfg)
	t.Cleanup(r.m.Stop)
	r.do(func() {
		r.m.now = func() time.Time { return r.clock }
		r.m.view = View{ID: 1, Members: view}
		r.m.resetPerViewState()
	})
	return r
}

func (r *rig) do(fn func()) {
	r.t.Helper()
	if err := r.m.do(fn); err != nil {
		r.t.Fatal(err)
	}
}

func (r *rig) tick(advance time.Duration) {
	r.t.Helper()
	r.do(func() { r.clock = r.clock.Add(advance); r.m.tick() })
}

// deliver hands the member a frame another party sent, as the transport
// would: unsealed, with from as the transport-level sender.
func (r *rig) deliver(from string, s recSend) {
	r.t.Helper()
	msg := transport.Message{From: from, To: r.m.Addr(), Payload: unseal(r.t, s)}
	r.do(func() { r.m.handleMessage(msg) })
}

func (r *rig) sendDirect(to string, payload []byte) {
	r.t.Helper()
	if err := r.m.SendDirect(to, transport.CopyBuf(r.m.DirectRoom(), payload), 0, vtime.Ledger{}); err != nil {
		r.t.Fatal(err)
	}
}

// frames decodes what conn was asked to send of the given kind.
func frames(t *testing.T, conn *recConn, kind frameKind) []*frame {
	t.Helper()
	var out []*frame
	for _, s := range conn.sends(t, kind) {
		out = append(out, decodeSent(t, s))
	}
	return out
}

// unacked lists the direct frames m still retains for peer.
func (r *rig) unacked(peer string) []uint64 {
	var out []uint64
	r.do(func() {
		out = r.m.directUnack[peer].retained()
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ackStep is one move in a direct-stream scenario between sender "a" and
// receiver "b"; acks is how many kDirectAck frames b has sent once it is
// made.
type ackStep struct {
	deliver uint64 // a's frame with this OSeq reaches b (0: none)
	tick    bool   // b's tick comes round
	lose    bool   // every ack b has sent so far is lost on its way to a
	acks    int
}

func deliverRange(from, to uint64) []ackStep {
	var out []ackStep
	for i := from; i <= to; i++ {
		out = append(out, ackStep{deliver: i})
	}
	return out
}

// TestMemberAcksDirectFramesTogether: a member answers direct frames from
// another member with one acknowledgement per tick — watermark plus the
// arrivals above a gap — or sooner when the sender is holding too much or
// is already retransmitting, and the sender clears exactly what was named.
func TestMemberAcksDirectFramesTogether(t *testing.T) {
	cases := []struct {
		name    string
		frames  int // how many a sends
		size    int // payload bytes of each
		steps   []ackStep
		seq     uint64   // Seq of b's last ack
		seqs    []uint64 // Seqs of b's last ack
		unacked []uint64 // what a retains after the acks that were not lost
	}{
		{"a burst inside one tick earns one ack", 5, 100,
			append(deliverRange(1, 5), ackStep{tick: true, acks: 1}, ackStep{tick: true, acks: 1}),
			5, nil, nil},
		{"arrivals above a gap are named one by one", 4, 100,
			[]ackStep{{deliver: 1}, {deliver: 2}, {deliver: 4}, {tick: true, acks: 1}},
			2, []uint64{4}, []uint64{3}},
		{"a filled gap folds into the watermark", 3, 100,
			[]ackStep{{deliver: 1}, {deliver: 3}, {tick: true, acks: 1}, {deliver: 2, acks: 1}, {tick: true, acks: 2}},
			3, nil, nil},
		{"a lost ack is covered by the next", 3, 100,
			[]ackStep{{deliver: 1}, {deliver: 2}, {tick: true, acks: 1}, {lose: true, acks: 1}, {deliver: 3, acks: 1}, {tick: true, acks: 2}},
			3, nil, nil},
		{"a duplicate is acked at once", 1, 100,
			[]ackStep{{deliver: 1}, {tick: true, acks: 1}, {deliver: 1, acks: 2}},
			1, nil, nil},
		{"the byte bound pays before the tick", 3, 12 << 10,
			[]ackStep{{deliver: 1}, {deliver: 2}, {deliver: 3, acks: 1}},
			3, nil, nil},
		{"a frame above the byte bound is acked alone", 2, 64 << 10,
			[]ackStep{{deliver: 1, acks: 1}, {deliver: 2, acks: 2}},
			2, nil, nil},
		{"the frame bound pays before the tick", ackOwedFrames, 1,
			append(deliverRange(1, ackOwedFrames-1), ackStep{deliver: ackOwedFrames, acks: 1}),
			ackOwedFrames, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := deferConfig()
			a := openRig(t, cfg, "a", "a", "b")
			b := openRig(t, cfg, "b", "a", "b")
			for i := 0; i < tc.frames; i++ {
				a.sendDirect("b", make([]byte, tc.size))
			}
			sent := a.xconn.sends(t, kDirect)
			lost := 0
			for i, st := range tc.steps {
				if st.deliver > 0 {
					b.deliver("a", sent[st.deliver-1])
				}
				if st.tick {
					b.tick(cfg.HBInterval)
				}
				got := len(b.conn.sends(t, kDirectAck))
				if st.lose {
					lost = got
				}
				if got != st.acks {
					t.Fatalf("step %d %+v: b has sent %d acks, want %d", i, st, got, st.acks)
				}
				// Paid the moment the bound is reached: what b sits on is
				// under the bound between frames, so never above it by more
				// than the frame that reaches it.
				var owedBytes int
				b.do(func() { owedBytes = b.m.ackOwed["a"].bytes })
				if owedBytes >= ackOwedBytes {
					t.Fatalf("step %d: b sits on acks for %d payload bytes, bound %d", i, owedBytes, ackOwedBytes)
				}
			}
			acks := b.conn.sends(t, kDirectAck)
			last := frames(t, b.conn, kDirectAck)[len(acks)-1]
			if last.Seq != tc.seq || !reflect.DeepEqual(append([]uint64(nil), last.Seqs...), tc.seqs) || last.OSeq != 0 {
				t.Fatalf("last ack: Seq %d Seqs %v OSeq %d, want Seq %d Seqs %v", last.Seq, last.Seqs, last.OSeq, tc.seq, tc.seqs)
			}
			for _, s := range acks[lost:] {
				if s.to != "a" {
					t.Fatalf("ack addressed to %q", s.to)
				}
				a.deliver("b", s)
			}
			if got := a.unacked("b"); !reflect.DeepEqual(got, tc.unacked) {
				t.Fatalf("a still retains %v, want %v", got, tc.unacked)
			}
		})
	}
}

// TestPerFrameDirectAckClearsOneFrame: the acknowledgement an external
// client sends (and a member of the parent commit sent) names one frame by
// OSeq with no watermark, and clears that frame only.
func TestPerFrameDirectAckClearsOneFrame(t *testing.T) {
	a := openRig(t, deferConfig(), "a", "a")
	for i := 0; i < 3; i++ {
		a.sendDirect("client", []byte("reply"))
	}
	ack := encodeFrame(&frame{Kind: kDirectAck, Origin: "client", OSeq: 2})
	a.do(func() { a.m.handleMessage(transport.Message{From: "client", To: "a", Payload: ack}) })
	if got := a.unacked("client"); !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Fatalf("after an ack of frame 2 alone a retains %v, want [1 3]", got)
	}
}

// clientRig is a GroupClient on a recording conn with a hand-moved clock.
type clientRig struct {
	t     *testing.T
	c     *GroupClient
	cfg   ClientConfig
	conn  *recConn
	clock time.Time // touched under c.mu only
}

func openClientRig(t *testing.T, members ...string) *clientRig {
	t.Helper()
	r := &clientRig{t: t, conn: &recConn{addr: "client"}, clock: time.Unix(1000, 0)}
	r.cfg = DefaultClientConfig(members)
	r.cfg.ResendInterval = 2 * time.Hour // the client's own ticker stays out of the way
	r.c = NewClient(r.conn, r.cfg, func(Event) {})
	t.Cleanup(r.c.Stop)
	r.c.mu.Lock()
	r.c.now = func() time.Time { return r.clock }
	r.c.mu.Unlock()
	return r
}

func (r *clientRig) submit(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if err := r.c.Submit(transport.CopyBuf(r.c.Room(), []byte("request")), 0, vtime.Ledger{}); err != nil {
			r.t.Fatal(err)
		}
	}
}

func (r *clientRig) tick(advance time.Duration) {
	r.c.mu.Lock()
	r.clock = r.clock.Add(advance)
	r.c.tick()
	r.c.mu.Unlock()
}

func (r *clientRig) deliver(from string, s recSend) {
	r.t.Helper()
	r.c.HandleTransport(transport.Message{From: from, To: "client", Payload: unseal(r.t, s)})
}

func (r *clientRig) pending() int {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	return len(r.c.pending)
}

// mustStaySilent ticks the client a whole ResendInterval on and checks it
// re-sent nothing.
func (r *clientRig) mustStaySilent(sent int) {
	r.t.Helper()
	r.tick(r.cfg.ResendInterval)
	if got := len(r.conn.sends(r.t, kData)); got != sent {
		r.t.Fatalf("client transmitted %d submissions, want the %d first transmissions only", got, sent)
	}
}

// TestReplyAcknowledgesRequest: the reply is the acknowledgement. A kDirect
// to an external client says how far its submissions are sequenced, the
// client stops retransmitting on it, and no kDataAck is sent at all.
func TestReplyAcknowledgesRequest(t *testing.T) {
	cfg := deferConfig()
	a := openRig(t, cfg, "a", "a")
	c := openClientRig(t, "a")

	c.submit(1)
	a.deliver("client", c.conn.sends(t, kData)[0])
	a.sendDirect("client", []byte("reply"))
	reply := frames(t, a.xconn, kDirect)
	if len(reply) != 1 || reply[0].Seq != 1 {
		t.Fatalf("reply frames %v: want one, carrying sequenced-through 1", reply)
	}
	c.deliver("a", a.xconn.sends(t, kDirect)[0])
	if n := c.pending(); n != 0 {
		t.Fatalf("client still holds %d submissions after the reply", n)
	}
	if acks := c.conn.sends(t, kDirectAck); len(acks) != 1 {
		t.Fatalf("client sent %d acks for one reply, want 1", len(acks))
	}
	a.tick(cfg.HBInterval)
	if n := len(a.xconn.sends(t, kDataAck)); n != 0 {
		t.Fatalf("%d kDataAck frames on the wire, want none: the reply carried it", n)
	}
	c.mustStaySilent(1)
}

// TestDataAckWaitsOneTickForAReply: with no reply leaving, the sequencer
// pays what it owes at its next tick, in one frame for every submission so
// far — half a ResendInterval at most, so the client never retransmits.
func TestDataAckWaitsOneTickForAReply(t *testing.T) {
	cfg := deferConfig()
	a := openRig(t, cfg, "a", "a")
	c := openClientRig(t, "a")

	c.submit(3)
	for _, s := range c.conn.sends(t, kData) {
		a.deliver("client", s)
	}
	if n := len(a.xconn.sends(t, kDataAck)); n != 0 {
		t.Fatalf("%d kDataAck frames at sequencing time, want none", n)
	}
	a.tick(cfg.HBInterval)
	acks := frames(t, a.xconn, kDataAck)
	if len(acks) != 1 || acks[0].OSeq != 3 {
		t.Fatalf("after one tick: %d kDataAck frames %v, want one acknowledging through 3", len(acks), acks)
	}
	if tick, resend := DefaultConfig().HBInterval, DefaultClientConfig(nil).ResendInterval; 2*tick > resend {
		t.Fatalf("the default tick (%v) is not inside half the client's default resend interval (%v)", tick, resend)
	}
	c.deliver("a", a.xconn.sends(t, kDataAck)[0])
	if n := c.pending(); n != 0 {
		t.Fatalf("client still holds %d submissions after a cumulative ack", n)
	}
	c.mustStaySilent(3)
	a.tick(cfg.HBInterval)
	if n := len(a.xconn.sends(t, kDataAck)); n != 1 {
		t.Fatalf("a paid debt was paid again: %d kDataAck frames", n)
	}
}

// TestDuplicateSubmissionIsAckedAtOnce: a retransmitted kData means the
// client is timing out, and is not made to wait for the tick.
func TestDuplicateSubmissionIsAckedAtOnce(t *testing.T) {
	a := openRig(t, deferConfig(), "a", "a")
	c := openClientRig(t, "a")
	c.submit(1)
	data := c.conn.sends(t, kData)[0]
	a.deliver("client", data)
	a.deliver("client", data)
	acks := frames(t, a.xconn, kDataAck)
	if len(acks) != 1 || acks[0].OSeq != 1 {
		t.Fatalf("duplicate submission drew %d kDataAck frames %v, want one for 1", len(acks), acks)
	}
}

// TestForwardedSubmissionIsClearedByTheReply: a submission sent to a member
// that is not the sequencer is forwarded, the client is taught the view,
// and the reply still does the acknowledging.
func TestForwardedSubmissionIsClearedByTheReply(t *testing.T) {
	cfg := deferConfig()
	a := openRig(t, cfg, "a", "a", "b")
	b := openRig(t, cfg, "b", "a", "b")
	c := openClientRig(t, "b")

	c.submit(1)
	b.deliver("client", c.conn.sends(t, kData)[0])
	hints, fwd := b.xconn.sends(t, kViewHint), b.conn.sends(t, kData)
	if len(hints) != 1 || hints[0].to != "client" || len(fwd) != 1 || fwd[0].to != "a" {
		t.Fatalf("misdirected submission: %d hints, %d forwards", len(hints), len(fwd))
	}
	c.deliver("b", hints[0])
	if got := c.c.Members(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("client's view after the hint: %v", got)
	}
	a.deliver("b", fwd[0])
	a.sendDirect("client", []byte("reply"))
	c.deliver("a", a.xconn.sends(t, kDirect)[0])
	if n := c.pending(); n != 0 {
		t.Fatalf("client still holds %d submissions after the reply", n)
	}
	a.tick(cfg.HBInterval)
	if n := len(a.xconn.sends(t, kDataAck)); n != 0 {
		t.Fatalf("%d kDataAck frames on the wire, want none", n)
	}
}

// TestTickWithNothingOwedAllocatesNothing: the deferred-ack settlement runs
// on every tick of every member and must cost nothing when idle — before
// anything was ever owed, and after a debt has been paid.
func TestTickWithNothingOwedAllocatesNothing(t *testing.T) {
	cfg := deferConfig()
	a := openRig(t, cfg, "a", "a", "b")
	b := openRig(t, cfg, "b", "a", "b")
	idle := func(when string) {
		t.Helper()
		var allocs float64
		b.do(func() { allocs = testing.AllocsPerRun(100, b.m.payOwedAcks) })
		if allocs != 0 {
			t.Errorf("%s: settling nothing allocates %v times", when, allocs)
		}
	}
	idle("fresh")
	a.sendDirect("b", []byte("state"))
	b.deliver("a", a.xconn.sends(t, kDirect)[0])
	b.tick(cfg.HBInterval)
	idle("after a payment")
	if n := len(b.conn.sends(t, kDirectAck)); n != 1 {
		t.Errorf("%d acks sent for one frame", n)
	}
}

// TestExcludedMemberIsNotRetransmittedTo: a backup crashes with state
// frames in flight. Until a view excludes it the frames are retransmitted;
// once one does they are dropped with whatever was owed to it, the
// retransmit counter and the queue stop moving, the per-peer counters
// survive for a re-admission, and an external client's frame stays.
func TestExcludedMemberIsNotRetransmittedTo(t *testing.T) {
	cfg := deferConfig()
	cfg.Trace = trace.New()
	a := openRig(t, cfg, "a", "a", "b", "c")
	retransmits := func() int64 { return cfg.Trace.Counter(trace.SubGCS, "retransmits").Load() }

	for i := 0; i < 3; i++ {
		a.sendDirect("c", make([]byte, 64<<10))
	}
	a.sendDirect("client", []byte("reply"))
	a.tick(cfg.ResendInterval)
	if got := retransmits(); got != 4 {
		t.Fatalf("before the view change: %d retransmissions, want 4", got)
	}

	// Something c sent before it died arrives, and is owed an ack.
	fromC := encodeFrame(&frame{Kind: kDirect, Origin: "c", OSeq: 1, Payload: []byte("chunk")})
	a.do(func() {
		a.m.handleMessage(transport.Message{From: "c", To: "a", Payload: fromC})
		a.m.installJoinedView(&frame{Kind: kView, ViewID: 2, Seq: a.m.nextDeliver, Members: []string{"a", "b"}}, false)
	})
	toC := func() (n int) {
		for _, s := range a.xconn.sends(t, kDirect) {
			if s.to == "c" {
				n++
			}
		}
		return n
	}
	sentToC := toC()
	for i := 1; i <= 3; i++ {
		a.tick(cfg.ResendInterval)
		if got := retransmits(); got != int64(4+i) {
			t.Fatalf("tick %d after the view change: %d retransmissions, want %d (the client's frame only)", i, got, 4+i)
		}
	}
	if got := toC(); got != sentToC {
		t.Fatalf("%d more frames sent to the excluded member", got-sentToC)
	}
	if n := len(a.conn.sends(t, kDirectAck)); n != 0 {
		t.Fatalf("%d acks sent to the excluded member", n)
	}
	if got := a.unacked("c"); got != nil {
		t.Fatalf("frames %v still queued for the excluded member", got)
	}
	if got := a.unacked("client"); !reflect.DeepEqual(got, []uint64{1}) {
		t.Fatalf("the external client's unacked frames are %v, want [1]", got)
	}
	var out, in uint64
	a.do(func() { out, in = a.m.directOut["c"], a.m.directIn.high["c"] })
	if out != 3 || in != 1 {
		t.Fatalf("per-peer counters reset: %d frames numbered out, receive watermark %d, want 3 and 1", out, in)
	}
}

// TestReadmittedMemberSkipsDroppedFrames: frames dropped when a view
// excluded their addressee leave gaps in its receive watermark that would
// otherwise never fill. Falsely excluded and let back in — the same
// process, or a fresh one at the same address — it is told how far the
// numbering had got, moves its watermark there whatever order the new
// frames arrive in, and the sender stops saying so once that is
// acknowledged.
func TestReadmittedMemberSkipsDroppedFrames(t *testing.T) {
	cfg := deferConfig()
	a := openRig(t, cfg, "a", "a", "b", "c")
	c := openRig(t, cfg, "c", "a", "b", "c")
	fresh := openRig(t, cfg, "c", "a", "b", "c")
	received := func(r *rig) (high uint64, sparse int) {
		r.do(func() { high, sparse = r.m.directIn.high["a"], len(r.m.directIn.sparse["a"]) })
		return
	}

	for i := 0; i < 3; i++ {
		a.sendDirect("c", []byte("state"))
	}
	sent := a.xconn.sends(t, kDirect)
	c.deliver("a", sent[0])
	c.deliver("a", sent[2]) // 2 is lost
	if high, sparse := received(c); high != 1 || sparse != 1 {
		t.Fatalf("before the exclusion: watermark %d with %d above it, want 1 and 1", high, sparse)
	}
	a.do(func() {
		a.m.installJoinedView(&frame{Kind: kView, ViewID: 2, Seq: a.m.nextDeliver, Members: []string{"a", "b"}}, false)
		a.m.installJoinedView(&frame{Kind: kView, ViewID: 3, Seq: a.m.nextDeliver, Members: []string{"a", "b", "c"}}, false)
	})
	if got := a.unacked("c"); got != nil {
		t.Fatalf("frames %v still queued for the excluded member", got)
	}

	a.sendDirect("c", []byte("state"))
	a.sendDirect("c", []byte("state"))
	sent = a.xconn.sends(t, kDirect)
	c.deliver("a", sent[4]) // 5 overtakes 4
	if high, sparse := received(c); high != 3 || sparse != 1 {
		t.Fatalf("after frame 5: watermark %d with %d above it, want 3 and 1", high, sparse)
	}
	c.deliver("a", sent[3])
	if high, sparse := received(c); high != 5 || sparse != 0 {
		t.Fatalf("after frames 4 and 5: watermark %d with %d above it, want 5 and 0", high, sparse)
	}
	fresh.deliver("a", sent[3])
	if high, sparse := received(fresh); high != 4 || sparse != 0 {
		t.Fatalf("a fresh process after frame 4: watermark %d with %d above it, want 4 and 0", high, sparse)
	}

	c.tick(cfg.HBInterval)
	acks := c.conn.sends(t, kDirectAck)
	a.deliver("c", acks[len(acks)-1])
	if got := a.unacked("c"); len(got) != 0 {
		t.Fatalf("a still retains %v after an ack through 5", got)
	}
	a.sendDirect("c", []byte("state"))
	if f := decodeSent(t, a.xconn.sends(t, kDirect)[5]); f.OSeq != 6 || f.ViewID != 0 {
		t.Fatalf("frame after the ack: OSeq %d, skip %d, want 6 and none", f.OSeq, f.ViewID)
	}
}
