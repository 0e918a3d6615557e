package replication

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"versadep/internal/trace"
)

func TestMsgRoundTripStateChunk(t *testing.T) {
	m := &Msg{
		Kind:       KindStateChunk,
		State:      []byte("chunk-bytes"),
		CkptSerial: 7,
		CoveredSeq: 41,
		ChunkIndex: 3,
		ChunkCount: 9,
		Cache:      []CacheEntry{{Client: "c1", ReqID: 5, Reply: []byte("ok")}},
	}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || !bytes.Equal(got.State, m.State) ||
		got.CkptSerial != m.CkptSerial || got.CoveredSeq != m.CoveredSeq ||
		got.ChunkIndex != m.ChunkIndex || got.ChunkCount != m.ChunkCount ||
		!reflect.DeepEqual(got.Cache, m.Cache) {
		t.Fatalf("round trip: got %+v want %+v", got, m)
	}
}

func TestMsgRoundTripChunkAckAndResumeReq(t *testing.T) {
	for _, m := range []*Msg{
		{Kind: KindChunkAck, CkptSerial: 2, ChunkIndex: 11},
		{Kind: KindResumeReq, CkptSerial: 3, ChunkIndex: 4},
		{Kind: KindResumeReq}, // fresh joiner: zero token
	} {
		got, err := Decode(Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != m.Kind || got.CkptSerial != m.CkptSerial ||
			got.ChunkIndex != m.ChunkIndex || got.ChunkCount != m.ChunkCount {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

// The cursor fields must not inflate the request hot path: a request
// envelope encodes to the same bytes whether or not the struct carries
// (ignored) cursor values.
func TestRequestEnvelopeCarriesNoCursorBytes(t *testing.T) {
	plain := Encode(&Msg{Kind: KindRequest, Viop: []byte("viop")})
	dirty := Encode(&Msg{Kind: KindRequest, Viop: []byte("viop"), ChunkIndex: 9, ChunkCount: 9})
	if !bytes.Equal(plain, dirty) {
		t.Fatalf("request envelope grew with cursor fields: %d vs %d bytes", len(plain), len(dirty))
	}
}

func TestSplitChunks(t *testing.T) {
	state := make([]byte, 10)
	for i := range state {
		state[i] = byte(i)
	}
	chunks := splitChunks(state, 4)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(chunks))
	}
	if len(chunks[0]) != 4 || len(chunks[1]) != 4 || len(chunks[2]) != 2 {
		t.Fatalf("chunk sizes = %d,%d,%d", len(chunks[0]), len(chunks[1]), len(chunks[2]))
	}
	var joined []byte
	for _, c := range chunks {
		joined = append(joined, c...)
	}
	if !bytes.Equal(joined, state) {
		t.Fatal("chunks do not reassemble the state")
	}

	// Zero-length state still produces one (empty) chunk so the protocol
	// has something to ack.
	if got := splitChunks(nil, 4); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("empty state chunks = %v", got)
	}
}

func TestBookmarkPruneKeepsPinned(t *testing.T) {
	e := &Engine{xfers: make(map[string]*outXfer)}
	e.initTrace(nil)
	for s := uint64(1); s <= transferBookmarks+2; s++ {
		e.bookmarks = append(e.bookmarks, &bookmark{ckpt: ckpt{serial: s}})
	}
	// Serial 1 is pinned by an active transfer; pruning must evict the
	// oldest unpinned bookmarks instead.
	e.xfers["joiner"] = &outXfer{peer: "joiner", serial: 1}
	e.pruneBookmarks()
	if len(e.bookmarks) != transferBookmarks {
		t.Fatalf("bookmarks = %d, want %d", len(e.bookmarks), transferBookmarks)
	}
	if e.findBookmark(1) == nil {
		t.Fatal("pinned bookmark 1 was evicted")
	}
	if e.findBookmark(2) != nil || e.findBookmark(3) != nil {
		t.Fatal("the oldest unpinned bookmarks were kept")
	}
	if e.findBookmark(transferBookmarks+2) == nil {
		t.Fatal("newest bookmark was evicted")
	}

	// All pinned: pruning refuses to evict and tolerates the excess.
	e.bookmarks = nil
	e.xfers = map[string]*outXfer{}
	for s := uint64(10); s <= 10+transferBookmarks; s++ {
		e.bookmarks = append(e.bookmarks, &bookmark{ckpt: ckpt{serial: s}})
		e.xfers[fmt.Sprint(s)] = &outXfer{peer: fmt.Sprint(s), serial: s}
	}
	e.pruneBookmarks()
	if len(e.bookmarks) != transferBookmarks+1 {
		t.Fatalf("all-pinned bookmarks = %d, want %d", len(e.bookmarks), transferBookmarks+1)
	}
}

// TestTransferRetryArmedOnlyWhilePending: the transfer retry driver's
// ticker is armed only while a transfer is pending. An idle engine holds
// none; a leader serving a joiner holds one while the joiner has not caught
// up, and both disarm once the transfer completes.
func TestTransferRetryArmedOnlyWhilePending(t *testing.T) {
	armed := func(e *Engine) (on bool) {
		e.do(func() { on = e.retry != nil })
		return on
	}
	// The retry period is long enough that no tick fires: the test moves
	// every chunk and ack itself.
	cfg := Config{Style: WarmPassive, State: &memState{state: make([]byte, 64<<10)}, TransferRetryEvery: time.Hour}
	leader, lp := portEngine(t, "r1", cfg)
	toLeader := runPort(t, leader)
	toLeader(viewEvent(1, "r1"))
	if armed(leader) {
		t.Fatal("an idle engine holds an armed retry ticker")
	}

	// The joiner joins, and the leader's transfer waits on acknowledgements
	// no one has sent yet.
	toLeader(viewEvent(2, "r1", "r2"))
	if !armed(leader) {
		t.Fatal("a leader serving a joiner holds no armed retry ticker")
	}

	cfg.State = &memState{}
	late, jp := portEngine(t, "r2", cfg)
	toLate := runPort(t, late)
	joined := viewEvent(2, "r1", "r2")
	joined.Joined = true
	toLate(joined)
	for round := 0; !late.StatsSnapshot().Synced; round++ {
		if round > 64 {
			t.Fatal("the transfer never completes")
		}
		for _, s := range lp.take(KindStateChunk) {
			toLate(directEvent("r1", s.msg))
		}
		for _, s := range jp.take(KindChunkAck) {
			toLeader(directEvent("r2", s.msg))
		}
	}
	if armed(leader) {
		t.Error("the leader still holds an armed retry ticker after the transfer completed")
	}
	if armed(late) {
		t.Error("the synced joiner still holds an armed retry ticker")
	}

	// Unsynced in a group of more than one, a replica has a transfer to
	// ask for before any chunk reaches it (its sender may have crashed
	// first): the ticker that drives the asking is armed for that too.
	late.do(func() { late.synced = false })
	if !armed(late) {
		t.Error("an unsynced replica that has received nothing holds no armed retry ticker")
	}
	late.do(func() { late.synced = true })
	if armed(late) {
		t.Error("a resynced replica still holds an armed retry ticker")
	}
}

// TestTotalFailureSelfPromotion pins handleResumeNak, the total-failure
// recovery rule: once every other member of the view has declared itself
// unsynced, the member whose state reaches furthest promotes itself and
// serves the rest; ties go to the lowest rank. A member that has not
// answered (a synced one serves instead of declaring) blocks it.
func TestTotalFailureSelfPromotion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		naks    map[string]uint64 // how far each peer's state reaches
		promote bool
	}{
		{"furthest state wins", map[string]uint64{"a": 5, "c": 7}, true},
		{"a peer reaches further", map[string]uint64{"a": 5, "c": 12}, false},
		{"a tie goes to the lower rank", map[string]uint64{"a": 10, "c": 3}, false},
		{"a tie with a higher rank is won", map[string]uint64{"a": 3, "c": 10}, true},
		{"a peer that has not declared blocks", map[string]uint64{"a": 3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.New()
			e, p := portEngine(t, "b", Config{Style: WarmPassive, Trace: rec})
			e.step(viewEvent(1, "a", "b", "c"))
			e.synced, e.lastExecSeq = false, 10
			for _, m := range []string{"a", "c"} {
				if seq, ok := tc.naks[m]; ok {
					e.step(directEvent(m, &Msg{Kind: KindResumeNak, CoveredSeq: seq}))
				}
			}
			if e.synced != tc.promote {
				t.Fatalf("synced = %v, want %v", e.synced, tc.promote)
			}
			want := int64(0)
			if tc.promote {
				want = 1
			}
			if got := rec.Value(trace.SubReplication, "transfer_self_promotes"); got != want {
				t.Errorf("transfer_self_promotes = %d, want %d", got, want)
			}
			served := map[string]bool{}
			for _, s := range p.take(KindStateChunk) {
				served[s.to] = true
			}
			if tc.promote != (served["a"] && served["c"]) || len(served) > 2 {
				t.Errorf("promote %v, but chunks went to %v", tc.promote, served)
			}
		})
	}

	// What blocks it: a synced member answers a resume request with a
	// transfer, never with a declaration; an unsynced one declares.
	for _, synced := range []bool{true, false} {
		e, p := portEngine(t, "c", Config{Style: WarmPassive})
		e.step(viewEvent(1, "a", "b", "c"))
		e.synced, e.lastExecSeq = synced, 4
		e.step(directEvent("b", &Msg{Kind: KindResumeReq}))
		naks, chunks := p.take(KindResumeNak), p.take(KindStateChunk)
		if synced && (len(naks) != 0 || len(chunks) == 0 || chunks[0].to != "b") {
			t.Errorf("a synced member answered with %d declarations and %d chunks, want a transfer to b", len(naks), len(chunks))
		}
		if !synced && (len(naks) != 1 || naks[0].to != "b" || naks[0].msg.CoveredSeq != 4 || len(chunks) != 0) {
			t.Errorf("an unsynced member answered %+v and %d chunks, want one declaration reaching 4", naks, len(chunks))
		}
	}
}

// TestTransferAborts pins abortTransfer: the leader drops a joiner's cursor
// when it stops leading transfers, when the joiner leaves the view, and
// when the cursor's bookmark is gone, and closes the transfer span with the
// reason.
func TestTransferAborts(t *testing.T) {
	for _, tc := range []struct {
		why  string
		then func(e *Engine)
	}{
		{"demoted", func(e *Engine) { e.step(viewEvent(3, "b", "a", "j")) }},
		{"joiner left view", func(e *Engine) { e.step(viewEvent(3, "a", "b")) }},
		{"bookmark evicted", func(e *Engine) {
			serial := e.xfers["j"].serial
			e.bookmarks = nil
			e.step(directEvent("j", &Msg{Kind: KindChunkAck, CkptSerial: serial, ChunkIndex: 1}))
		}},
	} {
		t.Run(tc.why, func(t *testing.T) {
			rec := trace.New()
			e, _ := portEngine(t, "a", Config{Style: WarmPassive, Trace: rec})
			e.step(viewEvent(1, "a", "b"))
			e.step(viewEvent(2, "a", "b", "j"))
			if e.xfers["j"] == nil {
				t.Fatal("the leader serves no transfer to the joiner")
			}
			tc.then(e)
			if len(e.xfers) != 0 {
				t.Fatalf("cursors left after the abort: %v", e.xfers)
			}
			if got := rec.Value(trace.SubReplication, "transfer_aborts"); got != 1 {
				t.Errorf("transfer_aborts = %d, want 1", got)
			}
			var notes []string
			for _, s := range rec.Snapshot().Spans {
				if s.Name == "state_transfer" {
					notes = append(notes, s.Note)
				}
			}
			if len(notes) != 1 || notes[0] != tc.why {
				t.Errorf("transfer spans closed with %q, want one with %q", notes, tc.why)
			}
		})
	}
}

// TestTickRunsOnTheCallersClock: tick, the transfer clock's entry, takes
// the time from its caller. An unsynced joiner asks for a transfer at most
// once a stall period, rotating across the members; a leader re-sends a
// stalled window, and abandons a joiner silent for transferAbandonAfter.
func TestTickRunsOnTheCallersClock(t *testing.T) {
	j, jp := portEngine(t, "j", Config{Style: WarmPassive, TransferRetryEvery: time.Second})
	joined := viewEvent(1, "a", "b", "j")
	joined.Joined = true
	j.step(joined)
	now := time.Now()
	var asked []string
	for _, at := range []time.Duration{0, time.Second, 2 * time.Second, 4 * time.Second} {
		j.tick(now.Add(at))
		for _, s := range jp.take(KindResumeReq) {
			asked = append(asked, s.to)
		}
	}
	if want := []string{"a", "b", "a"}; !reflect.DeepEqual(asked, want) {
		t.Errorf("the joiner asked %v, want %v", asked, want)
	}

	rec := trace.New()
	a, ap := portEngine(t, "a", Config{Style: WarmPassive, State: &memState{state: make([]byte, 10000)},
		TransferRetryEvery: time.Second, Trace: rec})
	a.step(viewEvent(1, "a"))
	a.step(viewEvent(2, "a", "j"))
	now = time.Now()
	sent := len(ap.take(KindStateChunk))
	a.tick(now)
	if n := len(ap.take(KindStateChunk)); sent != 3 || n != 0 {
		t.Fatalf("chunks sent %d, then %d more before any stall; want 3, then 0", sent, n)
	}
	a.tick(now.Add(3 * time.Second))
	if n := len(ap.take(KindStateChunk)); n != 3 || rec.Value(trace.SubReplication, "transfer_chunk_resends") != 3 {
		t.Errorf("a stalled window re-sent %d chunks, want 3", n)
	}
	a.tick(now.Add(time.Minute))
	if len(a.xfers) != 0 || rec.Value(trace.SubReplication, "transfer_aborts") != 1 {
		t.Errorf("a joiner silent for a minute still has a cursor: %v", a.xfers)
	}
}

// TestJoinerRaisesOneCompletionPerTransfer: a joiner receiving a three-chunk
// transfer raises a progress notice for each chunk but the last and one
// completion notice (Chunk == Chunks), after the state is installed; a
// duplicate of the last chunk raises nothing more. When the application
// refuses the state, no completion notice fires.
func TestJoinerRaisesOneCompletionPerTransfer(t *testing.T) {
	for _, broken := range []bool{false, true} {
		var state Checkpointable = &memState{}
		if broken {
			state = &brokenState{}
		}
		var chunks []int
		var e *Engine
		e, _ = portEngine(t, "j", Config{Style: WarmPassive, State: state, Observer: func(n Notice) {
			if n.Kind != NoticeTransfer {
				return
			}
			if n.Chunk == n.Chunks && !e.synced {
				t.Errorf("completion notice raised before the state was installed")
			}
			chunks = append(chunks, n.Chunk)
		}})
		joined := viewEvent(1, "a", "j")
		joined.Joined = true
		e.step(joined)
		for _, i := range []uint32{0, 1, 2, 2} {
			e.step(directEvent("a", &Msg{Kind: KindStateChunk, State: []byte{byte(i)}, CkptSerial: 1, ChunkIndex: i, ChunkCount: 3}))
		}
		want := []int{1, 2, 3}
		if broken {
			// The refused state is discarded, and the duplicate of the last
			// chunk starts a new assembly with no contiguous prefix yet.
			want = []int{1, 2, 0}
		}
		if !reflect.DeepEqual(chunks, want) || e.synced == broken {
			t.Errorf("restore broken %v: transfer notices at chunks %v, synced %v; want %v", broken, chunks, e.synced, want)
		}
	}
}
