package replication

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"versadep/internal/simnet"
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
		e.bookmarks = append(e.bookmarks, &bookmark{serial: s})
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
		e.bookmarks = append(e.bookmarks, &bookmark{serial: s})
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
	net := simnet.New(simnet.WithSeed(3))
	t.Cleanup(func() { net.Close() })
	armed := func(e *Engine) (on bool) {
		e.do(func() { on = e.retry != nil })
		return on
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting until %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	cfg := Config{Style: WarmPassive, State: &memState{state: make([]byte, 64<<10)}}
	leader, _ := startEngineOn(t, net, "r1", cfg)
	waitFor("the leader is primary", func() bool { return leader.Role() == RolePrimary })
	if armed(leader) {
		t.Fatal("an idle engine holds an armed retry ticker")
	}

	// The joiner's member joins, but no engine reads its deliveries yet:
	// the leader's transfer waits on acknowledgements that cannot come.
	joiner := openMemberOn(t, net, "r2", "r1")
	serving := func() (n int) {
		leader.do(func() { n = len(leader.xfers) })
		return n
	}
	waitFor("the leader serves the joiner", func() bool { return serving() == 1 })
	if !armed(leader) {
		t.Fatal("a leader serving a joiner holds no armed retry ticker")
	}

	late := engineOn(t, joiner, Config{Style: WarmPassive, State: &memState{}})
	waitFor("the transfer completes", func() bool { return serving() == 0 && late.StatsSnapshot().Synced })
	waitFor("the leader disarms", func() bool { return !armed(leader) })
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
