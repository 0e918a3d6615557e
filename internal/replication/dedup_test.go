package replication

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// mapRecord is the oracle: the map-per-client dedup set and reply cache the
// engine used before clientRecord, with the floor rule its comment promised
// (the floor follows the high-water mark at dedupWindow; the old code only
// applied it once the map held more than dedupWindow entries, and then swept
// the whole map on every request). Kept for the differential test.
type mapRecord struct {
	floor, high uint64
	seen        map[uint64]bool
	replies     map[uint64][]byte
	depth       uint64
}

func newMapRecord(depth int) *mapRecord {
	return &mapRecord{seen: map[uint64]bool{}, replies: map[uint64][]byte{}, depth: uint64(depth)}
}

func (m *mapRecord) executed(rid uint64) bool { return rid <= m.floor || m.seen[rid] }

func (m *mapRecord) mark(rid uint64) {
	if rid <= m.floor {
		return
	}
	m.seen[rid] = true
	if rid > m.high {
		m.high = rid
	}
	if m.high > dedupWindow && m.high-dedupWindow > m.floor {
		m.floor = m.high - dedupWindow
		for r := range m.seen {
			if r <= m.floor {
				delete(m.seen, r)
			}
		}
	}
}

func (m *mapRecord) reset(floor uint64) {
	m.floor, m.high = floor, floor
	m.seen = map[uint64]bool{}
	m.replies = map[uint64][]byte{}
}

// store keeps the replies of the depth ids ending at high.
func (m *mapRecord) store(rid uint64, reply []byte) {
	if rid <= m.high && m.high-rid >= m.depth {
		return
	}
	m.replies[rid] = reply
	for r := range m.replies {
		if r <= m.high && m.high-r >= m.depth {
			delete(m.replies, r)
		}
	}
}

// TestClientRecordMatchesMapOracle drives clientRecord and the map oracle
// with the same seeded streams — sequential ids, out-of-order ids,
// duplicates, late ids far below the high-water mark, jumps of about and
// beyond dedupWindow (the bitmap is cleared wholesale), ids that alias
// modulo the window, and checkpoint resets mid-stream — and requires the
// same answer to every "executed?" and the same reply for every retained id.
func TestClientRecordMatchesMapOracle(t *testing.T) {
	seeds := 1000
	if testing.Short() {
		seeds = 100
	}
	const depth = 8
	for seed := 1; seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		rec := &clientRecord{replies: make([]cachedReply, depth)}
		ora := newMapRecord(depth)
		var recent []uint64 // ids handled lately, the raw material of duplicates and aliases
		next := uint64(1 + rng.Intn(3)*dedupWindow)
		for step := 0; step < 400; step++ {
			var rid uint64
			switch p := rng.Intn(100); {
			case p < 45: // the next id in sequence
				rid, next = next, next+1
			case p < 60: // an id overtaken by a few newer ones
				gap := 1 + rng.Intn(6)
				next += uint64(gap)
				rid = next - 1 - uint64(rng.Intn(gap))
			case p < 72 && len(recent) > 0: // a retry
				rid = recent[rng.Intn(len(recent))]
			case p < 80 && len(recent) > 0: // an alias of a handled id, one or two windows away
				rid = recent[rng.Intn(len(recent))]
				if k := uint64(1+rng.Intn(2)) * dedupWindow; rng.Intn(2) == 0 {
					rid += k
				} else if rid > k {
					rid -= k
				}
			case p < 88: // late: anywhere below the high-water mark
				rid = 1 + uint64(rng.Int63n(int64(next)))
			case p < 96: // a jump that moves the floor by about a window, or several
				next += uint64(dedupWindow*(1+rng.Intn(3)) - 2 + rng.Intn(5))
				rid, next = next, next+1
			default: // a checkpoint install
				floor := uint64(rng.Int63n(int64(next) + 1))
				reply := []byte(fmt.Sprint("ckpt ", floor))
				rec.reset(floor)
				rec.store(floor, reply)
				ora.reset(floor)
				ora.store(floor, reply)
				continue
			}
			if rid >= next {
				next = rid + 1
			}
			if got, want := rec.executed(rid), ora.executed(rid); got != want {
				t.Fatalf("seed %d step %d: executed(%d) = %v, oracle %v (floor %d high %d)",
					seed, step, rid, got, want, ora.floor, ora.high)
			}
			if !ora.executed(rid) || rng.Intn(8) == 0 { // marking twice must be harmless
				reply := []byte(fmt.Sprint("reply ", rid))
				rec.mark(rid)
				rec.store(rid, reply)
				ora.mark(rid)
				ora.store(rid, reply)
			}
			if rec.floor != ora.floor || rec.high != ora.high {
				t.Fatalf("seed %d step %d: floor/high = %d/%d, oracle %d/%d", seed, step, rec.floor, rec.high, ora.floor, ora.high)
			}
			if len(recent) < 32 {
				recent = append(recent, rid)
			} else {
				recent[rng.Intn(len(recent))] = rid
			}
			// Replies: the record holds every reply the oracle holds, and
			// never a wrong one (it may keep a stale slot a little longer).
			for r, want := range ora.replies {
				if got, ok := rec.reply(r); !ok || string(got) != string(want) {
					t.Fatalf("seed %d step %d: reply(%d) = %q, %v; oracle has %q", seed, step, r, got, ok, want)
				}
			}
			for _, r := range recent {
				if got, ok := rec.reply(r); ok && string(got) != fmt.Sprint("reply ", r) && string(got) != fmt.Sprint("ckpt ", r) {
					t.Fatalf("seed %d step %d: reply(%d) = %q, another id's reply", seed, step, r, got)
				}
			}
		}
		// Every bit outside (floor, high] is clear: nothing is left behind
		// for a later id to alias.
		set := 0
		for _, w := range rec.bits {
			for ; w != 0; w &= w - 1 {
				set++
			}
		}
		if set != len(ora.seen) {
			t.Fatalf("seed %d: %d bits set, oracle holds %d exact ids", seed, set, len(ora.seen))
		}
	}
}

// TestAliasedIdIsNotExecuted is the case the bitmap's first draft got
// wrong: rid dedupWindow+1 shares a bit with rid 1, and answering
// "executed" from rid 1's bit loses a request.
func TestAliasedIdIsNotExecuted(t *testing.T) {
	r := &clientRecord{replies: make([]cachedReply, 8)}
	r.mark(1)
	if r.executed(dedupWindow + 1) {
		t.Fatalf("rid %d reads as executed from rid 1's bit", dedupWindow+1)
	}
	r.mark(dedupWindow + 1) // floor becomes 1, rid 1's bit is cleared and set again for the new tenant
	if !r.executed(1) || !r.executed(dedupWindow+1) || r.executed(2) || r.executed(2*dedupWindow+1) {
		t.Fatalf("after marking 1 and %d: executed(1)=%v executed(%d)=%v executed(2)=%v executed(%d)=%v",
			dedupWindow+1, r.executed(1), dedupWindow+1, r.executed(dedupWindow+1), r.executed(2),
			2*dedupWindow+1, r.executed(2*dedupWindow+1))
	}
	r.mark(2*dedupWindow + 2) // steps over rid dedupWindow+1 without ever using its slot again
	if r.executed(2*dedupWindow + 1) {
		t.Fatalf("rid %d reads as executed from a bit the floor stepped over", 2*dedupWindow+1)
	}
}

// TestMarkCostIsFlat: handling a request costs the same after 200,000
// requests of one client as after none, and allocates nothing. The map
// swept all of its entries on every request once it was full — about 12 s
// for this loop.
func TestMarkCostIsFlat(t *testing.T) {
	r := &clientRecord{replies: make([]cachedReply, 8)}
	reply := []byte("reply")
	rid := uint64(0)
	handle := func() {
		rid++
		if !r.executed(rid) {
			r.mark(rid)
			r.store(rid, reply)
		}
	}
	start := time.Now()
	for i := 0; i < 200000; i++ {
		handle()
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("200,000 sequential ids took %v, want < 1 s", d)
	}
	if r.high != 200000 || r.floor != 200000-dedupWindow {
		t.Fatalf("floor/high = %d/%d after 200,000 ids", r.floor, r.high)
	}
	if allocs := testing.AllocsPerRun(1000, handle); allocs != 0 {
		t.Errorf("a request allocates %v times in the dedup record, want 0", allocs)
	}
}

func BenchmarkMarkExecuted(b *testing.B) {
	for _, prior := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("prior=%dk", prior/1000), func(b *testing.B) {
			r := &clientRecord{replies: make([]cachedReply, 8)}
			reply := []byte("reply")
			rid := uint64(0)
			for ; rid < uint64(prior); rid++ {
				r.mark(rid + 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rid++
				if !r.executed(rid) {
					r.mark(rid)
					r.store(rid, reply)
				}
			}
		})
	}
}

// countingServant counts executions per argument.
type countingServant struct {
	mu    sync.Mutex
	count map[int64]int
}

func (s *countingServant) Invoke(op string, args []codec.Value) ([]codec.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count[args[0].Int]++
	return args, nil
}

func requestBytes(cid string, rid uint64) []byte {
	return orb.EncodeRequest(&orb.Request{ClientID: cid, ReqID: rid, Object: "ctr", Operation: "touch",
		Args: []codec.Value{codec.Int(int64(rid))}})
}

// TestLateRequestExecutesOnceAndIsAnswered: one client's rids 1…5000 reach
// the group except one, which arrives last — a re-routed or overtaken
// request. With the 4,096-id window the floor had passed it by then and it
// was dropped without execution or reply, as every retry would be. It must
// execute exactly once and be answered, and a retry of it must not run it
// again.
func TestLateRequestExecutesOnceAndIsAnswered(t *testing.T) {
	const total, missing = 5000, 100
	rec := trace.New()
	net := simnet.New(simnet.WithSeed(3))
	t.Cleanup(func() { net.Close() })
	viewed := make(chan struct{})
	var once sync.Once
	e, _ := startEngineOn(t, net, "r1", Config{Style: Active, Trace: rec, Observer: func(n Notice) {
		if n.Kind == NoticeView {
			once.Do(func() { close(viewed) })
		}
	}})
	servant := &countingServant{count: map[int64]int{}}
	e.adapter.Register("ctr", servant)
	select {
	case <-viewed:
	case <-time.After(2 * time.Second):
		t.Fatal("the engine never installed its bootstrap view")
	}

	ep, err := net.Endpoint("c1")
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	var mu sync.Mutex
	replies := map[uint64]int{}
	gc := gcs.NewClient(d.Conn(transport.ProtoGroupClient), gcs.DefaultClientConfig([]string{"r1"}), func(ev gcs.Event) {
		if _, rid, err := orb.PeekReplyID(ev.Payload); err == nil {
			mu.Lock()
			replies[rid]++
			mu.Unlock()
		}
	})
	d.Handle(transport.ProtoGroupClient, gc.HandleTransport)
	d.Start()
	t.Cleanup(gc.Stop)

	answered := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			n := len(replies)
			mu.Unlock()
			if n >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d requests answered, want %d", n, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit := func(rid uint64) {
		t.Helper()
		if err := gc.Submit(transport.CopyBuf(gc.Room(), WrapRequest(requestBytes("c1", rid))), 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	for rid := uint64(1); rid <= total; rid++ {
		if rid != missing {
			submit(rid)
		}
	}
	answered(total - 1)
	submit(missing)
	answered(total)
	submit(missing) // the retry of a request that did run
	submit(total)   // and of one whose reply is still cached
	deadline := time.Now().Add(10 * time.Second)
	for rec.Value(trace.SubReplication, "reply_cache_hits") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the retry of the newest request was never answered from the cache")
		}
		time.Sleep(time.Millisecond)
	}

	servant.mu.Lock()
	defer servant.mu.Unlock()
	for rid := int64(1); rid <= total; rid++ {
		if servant.count[rid] != 1 {
			t.Errorf("rid %d executed %d times, want 1", rid, servant.count[rid])
		}
	}
	if got := rec.Value(trace.SubReplication, "dedup_assumed"); got != 0 {
		t.Errorf("dedup_assumed = %d, want 0: no request was answered by assumption", got)
	}
}

// TestCheckpointCacheResetsRecordsInPlace: a checkpoint's cache carries one
// high-water mark and reply per client; installing it keeps each record's
// memory, forgets the exact window, assumes everything up to the mark, and
// empties the record of a client the checkpoint does not mention. A
// duplicate at or below the mark that has no reply to resend is counted.
func TestCheckpointCacheResetsRecordsInPlace(t *testing.T) {
	rec := trace.New()
	e, _ := portEngine(t, "r1", Config{Style: Active, Trace: rec})
	e.adapter.Register("ctr", &countingServant{count: map[int64]int{}})
	e.step(viewEvent(1, "r1"))

	deliver := func(cid string, rid uint64) {
		e.step(gcs.Event{Kind: gcs.EventMessage, Sender: cid, Payload: WrapRequest(requestBytes(cid, rid))})
	}
	for _, rid := range []uint64{1, 2, 3, 7, 5} {
		deliver("c1", rid)
	}
	deliver("c2", 1)
	c1, c2 := e.clients["c1"], e.clients["c2"]

	cache := e.captureCache()
	if len(cache) != 2 {
		t.Fatalf("captured %d entries, want one per client: %+v", len(cache), cache)
	}
	for _, c := range cache {
		want := map[string]uint64{"c1": 7, "c2": 1}[c.Client]
		if _, rid, err := orb.PeekReplyID(c.Reply); c.ReqID != want || err != nil || rid != want {
			t.Errorf("captured %s: ReqID %d with the reply to %d (%v), want %d", c.Client, c.ReqID, rid, err, want)
		}
	}

	e.setCache([]CacheEntry{{Client: "c1", ReqID: 6, Reply: []byte("six")}})
	if e.clients["c1"] != c1 || e.clients["c2"] != c2 {
		t.Error("installing a checkpoint cache replaced the records")
	}
	if c1.floor != 6 || c1.high != 6 || c1.bits != [dedupWindow / 64]uint64{} {
		t.Errorf("c1 after install: floor %d high %d, or bits left set", c1.floor, c1.high)
	}
	if got, ok := c1.reply(6); !ok || string(got) != "six" {
		t.Errorf("c1 reply(6) = %q, %v", got, ok)
	}
	if _, ok := c1.reply(7); ok || c1.executed(7) {
		t.Error("c1 still remembers rid 7, which the checkpoint does not cover")
	}
	if c2.floor != 0 || c2.high != 0 || c2.executed(1) {
		t.Errorf("c2 is not in the checkpoint but kept floor %d high %d", c2.floor, c2.high)
	}
	if _, ok := c2.reply(1); ok {
		t.Error("c2 kept a reply the checkpoint does not carry")
	}

	executed := e.stats.RequestsExecuted
	deliver("c1", 4) // at or below the mark, no reply retained
	deliver("c1", 6) // the mark itself: answered from the cache
	if e.stats.RequestsExecuted != executed {
		t.Error("a request at or below the checkpoint's mark executed again")
	}
	if got := rec.Value(trace.SubReplication, "dedup_assumed"); got != 1 {
		t.Errorf("dedup_assumed = %d, want 1", got)
	}
	if got := rec.Value(trace.SubReplication, "reply_cache_hits"); got != 1 {
		t.Errorf("reply_cache_hits = %d, want 1", got)
	}
}
