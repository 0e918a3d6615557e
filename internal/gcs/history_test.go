package gcs

import (
	"fmt"
	"testing"

	"versadep/internal/vtime"
)

// The retransmission history is a ring of Config.HistorySize slots indexed
// seq % HistorySize. These tests run it with eight slots, so a score of
// frames wraps it more than twice, on members whose frames the test carries
// by hand (the rig of acks_test.go).

const ringSlots = 8

func ringConfig() Config {
	cfg := deferConfig()
	cfg.HistorySize = ringSlots
	return cfg
}

// multicast sends n agreed messages from r and returns the highest sequence
// number r has delivered to itself afterwards.
func (r *rig) multicast(n int) uint64 {
	r.t.Helper()
	for i := 0; i < n; i++ {
		if err := r.m.Multicast([]byte(fmt.Sprint("m", i)), Agreed, 0, vtime.Ledger{}); err != nil {
			r.t.Fatal(err)
		}
	}
	var high uint64
	r.do(func() { high = r.m.nextDeliver - 1 })
	return high
}

// sentTo returns what conn was asked to send to one address, of one kind,
// from the offset-th send on.
func sentTo(t *testing.T, conn *recConn, offset int, to string, kind frameKind) []recSend {
	t.Helper()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	var out []recSend
	for _, s := range conn.sent[offset:] {
		if s.to == to && decodeSent(t, s).Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

func sentCount(conn *recConn) int {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return len(conn.sent)
}

func seqsOf(t *testing.T, sends []recSend) []uint64 {
	t.Helper()
	var out []uint64
	for _, s := range sends {
		out = append(out, decodeSent(t, s).Seq)
	}
	return out
}

func wantSeqs(t *testing.T, what string, got []uint64, from, to uint64) {
	t.Helper()
	var want []uint64
	for s := from; s <= to; s++ {
		want = append(want, s)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: sequence numbers %v, want %v", what, got, want)
	}
}

// TestHistoryRingWrapsAndEvicts: after 20 frames an 8-slot history holds
// exactly 13…20, each under its own number; a frame that was overwritten,
// one not yet sent and one that shares a slot with a retained frame are all
// absent; and a NACK and a fetch are answered from the ring with the bytes
// that were first sent, and only for what it still holds.
func TestHistoryRingWrapsAndEvicts(t *testing.T) {
	a := openRig(t, ringConfig(), "a", "a", "b")
	high := a.multicast(20)
	if high != 20 {
		t.Fatalf("a delivered through %d, want 20", high)
	}
	first := sentTo(t, a.conn, 0, "b", kSeq)
	wantSeqs(t, "a's multicasts to b", seqsOf(t, first), 1, 20)

	a.do(func() {
		for s := uint64(0); s <= 40; s++ {
			h, ok := a.m.historyAt(s)
			if want := s >= 13 && s <= 20; ok != want {
				t.Errorf("historyAt(%d) found = %v, want %v", s, ok, want)
			} else if ok && (h.seq != s || string(h.enc) != string(unseal(t, first[s-1]))) {
				t.Errorf("historyAt(%d) holds frame %d, or not the bytes that were sent", s, h.seq)
			}
		}
	})

	mark := sentCount(a.conn)
	nack := &frame{Kind: kNack, Origin: "b", Seqs: []uint64{4, 12, 13, 17, 20, 21, 28}}
	a.do(func() { a.m.handleNack("b", nack) })
	resent := sentTo(t, a.conn, mark, "b", kSeq)
	if got := fmt.Sprint(seqsOf(t, resent)); got != "[13 17 20]" {
		t.Fatalf("NACK for 4 12 13 17 20 21 28 was answered with %s, want [13 17 20]", got)
	}
	for _, s := range resent {
		if seq := decodeSent(t, s).Seq; string(unseal(t, s)) != string(unseal(t, first[seq-1])) {
			t.Errorf("retransmission of %d is not the frame first sent", seq)
		}
	}

	mark = sentCount(a.conn)
	a.do(func() {
		a.m.handleFetch("b", &frame{Kind: kFetch, ViewID: 2, Origin: "b", Seqs: []uint64{11, 12, 13, 14}})
	})
	resp := sentTo(t, a.conn, mark, "b", kFetchResp)
	if len(resp) != 1 {
		t.Fatalf("%d fetch responses, want 1", len(resp))
	}
	list, err := decodeFrameList(decodeSent(t, resp[0]).Aux)
	if err != nil {
		t.Fatal(err)
	}
	var fetched []uint64
	for _, f := range list {
		fetched = append(fetched, f.Seq)
	}
	wantSeqs(t, "fetch of 11…14", fetched, 13, 14)
}

// TestHistorySizeOne: the smallest ring keeps the last frame and nothing
// else (a zero or negative HistorySize is served the same way).
func TestHistorySizeOne(t *testing.T) {
	for _, size := range []int{1, 0} {
		cfg := deferConfig()
		cfg.HistorySize = size
		a := openRig(t, cfg, "a", "a", "b")
		a.multicast(5)
		a.do(func() {
			if _, ok := a.m.historyAt(4); ok {
				t.Errorf("HistorySize %d: frame 4 survived frame 5", size)
			}
			if h, ok := a.m.historyAt(5); !ok || h.seq != 5 {
				t.Errorf("HistorySize %d: frame 5 not retained", size)
			}
		})
	}
}

// TestHistoryGrowsBeforeItEvicts: the ring starts small and doubles while
// the stream is shorter than HistorySize, losing nothing on the way; from
// HistorySize on it evicts, and it never grows past that.
func TestHistoryGrowsBeforeItEvicts(t *testing.T) {
	cfg := deferConfig()
	cfg.HistorySize = 200 // not a power of two: the last doubling is clipped
	a := openRig(t, cfg, "a", "a", "b")
	retains := func(slots int, from, to uint64) {
		t.Helper()
		a.do(func() {
			if len(a.m.history) != slots {
				t.Fatalf("after %d frames the ring has %d slots, want %d", to, len(a.m.history), slots)
			}
			for s := uint64(1); s <= to+1; s++ {
				if h, ok := a.m.historyAt(s); ok != (s >= from && s <= to) || (ok && h.seq != s) {
					t.Fatalf("after %d frames historyAt(%d) found = %v, want frames %d…%d retained", to, s, ok, from, to)
				}
			}
		})
	}
	retains(historyStart, 1, 0)
	a.multicast(historyStart)
	retains(historyStart, 1, historyStart)
	a.multicast(1)
	retains(2*historyStart, 1, historyStart+1)
	a.multicast(200 - historyStart - 1)
	retains(200, 1, 200)
	a.multicast(300)
	retains(200, 301, 500)
}

// TestFlushRedistributesFromTheRing: a member that missed the tail of the
// stream is brought level by the view change that excludes a third — the
// proposer re-sends what the member's flush acknowledgement lacks from its
// wrapped history, ahead of the view frame — and, in the new view, the
// NACK path serves it from the same ring.
func TestFlushRedistributesFromTheRing(t *testing.T) {
	view := []string{"a", "b", "c"}
	a := openRig(t, ringConfig(), "a", view...)
	b := openRig(t, ringConfig(), "b", view...)

	a.multicast(20)
	seqs := sentTo(t, a.conn, 0, "b", kSeq)
	for _, s := range seqs[:14] { // 15…20 are lost on their way to b
		b.deliver("a", s)
	}
	b.do(func() {
		if b.m.nextDeliver != 15 {
			t.Fatalf("b delivered through %d, want 14", b.m.nextDeliver-1)
		}
	})

	// c falls silent; a, the coordinator, proposes {a, b}.
	mark := sentCount(a.conn)
	a.do(func() { a.m.suspects["c"] = true; a.m.maybePropose() })
	prep := sentTo(t, a.conn, mark, "b", kPrepare)
	if len(prep) != 1 {
		t.Fatalf("%d prepare frames to b, want 1", len(prep))
	}
	b.deliver("a", prep[0])
	acks := sentTo(t, b.conn, 0, "a", kPrepareAck)
	if len(acks) != 1 || decodeSent(t, acks[0]).Seq != 14 {
		t.Fatalf("b's flush acknowledgement: %d frames, want one reporting 14", len(acks))
	}
	mark = sentCount(a.conn)
	a.deliver("b", acks[0])

	// a fills b's gap from history slots that have each been overwritten
	// at least once, then installs the view at 21.
	var flush []recSend
	a.conn.mu.Lock()
	for _, s := range a.conn.sent[mark:] {
		if s.to == "b" {
			flush = append(flush, s)
		}
	}
	a.conn.mu.Unlock()
	wantSeqs(t, "a's redistribution to b", seqsOf(t, flush), 15, 21)
	if k := decodeSent(t, flush[len(flush)-1]).Kind; k != kView {
		t.Fatalf("the last redistributed frame is kind %d, want the view frame", k)
	}
	for _, s := range flush {
		b.deliver("a", s)
	}
	b.do(func() {
		if b.m.nextDeliver != 22 || b.m.view.ID != 2 || fmt.Sprint(b.m.view.Members) != "[a b]" {
			t.Fatalf("after the flush b delivered through %d in view %d %v, want 21 in view 2 [a b]",
				b.m.nextDeliver-1, b.m.view.ID, b.m.view.Members)
		}
		// b's own ring recorded what it was sent, the view frame included.
		for s := uint64(14); s <= 21; s++ {
			if _, ok := b.m.historyAt(s); !ok {
				t.Errorf("b does not retain frame %d", s)
			}
		}
		if _, ok := b.m.historyAt(13); ok {
			t.Error("b retains frame 13 in an 8-slot ring that has seen 21")
		}
	})

	// In the new view b misses 22 and 23, sees 24, and asks; a answers from
	// the ring.
	mark = sentCount(a.conn)
	a.multicast(3)
	next := sentTo(t, a.conn, mark, "b", kSeq)
	wantSeqs(t, "a's multicasts in view 2", seqsOf(t, next), 22, 24)
	b.deliver("a", next[2])
	nacks := sentTo(t, b.conn, 0, "a", kNack)
	if len(nacks) != 1 || fmt.Sprint(decodeSent(t, nacks[0]).Seqs) != "[22 23]" {
		t.Fatalf("b sent %d NACKs, want one for [22 23]", len(nacks))
	}
	mark = sentCount(a.conn)
	a.deliver("b", nacks[0])
	for _, s := range sentTo(t, a.conn, mark, "b", kSeq) {
		b.deliver("a", s)
	}
	b.do(func() {
		if b.m.nextDeliver != 25 {
			t.Fatalf("after the NACK b delivered through %d, want 24", b.m.nextDeliver-1)
		}
	})
}
