package gcs

import (
	"fmt"
	"testing"
	"time"

	"versadep/internal/transport"
)

// The proposer's fetch path: a view-change proposer that lacks a sequenced
// frame a survivor's flush acknowledgement reports held asks that survivor
// for it (kFetch), puts the answer (kFetchResp) into its holdback, and only
// then redistributes and installs the view. The tests carry every frame by
// hand, on the rig of acks_test.go.

// fetchRig is the view {a, b, c} after a, the sequencer, multicast m0 m1 m2
// as 1–3 and fell silent: b got 1 and 2, c got 1 and 3. b has proposed
// {b, c}; c's flush acknowledgement reported 3 held, so b, which lacks 3,
// has sent c one kFetch for it.
type fetchRig struct {
	cfg   Config
	b, c  *rig
	fetch recSend // b's kFetch to c
}

func openFetchRig(t *testing.T) *fetchRig {
	t.Helper()
	view := []string{"a", "b", "c"}
	cfg := deferConfig()
	a := openRig(t, cfg, "a", view...)
	b := openRig(t, cfg, "b", view...)
	c := openRig(t, cfg, "c", view...)

	a.multicast(3)
	toB, toC := sentTo(t, a.conn, 0, "b", kSeq), sentTo(t, a.conn, 0, "c", kSeq)
	b.deliver("a", toB[0])
	b.deliver("a", toB[1])
	c.deliver("a", toC[0])
	c.deliver("a", toC[2])

	b.do(func() { b.m.suspects["a"] = true; b.m.maybePropose() })
	prep := sentTo(t, b.conn, 0, "c", kPrepare)
	if len(prep) != 1 {
		t.Fatalf("%d prepare frames to c, want 1", len(prep))
	}
	c.deliver("b", prep[0])
	acks := sentTo(t, c.conn, 0, "b", kPrepareAck)
	if len(acks) != 1 {
		t.Fatalf("%d flush acknowledgements from c, want 1", len(acks))
	}
	if ack := decodeSent(t, acks[0]); ack.Seq != 1 || fmt.Sprint(ack.Seqs) != "[3]" {
		t.Fatalf("c acknowledged through %d holding %v, want through 1 holding [3]", ack.Seq, ack.Seqs)
	}
	b.deliver("c", acks[0])
	fetches := sentTo(t, b.conn, 0, "c", kFetch)
	if len(fetches) != 1 || fmt.Sprint(decodeSent(t, fetches[0]).Seqs) != "[3]" {
		t.Fatalf("b sent c %d fetches, want one for [3]", len(fetches))
	}
	return &fetchRig{cfg: cfg, b: b, c: c, fetch: fetches[0]}
}

// carry delivers to `to` every frame from's conn has addressed to it since
// the mark-th send.
func carry(t *testing.T, from *rig, mark int, to *rig) {
	t.Helper()
	from.conn.mu.Lock()
	var out []recSend
	for _, s := range from.conn.sent[mark:] {
		if s.to == to.m.Addr() {
			out = append(out, s)
		}
	}
	from.conn.mu.Unlock()
	for _, s := range out {
		to.deliver(from.m.Addr(), s)
	}
}

// messagesUntil reads r's events in order up to the first one stop accepts
// and returns the payloads of the messages among them.
func (r *rig) messagesUntil(stop func(Event) bool) []string {
	r.t.Helper()
	var got []string
	deadline := time.After(5 * time.Second)
	for {
		select {
		case e := <-r.m.Out():
			if e.Kind == EventMessage {
				got = append(got, string(e.Payload))
			}
			if stop(e) {
				return got
			}
		case <-deadline:
			r.t.Fatalf("%s: the awaited event never came; delivered %q", r.m.Addr(), got)
		}
	}
}

func viewInstalled(id uint64) func(Event) bool {
	return func(e Event) bool { return e.Kind == EventView && e.View.ID == id }
}

// TestFetchFillsTheProposersGap: c answers, b holds 3, and the view both
// install delivers a's third message at b and at c — not a filler.
func TestFetchFillsTheProposersGap(t *testing.T) {
	r := openFetchRig(t)
	r.c.deliver("b", r.fetch)
	resp := sentTo(t, r.c.conn, 0, "b", kFetchResp)
	if len(resp) != 1 {
		t.Fatalf("%d fetch responses from c, want 1", len(resp))
	}
	mark := sentCount(r.b.conn)
	r.b.deliver("c", resp[0])
	carry(t, r.b, mark, r.c) // 2, which c lacks, and the view at 4
	for _, x := range []*rig{r.b, r.c} {
		if got := x.messagesUntil(viewInstalled(2)); fmt.Sprint(got) != "[m0 m1 m2]" {
			t.Errorf("%s delivered %q before view 2, want [m0 m1 m2]", x.m.Addr(), got)
		}
	}
}

// TestFetchTimesOutToAFiller: c never answers; once PrepareTimeout has
// passed, b fills 3 with a no-op and installs the view all the same.
func TestFetchTimesOutToAFiller(t *testing.T) {
	r := openFetchRig(t)
	r.b.tick(r.cfg.PrepareTimeout + time.Millisecond)
	if got := r.b.messagesUntil(viewInstalled(2)); fmt.Sprint(got) != "[m0 m1]" {
		t.Fatalf("b delivered %q before view 2, want [m0 m1]", got)
	}
	var (
		through uint64
		members []string
		h       sequenced
		ok      bool
	)
	r.b.do(func() {
		through, members = r.b.m.nextDeliver-1, r.b.m.view.Members
		h, ok = r.b.m.historyAt(3)
	})
	if through != 4 || fmt.Sprint(members) != "[b c]" {
		t.Fatalf("b delivered through %d in view %v, want 4 in [b c]", through, members)
	}
	if !ok {
		t.Fatal("b does not retain 3")
	}
	if f, err := decodeFrame(h.enc, nil); err != nil || f.Origin != "" || len(f.Payload) != 0 {
		t.Fatalf("3 at b is not a no-op filler: %+v (%v)", f, err)
	}
}

// TestFetchIgnoresAStaleResponse: a kFetchResp naming another view changes
// nothing; the current one still completes the fetch.
func TestFetchIgnoresAStaleResponse(t *testing.T) {
	r := openFetchRig(t)
	r.c.deliver("b", r.fetch)
	resp := sentTo(t, r.c.conn, 0, "b", kFetchResp)
	if len(resp) != 1 {
		t.Fatalf("%d fetch responses from c, want 1", len(resp))
	}
	stale := decodeSent(t, resp[0])
	stale.ViewID--
	msg := transport.Message{From: "c", To: "b", Payload: encodeFrame(stale)}
	var held, fetching bool
	var viewID uint64
	r.b.do(func() {
		r.b.m.handleMessage(msg)
		_, held = r.b.m.holdback[3]
		fetching = r.b.m.proposal != nil && r.b.m.proposal.fetching
		viewID = r.b.m.view.ID
	})
	if held || !fetching || viewID != 1 {
		t.Fatalf("a response for view %d moved b: holds 3 %v, fetching %v, view %d", stale.ViewID, held, fetching, viewID)
	}
	r.b.deliver("c", resp[0])
	if got := r.b.messagesUntil(viewInstalled(2)); fmt.Sprint(got) != "[m0 m1 m2]" {
		t.Fatalf("b delivered %q before view 2, want [m0 m1 m2]", got)
	}
}
