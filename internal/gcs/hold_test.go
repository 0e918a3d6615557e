package gcs

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"versadep/internal/transport"
)

// A frame that need not wait is delivered or sequenced straight from its
// decode, and only a frame that must wait is copied into the holdback or
// the sequencer's hold. The tests below drive the copying path, which an
// in-order stream rarely takes, through every arrival order.

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// feed hands m the encoded frames in the given order, each as a message
// from from.
func (r *rig) feed(from string, frames []*frame, order []int) {
	r.t.Helper()
	msgs := make([]transport.Message, len(order))
	for i, k := range order {
		msgs[i] = transport.Message{From: from, To: r.m.Addr(), Payload: encodeFrame(frames[k])}
	}
	r.do(func() {
		for _, msg := range msgs {
			r.m.handleMessage(msg)
		}
	})
}

// deliveries reads the events r's member delivers until it has n messages,
// and returns what it read, view changes included, as one line each.
func (r *rig) deliveries(n int) []string {
	r.t.Helper()
	var out []string
	timeout := time.After(5 * time.Second)
	for got := 0; got < n; {
		select {
		case e := <-r.m.Out():
			switch e.Kind {
			case EventMessage:
				got++
				out = append(out, fmt.Sprintf("seq %d from %s: %s", e.Seq, e.Sender, e.Payload))
			case EventView:
				out = append(out, fmt.Sprintf("view %d %v", e.View.ID, e.View.Members))
			}
		case <-timeout:
			r.t.Fatalf("%d of %d messages delivered: %q", got, n, out)
		}
	}
	return out
}

// TestDeliveryWhateverTheArrivalOrder: a member handed a burst of sequenced
// frames — three data frames, a proposer's no-op filler in a slot of its
// own, and a duplicate — in any of the 120 orders delivers the same
// messages in sequence order, and holds nothing once the burst is in.
func TestDeliveryWhateverTheArrivalOrder(t *testing.T) {
	burst := []*frame{
		{Kind: kSeq, ViewID: 1, Seq: 1, Origin: "a", OSeq: 1, Level: Agreed, Payload: []byte("one")},
		{Kind: kSeq, ViewID: 1, Seq: 2, Level: Agreed}, // filler
		{Kind: kSeq, ViewID: 1, Seq: 3, Origin: "a", OSeq: 2, Level: Agreed, Payload: []byte("two")},
		{Kind: kSeq, ViewID: 1, Seq: 4, Origin: "x", OSeq: 1, Level: Agreed, Payload: []byte("three")},
		{Kind: kSeq, ViewID: 1, Seq: 3, Origin: "a", OSeq: 2, Level: Agreed, Payload: []byte("two")},
	}
	want := []string{"view 1 [b]", "seq 1 from a: one", "seq 3 from a: two", "seq 4 from x: three"}
	for _, order := range permutations(len(burst)) {
		r := openRig(t, deferConfig(), "b", "a", "b")
		r.feed("a", burst, order)
		if got := r.deliveries(3); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v delivered %q, want %q", order, got, want)
		}
		r.do(func() {
			if len(r.m.holdback) != 0 || r.m.nextDeliver != 5 {
				t.Fatalf("order %v: %d frames held, next to deliver %d; want none held and 5", order, len(r.m.holdback), r.m.nextDeliver)
			}
		})
		r.m.Stop()
	}
}

// TestSequencingWhateverTheArrivalOrder: the sequencer handed four
// submissions of one external origin in any of the 24 orders sequences
// them in OSeq order under consecutive sequence numbers, and holds nothing
// once all four are in.
func TestSequencingWhateverTheArrivalOrder(t *testing.T) {
	var subs []*frame
	for oseq := uint64(1); oseq <= 4; oseq++ {
		subs = append(subs, &frame{Kind: kData, Origin: "x", OSeq: oseq, Level: Agreed, Payload: []byte{byte(oseq)}})
	}
	for _, order := range permutations(len(subs)) {
		r := openRig(t, deferConfig(), "a", "a", "b")
		r.feed("x", subs, order)
		seqs := frames(t, r.conn, kSeq)
		if len(seqs) != len(subs) {
			t.Fatalf("order %v: %d kSeq frames multicast, want %d", order, len(seqs), len(subs))
		}
		for i, f := range seqs {
			if n := uint64(i + 1); f.Seq != n || f.Origin != "x" || f.OSeq != n || f.Payload[0] != byte(n) {
				t.Fatalf("order %v: kSeq %d is seq %d, %s's OSeq %d; want seq %d, x's OSeq %d", order, i, f.Seq, f.Origin, f.OSeq, n, n)
			}
		}
		r.do(func() {
			if n := len(r.m.dataHold["x"]); n != 0 {
				t.Fatalf("order %v: %d submissions still held", order, n)
			}
		})
		r.m.Stop()
	}
}

// TestBlockedMemberHoldsUntilInstall: a member blocked by a flush holds
// even the frame next in order, and delivers what it held, then the view,
// once the view installs; the next frame after it is delivered as it
// arrives.
func TestBlockedMemberHoldsUntilInstall(t *testing.T) {
	r := openRig(t, deferConfig(), "b", "a", "b")
	r.feed("a", []*frame{{Kind: kPrepare, ViewID: 2, Origin: "a", Members: []string{"a", "b"}}}, []int{0})
	data := []*frame{
		{Kind: kSeq, ViewID: 1, Seq: 2, Origin: "a", OSeq: 2, Level: Agreed, Payload: []byte("two")},
		{Kind: kSeq, ViewID: 1, Seq: 1, Origin: "a", OSeq: 1, Level: Agreed, Payload: []byte("one")},
	}
	r.feed("a", data, []int{0, 1})
	r.do(func() {
		if !r.m.blocked || len(r.m.holdback) != 2 || r.m.nextDeliver != 1 {
			t.Fatalf("blocked %v, %d held, next %d; want blocked, 2 held, next 1", r.m.blocked, len(r.m.holdback), r.m.nextDeliver)
		}
	})
	view := &frame{Kind: kView, ViewID: 2, Seq: 3, Origin: "a", Members: []string{"a", "b"},
		Aux: encodeSeenData(map[string]uint64{"a": 2})}
	after := &frame{Kind: kSeq, ViewID: 2, Seq: 4, Origin: "a", OSeq: 3, Level: Agreed, Payload: []byte("three")}
	r.feed("a", []*frame{view, after}, []int{0, 1})
	want := []string{"view 1 [b]", "seq 1 from a: one", "seq 2 from a: two", "view 2 [a b]", "seq 4 from a: three"}
	if got := r.deliveries(3); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	r.do(func() {
		if r.m.blocked || len(r.m.holdback) != 0 || r.m.nextDeliver != 5 {
			t.Fatalf("blocked %v, %d held, next %d; want unblocked, none held, next 5", r.m.blocked, len(r.m.holdback), r.m.nextDeliver)
		}
	})
}
