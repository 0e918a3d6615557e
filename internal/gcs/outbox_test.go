package gcs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"versadep/internal/vtime"
)

// retained lists the OSeqs o still holds, lowest first; nil when it holds
// none (or is nil).
func (o *outbox) retained() []uint64 {
	if o == nil {
		return nil
	}
	var out []uint64
	for _, f := range *o {
		out = append(out, f.OSeq)
	}
	return out
}

// mapOutbox is the retained-frame structure the outbox replaced, kept here
// as its oracle: frames by OSeq in a map, the order they were pushed in
// beside it, and a resend that walks the order and skips what the map no
// longer holds.
type mapOutbox struct {
	pending map[uint64]*frame
	order   []uint64
}

func (o *mapOutbox) push(f *frame) {
	o.pending[f.OSeq] = f
	o.order = append(o.order, f.OSeq)
}

func (o *mapOutbox) ack(oseq uint64) { delete(o.pending, oseq) }

func (o *mapOutbox) ackThrough(oseq uint64) {
	for s := range o.pending {
		if s <= oseq {
			delete(o.pending, s)
		}
	}
}

func (o *mapOutbox) resend(now time.Time, interval time.Duration, send func(*frame)) {
	sent := 0
	for _, oseq := range o.order {
		if sent == resendBurst {
			break
		}
		if f, ok := o.pending[oseq]; ok && now.Sub(f.lastSend) >= interval {
			send(f)
			sent++
		}
	}
	keep := o.order[:0]
	for _, oseq := range o.order {
		if _, ok := o.pending[oseq]; ok {
			keep = append(keep, oseq)
		}
	}
	o.order = keep
}

func (o *mapOutbox) retained() []uint64 {
	var out []uint64
	for _, oseq := range o.order {
		if _, ok := o.pending[oseq]; ok {
			out = append(out, oseq)
		}
	}
	return out
}

// TestOutboxMatchesMapOracle runs seeded streams of pushes, exact and
// cumulative acknowledgements and resend ticks on a hand-moved clock
// through the outbox and the oracle, and compares what each retains and
// what each re-sends, in order, after every step. Some streams acknowledge
// a frame from inside its resend, as a sequencer's loopback does.
func TestOutboxMatchesMapOracle(t *testing.T) {
	const interval = 30 * time.Millisecond
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got outbox
		want := mapOutbox{pending: map[uint64]*frame{}}
		now := time.Unix(1000, 0)
		next := uint64(0)
		loopback := rng.Intn(4) == 0
		for step := 0; step < 300; step++ {
			var op string
			var gotSent, wantSent []uint64
			switch r := rng.Intn(10); {
			case r < 4:
				next += 1 + uint64(rng.Intn(3)) // streams may skip numbers
				op = fmt.Sprintf("push %d", next)
				got.push(&frame{OSeq: next, lastSend: now})
				want.push(&frame{OSeq: next, lastSend: now})
			case r < 6:
				oseq := uint64(rng.Int63n(int64(next) + 2))
				op = fmt.Sprintf("ack %d", oseq)
				got.ack(oseq)
				want.ack(oseq)
			case r < 7:
				oseq := uint64(rng.Int63n(int64(next) + 2))
				op = fmt.Sprintf("ackThrough %d", oseq)
				got.ackThrough(oseq)
				want.ackThrough(oseq)
			default:
				now = now.Add(time.Duration(rng.Int63n(int64(2 * interval))))
				op = fmt.Sprintf("resend at +%v", now.Sub(time.Unix(1000, 0)))
				got.resend(now, interval, func(f *frame) {
					f.lastSend = now
					gotSent = append(gotSent, f.OSeq)
					if loopback && f.OSeq%3 == 0 {
						got.ack(f.OSeq)
					}
				})
				want.resend(now, interval, func(f *frame) {
					f.lastSend = now
					wantSent = append(wantSent, f.OSeq)
					if loopback && f.OSeq%3 == 0 {
						want.ack(f.OSeq)
					}
				})
			}
			if !reflect.DeepEqual(gotSent, wantSent) {
				t.Fatalf("seed %d step %d (%s): outbox re-sent %v, oracle %v", seed, step, op, gotSent, wantSent)
			}
			if g, w := got.retained(), want.retained(); !reflect.DeepEqual(g, w) || len(got) != len(w) {
				t.Fatalf("seed %d step %d (%s): outbox retains %v (len %d), oracle %v", seed, step, op, g, len(got), w)
			}
		}
	}
}

// TestOutboxEachSurvivesLoopback: every retained frame is handed over once,
// in order, even when handing one over acknowledges it and others.
func TestOutboxEachSurvivesLoopback(t *testing.T) {
	var o outbox
	for i := uint64(1); i <= 6; i++ {
		o.push(&frame{OSeq: i})
	}
	var got []uint64
	o.each(func(f *frame) {
		got = append(got, f.OSeq)
		if f.OSeq == 2 {
			o.ackThrough(3)
		}
		o.ack(f.OSeq)
	})
	if fmt.Sprint(got) != "[1 2 4 5 6]" || len(o) != 0 {
		t.Fatalf("each handed over %v and left %d frames, want [1 2 4 5 6] and none", got, len(o))
	}
}

// TestOutboxSteadyStateAllocatesNothing: once warm, a frame pushed and
// acknowledged — with another in flight behind it, as on a pipelined
// stream — and a resend tick over a full backlog cost no allocation.
func TestOutboxSteadyStateAllocatesNothing(t *testing.T) {
	var o outbox
	frames := []*frame{{}, {}}
	oseq := uint64(1)
	o.push(&frame{OSeq: oseq})
	cycle := func() {
		f := frames[oseq%2]
		oseq++
		f.OSeq = oseq
		o.push(f)
		o.ack(oseq - 1)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("push and ack: %v allocations, want 0", allocs)
	}
	if len(o) != 1 {
		t.Fatalf("outbox holds %d frames, want 1", len(o))
	}

	var backlog outbox
	for i := uint64(1); i <= 4*resendBurst; i++ {
		backlog.push(&frame{OSeq: i})
	}
	now, sent := time.Unix(1000, 0), 0
	tick := func() {
		now = now.Add(time.Second)
		backlog.resend(now, time.Millisecond, func(f *frame) { f.lastSend = now; sent++ })
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("resend tick: %v allocations, want 0", allocs)
	}
	if sent != 101*resendBurst {
		t.Errorf("%d frames re-sent over 101 ticks, want %d", sent, 101*resendBurst)
	}
}

// TestMemberSubmissionResendBurstIsBounded: with thousands of a member's own
// submissions unsequenced while the sequencer is silent, a tick re-sends the
// resendBurst oldest and leaves the rest to the ticks that follow.
func TestMemberSubmissionResendBurstIsBounded(t *testing.T) {
	const backlog = 5000
	cfg := quietConfig()
	r := openRig(t, cfg, "b", "a", "b") // a sequences and never answers
	for i := 0; i < backlog; i++ {
		if err := r.m.Multicast([]byte("request"), Agreed, 0, vtime.Ledger{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.conn.sends(t, kData)); n != backlog {
		t.Fatalf("first transmission: %d submissions, want %d", n, backlog)
	}
	// Every submission falls due at the first tick; the clock then stands
	// still, so one just re-sent is not due again while the rest are.
	next, advance := uint64(1), cfg.ResendInterval
	for ticks := 0; ; ticks++ {
		before := r.conn.count()
		r.tick(advance)
		advance = 0
		var got []uint64
		r.conn.mu.Lock()
		for _, s := range r.conn.sent[before:] {
			if f := decodeSent(t, s); f.Kind == kData {
				if s.to != "a" {
					t.Fatalf("submission re-sent to %q, want the sequencer", s.to)
				}
				got = append(got, f.OSeq)
			}
		}
		r.conn.mu.Unlock()
		if len(got) == 0 {
			break
		}
		if len(got) > resendBurst {
			t.Fatalf("tick %d re-sent %d submissions, burst is %d", ticks, len(got), resendBurst)
		}
		for _, oseq := range got {
			if oseq != next {
				t.Fatalf("tick %d re-sent OSeq %d, want %d (oldest first, each once)", ticks, oseq, next)
			}
			next++
		}
	}
	if next-1 != backlog {
		t.Fatalf("sweep covered OSeqs 1..%d, want 1..%d", next-1, backlog)
	}
}
