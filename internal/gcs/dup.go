package gcs

import (
	"cmp"
	"slices"
	"time"
)

// dupFilter suppresses duplicates of the reliable direct unicast stream,
// per sending peer: every sequence number at or below high[peer] has been
// seen, and sparse[peer] holds the ones seen above it (arrivals past a
// gap), folded into the watermark as soon as the gap fills.
type dupFilter struct {
	high   map[string]uint64
	sparse map[string]map[uint64]bool
}

func newDupFilter() dupFilter {
	return dupFilter{
		high:   make(map[string]uint64),
		sparse: make(map[string]map[uint64]bool),
	}
}

// seen records oseq from peer and reports whether it had been recorded
// before.
func (d *dupFilter) seen(peer string, oseq uint64) bool {
	high := d.high[peer]
	if oseq <= high {
		return true
	}
	sparse := d.sparse[peer]
	if sparse == nil {
		sparse = make(map[uint64]bool)
		d.sparse[peer] = sparse
	}
	if sparse[oseq] {
		return true
	}
	sparse[oseq] = true
	d.high[peer] = compact(sparse, high)
	return false
}

// skipTo moves peer's watermark up to through: the peer has given up on
// every frame at or below it that did not arrive, so the gaps they left
// will never fill.
func (d *dupFilter) skipTo(peer string, through uint64) {
	if through <= d.high[peer] {
		return
	}
	sparse := d.sparse[peer]
	for s := range sparse {
		if s <= through {
			delete(sparse, s)
		}
	}
	d.high[peer] = compact(sparse, through)
}

// compact folds the entries of sparse contiguous with high into it and
// returns the watermark they reach.
func compact(sparse map[uint64]bool, high uint64) uint64 {
	for sparse[high+1] {
		high++
		delete(sparse, high)
	}
	return high
}

// owedAcks is the other half of the stream's receive side: the direct
// frames from one peer that have arrived and not been acknowledged yet, and
// the payload bytes the peer retains for retransmission until they are.
type owedAcks struct {
	seqs  []uint64
	bytes int
}

// An owed acknowledgement waits for the next tick unless the peer is
// holding ackOwedBytes of payload or ackOwedFrames frames for it by then.
// The byte bound is what keeps a sender of large state frames from
// retaining a tick's worth of them (a 64 KB frame exceeds it alone and is
// acknowledged at once); the frame bound is the length bound every other
// sequence list on the wire has.
const (
	ackOwedBytes  = 32 << 10
	ackOwedFrames = 64
)

// add records a received frame and reports whether the debt has reached a
// bound and must be paid now.
func (o *owedAcks) add(oseq uint64, size int) bool {
	o.seqs = append(o.seqs, oseq)
	o.bytes += size
	return o.bytes >= ackOwedBytes || len(o.seqs) >= ackOwedFrames
}

// settle empties the debt and returns what a cumulative acknowledgement at
// watermark high leaves to name one by one: the owed frames above it.
func (o *owedAcks) settle(high uint64) []uint64 {
	var above []uint64
	for _, s := range o.seqs {
		if s > high {
			above = append(above, s)
		}
	}
	o.seqs, o.bytes = o.seqs[:0], 0
	return above
}

// outbox is the send side of a reliable stream: the frames sent and not yet
// acknowledged, in ascending OSeq order — every stream numbers its frames
// upward and pushes them as it numbers them — each sent again until an
// acknowledgement removes it. A member keeps one for its own submissions
// and one per direct peer; a GroupClient keeps one for its submissions. In
// steady state it holds the few frames in flight, so removal shifts a
// handful of pointers down and the array is reused from the start.
type outbox []*frame

// resendBurst bounds the retained frames one tick re-sends to one peer. A
// sweep over everything due grows with the backlog: once it outlasts
// ResendInterval every frame is due again when it ends, the peer answers
// each duplicate at once, and the storm feeds itself. The oldest frames go
// first — they are what the peer's cumulative acknowledgement and the
// sequencer's per-origin FIFO wait for — and successive ticks cover the rest.
const resendBurst = 64

// push retains f, whose OSeq is above every retained frame's.
func (o *outbox) push(f *frame) { *o = append(*o, f) }

// search returns the index of the first retained frame numbered oseq or
// above, and whether that frame is oseq.
func (o outbox) search(oseq uint64) (int, bool) {
	return slices.BinarySearchFunc(o, oseq, func(f *frame, oseq uint64) int { return cmp.Compare(f.OSeq, oseq) })
}

// ackThrough drops every retained frame up to oseq: a cumulative
// acknowledgement. Zero acknowledges nothing.
func (o *outbox) ackThrough(oseq uint64) {
	i, found := o.search(oseq)
	if found {
		i++
	}
	*o = slices.Delete(*o, 0, i)
}

// ack drops the retained frame numbered oseq, if there is one.
func (o *outbox) ack(oseq uint64) {
	if i, found := o.search(oseq); found {
		*o = slices.Delete(*o, i, i+1)
	}
}

// resend hands send at most resendBurst retained frames, lowest OSeq first,
// each only once interval has passed since its lastSend: a frame sent
// microseconds before the tick is not lost, its acknowledgement is on the
// way. send stamps lastSend when the frame goes on the wire, and may
// acknowledge frames as it goes (a sequencer's own submission comes back
// delivered at once).
func (o *outbox) resend(now time.Time, interval time.Duration, send func(*frame)) {
	for i, sent := 0, 0; i < len(*o) && sent < resendBurst; {
		f := (*o)[i]
		if now.Sub(f.lastSend) < interval {
			i++
			continue
		}
		send(f)
		sent++
		i, _ = o.search(f.OSeq + 1)
	}
}

// each hands send every retained frame, lowest OSeq first, on resend's
// terms but with no interval and no burst bound.
func (o *outbox) each(send func(*frame)) {
	for i := 0; i < len(*o); {
		f := (*o)[i]
		send(f)
		i, _ = o.search(f.OSeq + 1)
	}
}
