package replication

// Chunked, resumable joiner state transfer.
//
// The all-or-nothing KindState checkpoint path remains in place for synced
// backups (periodic checkpoints in the passive styles), but joiners are
// brought up through this protocol instead: the state leader captures a
// "bookmark" checkpoint, splits it into ordered chunks, and streams them
// point-to-point under a bounded send window. The joiner acks cumulative
// contiguous progress, so after a network fault the leader resumes at the
// (CkptSerial, ChunkIndex) cursor instead of re-sending everything. Both
// ends share the checkpoint path's two halves (checkpoint.go): the
// bookmark is a capture, and the assembled state goes through install.
//
// Invariants:
//
//   - A cursor only ever names a prefix: the joiner acks the count of
//     contiguously received chunks, so resuming at the cursor can never
//     skip a hole.
//   - Bookmarks are retained (bounded by transferBookmarks, pinned
//     while a transfer is active), so a joiner lagging across a checkpoint
//     boundary can still finish the serial it started — convergence is
//     monotone under repeated invocation.
//   - A resume is only honored while the joiner has stayed in the view
//     since the bookmark was captured. Virtual synchrony guarantees such a
//     joiner logged every request ordered after the capture; a joiner that
//     left and rejoined may have missed deliveries in between, so its
//     partial state is discarded and a fresh capture starts the transfer
//     over (correct, just not incremental).
//   - Transfers to different joiners are independent: per-peer cursors,
//     per-peer spans, one shared bookmark when they start in the same view
//     change.

import (
	"fmt"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

// transferAbandonAfter is how long a transfer may sit with no progress
// before the leader gives up on the joiner (it can always come back with a
// resume token while the bookmark is retained).
const transferAbandonAfter = 30 * time.Second

// transferNagPatience is how many consecutive unanswered resume requests a
// joiner sends to the sender of its partial transfer before abandoning the
// partial state and courting the other members fresh.
const transferNagPatience = 4

// bookmark is a retained transfer checkpoint: the capture, with the
// metadata a joiner needs to splice itself into the stream, and its state
// split into chunks.
type bookmark struct {
	ckpt
	chunks [][]byte
}

// outXfer is the leader's cursor for one joiner's in-flight transfer.
type outXfer struct {
	peer   string
	serial uint64
	acked  int // contiguous chunks the joiner has confirmed
	next   int // next chunk index to send
	// sentHigh is the send high-water mark; chunks below it re-sent after
	// a stall or resume are counted as resends, not first transmissions.
	sentHigh     int
	resumes      int
	lastProgress time.Time
	lastSend     time.Time
}

// inXfer is the joiner's reassembly state for one incoming transfer.
type inXfer struct {
	from       string
	serial     uint64
	total      int
	chunks     [][]byte
	have       int // contiguous prefix received
	bytes      int
	coveredSeq uint64
	cache      []CacheEntry
	lastRecv   time.Time
}

// splitChunks slices state into chunkBytes-sized pieces (at least one
// chunk, so zero-length states still complete the protocol).
func splitChunks(state []byte, chunkBytes int) [][]byte {
	var chunks [][]byte
	for off := 0; off < len(state); off += chunkBytes {
		chunks = append(chunks, state[off:min(off+chunkBytes, len(state))])
	}
	if len(chunks) == 0 {
		chunks = [][]byte{{}}
	}
	return chunks
}

// ---- leader side ----

// captureBookmark snapshots the application state for transfer and retains
// it. The capture cost occupies the leader's CPU like a checkpoint capture,
// but it is not a periodic checkpoint: no agreed-stream marker, no
// Stats.Checkpoints increment, no checkpoint-counter reset.
func (e *Engine) captureBookmark(vt vtime.Time) *bookmark {
	bm := &bookmark{ckpt: e.capture(vt, 0)}
	bm.chunks = splitChunks(bm.state, e.cfg.TransferChunkBytes)
	e.bookmarks = append(e.bookmarks, bm)
	e.pruneBookmarks()
	e.tr.Event(trace.SubReplication, "bookmark", bm.vt, int64(bm.serial))
	return bm
}

// transferBookmarks is how many transfer checkpoints a leader retains for
// resumption; active transfers pin theirs beyond it.
const transferBookmarks = 3

// pruneBookmarks drops the oldest bookmarks beyond the retention cap,
// never evicting one pinned by an active transfer.
func (e *Engine) pruneBookmarks() {
	excess := len(e.bookmarks) - transferBookmarks // pinned ones may stay over
	kept := e.bookmarks[:0]
	for _, bm := range e.bookmarks {
		if excess > 0 && !e.bookmarkPinned(bm.serial) {
			excess--
			continue
		}
		kept = append(kept, bm)
	}
	clear(e.bookmarks[len(kept):])
	e.bookmarks = kept
}

func (e *Engine) bookmarkPinned(serial uint64) bool {
	for _, x := range e.xfers {
		if x.serial == serial {
			return true
		}
	}
	return false
}

func (e *Engine) findBookmark(serial uint64) *bookmark {
	for _, bm := range e.bookmarks {
		if bm.serial == serial {
			return bm
		}
	}
	return nil
}

// startTransfers begins chunked transfers to the given joiners off one
// shared bookmark capture.
func (e *Engine) startTransfers(joiners []string, vt vtime.Time) {
	if len(joiners) == 0 {
		return
	}
	bm := e.captureBookmark(vt)
	for _, p := range joiners {
		e.beginTransfer(p, bm, bm.vt, 0, false)
	}
}

// beginTransfer opens (or reopens) the per-peer cursor at the given chunk
// offset and pumps the first window. resumed marks cursors restored from a
// resume token rather than started fresh.
func (e *Engine) beginTransfer(peer string, bm *bookmark, vt vtime.Time, from int, resumed bool) {
	from = min(from, len(bm.chunks))
	if old := e.xfers[peer]; old != nil {
		e.spans.End("transfer:"+old.peer, vt, "superseded")
	}
	x := &outXfer{
		peer:         peer,
		serial:       bm.serial,
		acked:        from,
		next:         from,
		sentHigh:     from,
		lastProgress: time.Now(),
	}
	e.xfers[peer] = x
	e.cXferActive.Store(int64(len(e.xfers)))
	e.cXferStarts.Inc()
	if resumed {
		x.resumes++
		e.cXferResumes.Inc()
		e.cXferBytesResumed.Add(bm.bytesBefore(from))
	}
	if e.spans.On() {
		e.spans.Begin("transfer:"+peer, span.NameKey(span.TransferTrace(e.Addr(), peer, bm.serial)),
			"state_transfer", span.CompReplicator, vt)
	}
	e.notify(Notice{Kind: NoticeTransfer, VT: vt, Style: e.style,
		Peer: peer, Serial: bm.serial, Chunk: from, Chunks: len(bm.chunks), Resumed: resumed})
	e.pumpTransfer(x, bm, vt)
	// A transfer that starts at (or resumes to) the end completes on the
	// joiner's final ack like any other; nothing special to do here.
}

// bytesBefore is the bytes of the first n chunks, which a resume at n skips
// re-sending. Every chunk but the last is as long as the first.
func (bm *bookmark) bytesBefore(n int) int64 {
	return int64(min(n*len(bm.chunks[0]), len(bm.state)))
}

// pumpTransfer sends chunks up to the window limit past the acked cursor.
func (e *Engine) pumpTransfer(x *outXfer, bm *bookmark, vt vtime.Time) {
	for x.next < len(bm.chunks) && x.next < x.acked+e.cfg.TransferWindow {
		e.sendChunk(x, bm, x.next, vt)
		x.next++
	}
}

func (e *Engine) sendChunk(x *outXfer, bm *bookmark, i int, vt vtime.Time) {
	msg := &Msg{
		Kind:       KindStateChunk,
		State:      bm.chunks[i],
		CkptSerial: bm.serial,
		CoveredSeq: bm.coveredSeq,
		ChunkIndex: uint32(i),
		ChunkCount: uint32(len(bm.chunks)),
	}
	if i == len(bm.chunks)-1 {
		msg.Cache = bm.cache
	}
	e.sendDirect(x.peer, msg, vt)
	x.lastSend = time.Now()
	e.cXferChunksSent.Inc()
	e.cXferBytesSent.Add(int64(len(bm.chunks[i])))
	if i < x.sentHigh {
		e.cXferChunkResends.Inc()
	} else {
		x.sentHigh = i + 1
	}
}

// handleChunkAck advances the cursor on the joiner's cumulative ack and
// completes the transfer once every chunk is confirmed.
func (e *Engine) handleChunkAck(ev gcs.Event, msg *Msg) {
	x := e.xfers[ev.Sender]
	if x == nil || x.serial != msg.CkptSerial {
		return // stale ack for a superseded or completed transfer
	}
	bm := e.findBookmark(x.serial)
	if bm == nil {
		e.abortTransfer(x, ev.VTime, "bookmark evicted")
		return
	}
	if have := min(int(msg.ChunkIndex), len(bm.chunks)); have > x.acked {
		x.acked = have
		x.lastProgress = time.Now()
		e.notify(Notice{Kind: NoticeTransfer, VT: ev.VTime, Style: e.style,
			Peer: x.peer, Serial: x.serial, Chunk: x.acked, Chunks: len(bm.chunks)})
	}
	if x.acked >= len(bm.chunks) {
		delete(e.xfers, x.peer)
		e.cXferActive.Store(int64(len(e.xfers)))
		e.cXferCompletes.Inc()
		e.tr.Event(trace.SubReplication, "transfer_complete", ev.VTime, int64(len(bm.state)))
		if e.spans.On() {
			e.spans.End("transfer:"+x.peer, ev.VTime,
				fmt.Sprintf("chunks=%d resumes=%d", len(bm.chunks), x.resumes))
		}
		e.pruneBookmarks()
		return
	}
	e.pumpTransfer(x, bm, ev.VTime)
}

// handleResumeReq serves a joiner's resume token. Any synced member
// answers — the coordinator itself may be an unsynced rejoiner whose rank
// restored it to the front of the view; the joiner rotates its requests
// until one lands on a member with state to serve. Unsynced members stay
// silent and the joiner retries elsewhere.
func (e *Engine) handleResumeReq(ev gcs.Event, msg *Msg) {
	peer := ev.Sender
	if !e.view.Contains(peer) {
		return
	}
	if !e.synced {
		// Nothing to serve — but silence here can wedge the group: if a
		// cascade of partitions and crashes left every view member
		// unsynced, each would nag the others forever. Answer with how
		// far our own retained state reaches so the most advanced member
		// can promote itself (handleResumeNak).
		nak := &Msg{Kind: KindResumeNak, CoveredSeq: e.lastExecSeq}
		e.sendDirect(peer, nak, ev.VTime)
		return
	}
	if x := e.xfers[peer]; x != nil {
		bm := e.findBookmark(x.serial)
		if bm == nil {
			e.abortTransfer(x, ev.VTime, "bookmark evicted")
		} else if msg.CkptSerial == x.serial {
			// The joiner still holds our serial: trust its cursor (an ack
			// may have been lost in either direction) and, if the stream
			// has stalled, rewind the window to it.
			if have := int(msg.ChunkIndex); have > x.acked && have <= len(bm.chunks) {
				x.acked = have
				x.lastProgress = time.Now()
			}
			if time.Since(x.lastSend) >= e.transferStallAfter() {
				e.resumeTransfer(x, bm, ev.VTime)
			}
			return
		} else {
			// The joiner lost its partial state (restart) or holds a
			// different sender's serial: restart the cursor at zero on our
			// retained bookmark.
			e.beginTransfer(peer, bm, ev.VTime, 0, false)
			return
		}
	}
	// No transfer in flight. A token naming one of our retained bookmarks
	// resumes it at the cursor; anything else gets a fresh capture.
	if msg.CkptSerial != 0 {
		if bm := e.findBookmark(msg.CkptSerial); bm != nil {
			e.beginTransfer(peer, bm, ev.VTime, int(msg.ChunkIndex), true)
			return
		}
	}
	e.startTransfers([]string{peer}, ev.VTime)
}

// handleResumeNak records a peer's declaration that it, too, is unsynced.
// Once every other view member has nak'd — meaning the view holds no
// synced member at all (a synced member serves instead of nak'ing, so its
// presence blocks this path) — the member whose retained state reaches
// furthest promotes itself back to synced and serves the rest. Ties break
// toward the lowest-ranked member. This is the total-failure recovery
// rule: when cascaded partitions and crashes leave no authoritative copy,
// the group restarts from the most advanced surviving state rather than
// wedging forever.
func (e *Engine) handleResumeNak(ev gcs.Event, msg *Msg) {
	if e.synced || !e.view.Contains(ev.Sender) {
		return
	}
	e.xferNaks[ev.Sender] = msg.CoveredSeq
	for _, m := range e.view.Members {
		if m == e.Addr() {
			continue
		}
		seq, ok := e.xferNaks[m]
		if !ok {
			return // still waiting to hear from m
		}
		if seq > e.lastExecSeq || (seq == e.lastExecSeq && m < e.Addr()) {
			return // m is a better candidate; it will promote instead
		}
	}
	e.synced = true
	e.resetInXfer()
	e.cXferPromotes.Inc()
	e.tr.Event(trace.SubReplication, "transfer_self_promote", ev.VTime, int64(e.lastExecSeq))
	e.startTransfers(e.peers(nil), ev.VTime)
}

// peers lists the view's members other than this replica and those in
// skip, in rank order.
func (e *Engine) peers(skip map[string]bool) []string {
	var out []string
	for _, m := range e.view.Members {
		if m != e.Addr() && !skip[m] {
			out = append(out, m)
		}
	}
	return out
}

// resumeTransfer rewinds the send window to the acked cursor after a
// stall, counting the skipped prefix as resumed bytes.
func (e *Engine) resumeTransfer(x *outXfer, bm *bookmark, vt vtime.Time) {
	x.next = x.acked
	x.resumes++
	x.lastProgress = time.Now()
	e.cXferResumes.Inc()
	e.cXferBytesResumed.Add(bm.bytesBefore(x.acked))
	e.notify(Notice{Kind: NoticeTransfer, VT: vt, Style: e.style,
		Peer: x.peer, Serial: x.serial, Chunk: x.acked, Chunks: len(bm.chunks), Resumed: true})
	e.pumpTransfer(x, bm, vt)
}

func (e *Engine) transferStallAfter() time.Duration {
	return 2 * e.cfg.TransferRetryEvery
}

// abortTransfer drops the cursor and closes its span with the reason.
func (e *Engine) abortTransfer(x *outXfer, vt vtime.Time, why string) {
	delete(e.xfers, x.peer)
	e.cXferActive.Store(int64(len(e.xfers)))
	e.cXferAborts.Inc()
	e.spans.End("transfer:"+x.peer, vt, why)
	e.pruneBookmarks()
}

// transferPending reports whether the retry driver has work: a transfer
// this replica is sending or receiving, or, unsynced in a group with
// others, one it has yet to ask for.
func (e *Engine) transferPending() bool {
	return len(e.xfers) > 0 || e.rx != nil || (!e.synced && len(e.view.Members) > 1)
}

// armRetry starts the retry driver's ticker when on and stops it when not.
func (e *Engine) armRetry(on bool) {
	switch {
	case on && e.retry == nil:
		e.retry = time.NewTicker(e.cfg.TransferRetryEvery)
	case !on && e.retry != nil:
		e.retry.Stop()
		e.retry = nil
	}
}

// transferTick is the real-time retry driver, run by tick as of now. The
// leader re-sends the window of any stalled transfer and abandons joiners
// that have made no progress for transferAbandonAfter; an unsynced joiner
// keeps offering its resume token to the current coordinator.
func (e *Engine) transferTick(now time.Time) {
	stall := e.transferStallAfter()
	for _, x := range e.xfers {
		if now.Sub(x.lastProgress) > transferAbandonAfter {
			e.abortTransfer(x, e.lastVT, "abandoned")
			continue
		}
		if now.Sub(x.lastSend) >= stall {
			bm := e.findBookmark(x.serial)
			if bm == nil {
				e.abortTransfer(x, e.lastVT, "bookmark evicted")
				continue
			}
			e.resumeTransfer(x, bm, e.lastVT)
		}
	}

	if e.synced || len(e.view.Members) <= 1 {
		return
	}
	if e.rx != nil && !e.view.Contains(e.rx.from) {
		// The sender left under a partial transfer. Its serial is
		// meaningless to any successor (serials are per-sender), and
		// deliveries may have been missed between memberships — discard
		// and ask for a fresh transfer.
		e.resetInXfer()
	}
	if e.rx != nil && now.Sub(e.rx.lastRecv) < stall {
		return // chunks are flowing; no need to nag
	}
	if now.Sub(e.xferLastNag) < stall {
		return // give the previous request a chance to land first
	}
	e.xferLastNag = now
	if e.rx != nil {
		// A partial transfer is in flight: keep asking its sender to
		// resume. Courting anyone else would invite a second sender whose
		// fresh stream supersedes the cursor — and the resume token is
		// only meaningful to the sender that minted the serial. Only after
		// several silent periods (the sender crashed and came back
		// unsynced, or lost the bookmark) is the partial state abandoned
		// so the search below can start over.
		if e.xferNagMiss < transferNagPatience {
			e.xferNagMiss++
			req := &Msg{Kind: KindResumeReq, CkptSerial: e.rx.serial, ChunkIndex: uint32(e.rx.have)}
			e.sendDirect(e.rx.from, req, e.lastVT)
			return
		}
		e.resetInXfer()
	}
	// Nothing in flight: rotate fresh requests across members that did not
	// just join, starting from the transfer leader (lowest rank). Any
	// synced one answers. Fixed targeting could starve — the coordinator
	// itself may be an unsynced rejoiner with nothing to serve.
	targets := e.peers(e.viewJoiners)
	if len(targets) == 0 {
		targets = e.peers(nil)
	}
	if len(targets) == 0 {
		return
	}
	target := targets[e.xferNag%len(targets)]
	e.xferNag++
	e.sendDirect(target, &Msg{Kind: KindResumeReq}, e.lastVT)
}

// ---- joiner side ----

// handleStateChunk receives one transfer chunk, acks cumulative progress,
// and applies the assembled state once the prefix is complete.
func (e *Engine) handleStateChunk(ev gcs.Event, msg *Msg) {
	if e.synced {
		// Already synced (e.g. a periodic checkpoint beat the chunks, or a
		// duplicate of the final chunk after our last ack was lost): claim
		// completion so the leader closes its cursor and stops sending.
		ack := &Msg{Kind: KindChunkAck, CkptSerial: msg.CkptSerial, ChunkIndex: msg.ChunkCount}
		e.sendDirect(ev.Sender, ack, ev.VTime)
		return
	}
	total := int(msg.ChunkCount)
	idx := int(msg.ChunkIndex)
	if total <= 0 || idx < 0 || idx >= total {
		return
	}
	rx := e.rx
	if rx == nil || rx.serial != msg.CkptSerial || rx.from != ev.Sender || rx.total != total {
		if rx != nil {
			if rx.from == ev.Sender && msg.CkptSerial < rx.serial {
				return // stale chunk of an older serial
			}
			e.resetInXfer()
		}
		rx = &inXfer{
			from:   ev.Sender,
			serial: msg.CkptSerial,
			total:  total,
			chunks: make([][]byte, total),
		}
		e.rx = rx
	}
	rx.lastRecv = time.Now()
	e.xferNagMiss = 0
	if rx.chunks[idx] == nil {
		rx.chunks[idx] = msg.State
		rx.bytes += len(msg.State)
		e.cXferChunksRx.Inc()
		e.cXferBytesRx.Add(int64(len(msg.State)))
	}
	rx.coveredSeq = msg.CoveredSeq
	if msg.Cache != nil {
		rx.cache = msg.Cache
	}
	for rx.have < rx.total && rx.chunks[rx.have] != nil {
		rx.have++
	}
	ack := &Msg{Kind: KindChunkAck, CkptSerial: rx.serial, ChunkIndex: uint32(rx.have)}
	e.sendDirect(ev.Sender, ack, ev.VTime)
	if rx.have < rx.total {
		e.notify(Notice{Kind: NoticeTransfer, VT: ev.VTime, Style: e.style,
			Peer: rx.from, Serial: rx.serial, Chunk: rx.have, Chunks: rx.total})
		return
	}
	e.applyTransfer(ev.VTime)
}

// applyTransfer installs the assembled state, splicing this replica into
// the stream as a joiner applying a full checkpoint does. Only a
// successful install raises the joiner's completion notice.
func (e *Engine) applyTransfer(arrived vtime.Time) {
	rx := e.rx
	c := ckpt{state: make([]byte, 0, rx.bytes), cache: rx.cache, serial: rx.serial, coveredSeq: rx.coveredSeq}
	for _, chunk := range rx.chunks {
		c.state = append(c.state, chunk...)
	}
	vt, err := e.install(&c, rx.from, arrived, true)
	if err != nil {
		e.resetInXfer()
		return
	}
	e.rx = nil
	e.cXferApplied.Inc()
	e.tr.Event(trace.SubReplication, "transfer_applied", vt, int64(len(c.state)))
	e.notify(Notice{Kind: NoticeTransfer, VT: vt, Style: e.style,
		Peer: rx.from, Serial: rx.serial, Chunk: rx.total, Chunks: rx.total})
}

// resetInXfer discards a partial incoming transfer.
func (e *Engine) resetInXfer() {
	if e.rx == nil {
		return
	}
	e.tr.Event(trace.SubReplication, "transfer_rx_reset", e.lastVT, int64(e.rx.have))
	e.rx = nil
}

// stopTransfers closes every open transfer cursor as the engine shuts
// down, so no transfer span outlives its engine.
func (e *Engine) stopTransfers() {
	for _, x := range e.xfers {
		e.spans.End("transfer:"+x.peer, e.lastVT, "engine stopped")
	}
	e.xfers = make(map[string]*outXfer)
	e.cXferActive.Store(0)
	e.rx = nil
}
