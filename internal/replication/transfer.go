package replication

// Chunked, resumable joiner state transfer.
//
// The all-or-nothing KindState checkpoint path remains in place for synced
// backups (periodic checkpoints in the passive styles), but joiners are
// brought up through this protocol instead: the state leader captures a
// "bookmark" checkpoint, splits it into ordered chunks, and streams them
// point-to-point under a bounded send window. The joiner acks cumulative
// contiguous progress, so after a network fault the leader resumes at the
// (CkptSerial, ChunkIndex) cursor instead of re-sending everything.
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

// bookmark is a retained transfer checkpoint: the split state plus the
// metadata a joiner needs to splice itself into the stream.
type bookmark struct {
	serial     uint64
	chunks     [][]byte
	size       int
	coveredSeq uint64
	cache      []CacheEntry
	vt         vtime.Time
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
	startVT      vtime.Time
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
	if chunkBytes <= 0 {
		chunkBytes = 4096
	}
	var chunks [][]byte
	for off := 0; off < len(state); off += chunkBytes {
		end := off + chunkBytes
		if end > len(state) {
			end = len(state)
		}
		chunks = append(chunks, state[off:end])
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
	state := e.cfg.State.State()
	cost := e.cfg.Model.CheckpointCost(len(state))
	vt = e.cpu.Execute(vt, cost)

	e.ckptSerial++
	bm := &bookmark{
		serial:     e.ckptSerial,
		chunks:     splitChunks(state, e.cfg.TransferChunkBytes),
		size:       len(state),
		coveredSeq: e.lastExecSeq,
		cache:      e.captureCache(),
		vt:         vt,
	}
	e.bookmarks = append(e.bookmarks, bm)
	e.pruneBookmarks()
	e.tr.Event(trace.SubReplication, "bookmark", vt, int64(bm.serial))
	return bm
}

// transferBookmarks is how many transfer checkpoints a leader retains for
// resumption; active transfers pin theirs beyond it.
const transferBookmarks = 3

// pruneBookmarks drops the oldest bookmarks beyond the retention cap,
// never evicting one pinned by an active transfer.
func (e *Engine) pruneBookmarks() {
	for len(e.bookmarks) > transferBookmarks {
		evicted := false
		for i, bm := range e.bookmarks {
			if !e.bookmarkPinned(bm.serial) {
				e.bookmarks = append(e.bookmarks[:i], e.bookmarks[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // every bookmark is pinned; allow the excess
		}
	}
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
	if from > len(bm.chunks) {
		from = len(bm.chunks)
	}
	if old := e.xfers[peer]; old != nil {
		e.endTransferSpan(old, vt, "superseded")
	}
	x := &outXfer{
		peer:         peer,
		serial:       bm.serial,
		acked:        from,
		next:         from,
		sentHigh:     from,
		lastProgress: time.Now(),
		startVT:      vt,
	}
	e.xfers[peer] = x
	e.cXferActive.Store(int64(len(e.xfers)))
	e.cXferStarts.Inc()
	if resumed {
		x.resumes++
		e.cXferResumes.Inc()
		e.cXferBytesResumed.Add(e.bytesBefore(bm, from))
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

// bytesBefore sums the chunk bytes a resume skips re-sending.
func (e *Engine) bytesBefore(bm *bookmark, n int) int64 {
	var total int64
	for i := 0; i < n && i < len(bm.chunks); i++ {
		total += int64(len(bm.chunks[i]))
	}
	return total
}

// pumpTransfer sends chunks up to the window limit past the acked cursor.
func (e *Engine) pumpTransfer(x *outXfer, bm *bookmark, vt vtime.Time) {
	window := e.cfg.TransferWindow
	if window <= 0 {
		window = 4
	}
	for x.next < len(bm.chunks) && x.next < x.acked+window {
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
	have := int(msg.ChunkIndex)
	if have > len(bm.chunks) {
		have = len(bm.chunks)
	}
	if have > x.acked {
		x.acked = have
		x.lastProgress = time.Now()
		e.notify(Notice{Kind: NoticeTransfer, VT: ev.VTime, Style: e.style,
			Peer: x.peer, Serial: x.serial, Chunk: x.acked, Chunks: len(bm.chunks)})
	}
	if x.acked >= len(bm.chunks) {
		delete(e.xfers, x.peer)
		e.cXferActive.Store(int64(len(e.xfers)))
		e.cXferCompletes.Inc()
		e.tr.Event(trace.SubReplication, "transfer_complete", ev.VTime, int64(bm.size))
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
	e.resetInXfer("self-promoted")
	e.cXferPromotes.Inc()
	e.tr.Event(trace.SubReplication, "transfer_self_promote", ev.VTime, int64(e.lastExecSeq))
	var peers []string
	for _, m := range e.view.Members {
		if m != e.Addr() {
			peers = append(peers, m)
		}
	}
	e.startTransfers(peers, ev.VTime)
}

// resumeTransfer rewinds the send window to the acked cursor after a
// stall, counting the skipped prefix as resumed bytes.
func (e *Engine) resumeTransfer(x *outXfer, bm *bookmark, vt vtime.Time) {
	x.next = x.acked
	x.resumes++
	x.lastProgress = time.Now()
	e.cXferResumes.Inc()
	e.cXferBytesResumed.Add(e.bytesBefore(bm, x.acked))
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
	e.endTransferSpan(x, vt, why)
	e.pruneBookmarks()
}

func (e *Engine) endTransferSpan(x *outXfer, vt vtime.Time, why string) {
	if e.spans.On() {
		e.spans.End("transfer:"+x.peer, vt, why)
	}
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

// transferTick is the real-time retry driver, run from the engine loop.
// The leader re-sends the window of any stalled transfer and abandons
// joiners that have made no progress for transferAbandonAfter; an unsynced
// joiner keeps offering its resume token to the current coordinator.
func (e *Engine) transferTick() {
	now := time.Now()
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
		e.resetInXfer("sender left view")
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
		e.resetInXfer("sender unresponsive")
	}
	// Nothing in flight: rotate fresh requests across members that did not
	// just join, starting from the transfer leader (lowest rank). Any
	// synced one answers. Fixed targeting could starve — the coordinator
	// itself may be an unsynced rejoiner with nothing to serve.
	var targets []string
	for _, m := range e.view.Members {
		if m != e.Addr() && !e.viewJoiners[m] {
			targets = append(targets, m)
		}
	}
	if len(targets) == 0 {
		for _, m := range e.view.Members {
			if m != e.Addr() {
				targets = append(targets, m)
			}
		}
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
			e.resetInXfer("superseded")
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
	e.notify(Notice{Kind: NoticeTransfer, VT: ev.VTime, Style: e.style,
		Peer: rx.from, Serial: rx.serial, Chunk: rx.have, Chunks: rx.total})
	if rx.have == rx.total {
		e.applyTransfer(ev.VTime)
	}
}

// applyTransfer restores the assembled state and splices this replica into
// the stream, mirroring the checkpoint-apply path for joiners.
func (e *Engine) applyTransfer(vtArr vtime.Time) {
	rx := e.rx
	state := make([]byte, 0, rx.bytes)
	for _, c := range rx.chunks {
		state = append(state, c...)
	}
	vt := e.cpu.Execute(vtArr, vtime.Duration(len(state))*e.cfg.Model.CheckpointPerByte)
	if err := e.cfg.State.Restore(state); err != nil {
		e.resetInXfer("restore failed")
		return
	}
	if e.spans.On() {
		e.spans.Annotate(span.NameKey(span.TransferTrace(rx.from, e.Addr(), rx.serial)), "transfer_apply",
			span.CompReplicator, vtArr, vt, int64(len(state)), "")
	}
	e.setCache(rx.cache)
	e.lastExecSeq = rx.coveredSeq
	e.trimLog(rx.coveredSeq)
	e.synced = true
	e.cXferApplied.Inc()
	e.tr.Event(trace.SubReplication, "transfer_applied", vt, int64(len(state)))
	e.notify(Notice{Kind: NoticeTransfer, VT: vt, Style: e.style,
		Peer: rx.from, Serial: rx.serial, Chunk: rx.total, Chunks: rx.total})
	e.rx = nil
	if e.style.AllExecute() {
		// Catch up to the stream head before executing live traffic, like
		// a joiner applying a full checkpoint.
		e.replayLog(vt)
	}
}

// resetInXfer discards a partial incoming transfer.
func (e *Engine) resetInXfer(why string) {
	if e.rx == nil {
		return
	}
	e.tr.Event(trace.SubReplication, "transfer_rx_reset", e.lastVT, int64(e.rx.have))
	_ = why
	e.rx = nil
}

// stopTransfers closes every open transfer cursor as the engine shuts
// down, so no transfer span outlives its engine.
func (e *Engine) stopTransfers() {
	for _, x := range e.xfers {
		e.endTransferSpan(x, e.lastVT, "engine stopped")
	}
	e.xfers = make(map[string]*outXfer)
	e.cXferActive.Store(0)
	e.rx = nil
}
