package replication

// Checkpoints: capture, install, and the log trim. Joiner transfers share
// capture and install.

import (
	"errors"

	"versadep/internal/gcs"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// ckpt is one captured application state and the position it covers.
type ckpt struct {
	state      []byte
	cache      []CacheEntry
	serial     uint64
	coveredSeq uint64
	vt         vtime.Time     // when the capture finished
	cost       vtime.Duration // the CPU it occupied
}

// ckptKey matches a checkpoint marker with its bulk state transfer.
type ckptKey struct {
	sender string
	serial uint64
}

// pendingCkpt holds the one half of a checkpoint that has arrived: the
// marker, ordered on the agreed stream, or the state, sent point-to-point.
// The other's Kind is zero. A checkpoint whose second half arrives is
// applied and dropped at once, so every entry holds exactly one half.
type pendingCkpt struct {
	marker, state Msg
	vt            vtime.Time // the marker's delivery
}

// ErrBadInterval refuses a checkpoint interval below one request.
var ErrBadInterval = errors.New("replication: checkpoint interval must be positive")

// SetCheckpointEvery retunes the checkpointing-frequency knob at runtime.
// The new value travels the agreed stream, so every replica adopts it at
// the same position (and a failed-over primary checkpoints at the rate the
// group agreed on, not a stale local one).
func (e *Engine) SetCheckpointEvery(every int, now vtime.Time) error {
	if every <= 0 {
		return ErrBadInterval
	}
	return e.control(now, func() (*Msg, error) {
		return &Msg{Kind: KindConfig, CheckpointEvery: uint32(every)}, nil
	})
}

// capture snapshots the application state and the reply cache under a new
// serial. The capture, and marshaling the state once for each of copies
// receivers, occupy the CPU: the paper's quiescence overhead.
func (e *Engine) capture(vt vtime.Time, copies int) ckpt {
	state := e.cfg.State.State()
	cost := e.cfg.Model.CheckpointCost(len(state)) +
		vtime.Duration(copies*len(state))*e.cfg.Model.StateMarshalPerByte
	vt = e.cpu.Execute(vt, cost)
	e.ckptSerial++
	return ckpt{state: state, cache: e.captureCache(), serial: e.ckptSerial,
		coveredSeq: e.lastExecSeq, vt: vt, cost: cost}
}

// takeCheckpoint captures the application state, multicasts a small
// ordering marker on the agreed stream, and ships the bulk state
// point-to-point to every other member. The capture and per-backup
// marshaling costs occupy the primary's CPU, which is what slows
// warm-passive replication under load; the per-backup transfers are what
// make passive bandwidth grow with the redundancy level.
func (e *Engine) takeCheckpoint(vt0 vtime.Time, final bool, switchID uint64) {
	c := e.capture(vt0, len(e.view.Members)-1)
	marker := &Msg{
		Kind:       KindCheckpoint,
		Cache:      c.cache,
		Final:      final,
		SwitchID:   switchID,
		CoveredSeq: c.coveredSeq,
		CkptSerial: c.serial,
	}
	var led vtime.Ledger
	led.Charge(vtime.ComponentReplicator, c.cost)
	_ = e.group.Multicast(Encode(marker), gcs.Agreed, c.vt, led)

	// Encoded once, into the first backup's frame; every later backup's
	// frame is a copy of it, as the room around it is spent by then.
	var stateMsg transport.Buf
	encoded := false
	for _, m := range e.view.Members {
		if m == e.Addr() {
			continue
		}
		if e.xfers[m] != nil {
			// A joiner mid-chunked-transfer is owned by that protocol;
			// shipping it a competing full state would only duplicate
			// bytes (it syncs through its cursor, or asks again).
			continue
		}
		if encoded {
			_ = e.group.SendDirect(m, stateMsg.Clone(), c.vt, vtime.Ledger{})
			continue
		}
		stateMsg = EncodeIn(e.group.DirectRoom(), &Msg{Kind: KindState, State: c.state, CoveredSeq: c.coveredSeq, CkptSerial: c.serial})
		encoded = true
		_ = e.group.SendDirect(m, stateMsg, c.vt, vtime.Ledger{})
	}
	if e.spans.On() {
		e.spans.Annotate(span.NameKey(span.CheckpointTrace(e.Addr(), c.serial)), "checkpoint_capture",
			span.CompReplicator, c.vt.Add(-c.cost), c.vt, int64(len(c.state)), "")
		if final {
			// The closing checkpoint of a passive→active switch is part of
			// the switch timeline (Figure 5, step II case 1).
			e.spans.Annotate(span.NameKey(span.SwitchTrace(switchID)), "state_transfer", "", vt0, c.vt, int64(len(c.state)), "")
		}
	}
	e.ckptCounter = 0
	e.stats.Checkpoints++
	e.cCheckpoints.Inc()
	e.tr.Event(trace.SubReplication, "checkpoint", c.vt, int64(c.serial))
	e.notify(Notice{Kind: NoticeCheckpoint, VT: c.vt, Style: e.style})
}

// handleCheckpoint processes a checkpoint marker from the agreed stream.
// The marker fixes the checkpoint's position; the bulk state arrives
// point-to-point and is matched by (sender, serial).
func (e *Engine) handleCheckpoint(ev gcs.Event, msg *Msg) {
	if ev.Sender != e.Addr() {
		e.addHalf(ev.Sender, msg, ev.VTime)
		return
	}
	// Our own marker: our state is already current. A final marker
	// completes the switch on the primary side.
	if sw := e.switching; msg.Final && sw != nil && sw.awaitingFinal {
		e.finishSwitch(sw.target, sw.startVT, ev.VTime, false)
	}
}

// addHalf files one half of a checkpoint from sender, its marker delivered
// at vt or its state, and applies the checkpoint once both halves are in.
func (e *Engine) addHalf(sender string, m *Msg, vt vtime.Time) {
	key := ckptKey{sender, m.CkptSerial}
	p := e.pending[key]
	if p == nil {
		p = new(pendingCkpt)
		e.pending[key] = p
	}
	if m.Kind == KindCheckpoint {
		p.marker, p.vt = *m, vt
	} else {
		p.state = *m
	}
	if p.marker.Kind == 0 || p.state.Kind == 0 {
		e.cPendingCkpts.Max(int64(len(e.pending)))
		return
	}
	e.cPendingCkpts.Max(int64(len(e.pending) + 1)) // this entry holds two
	delete(e.pending, key)
	e.cCkptApplied.Inc()
	// A completed checkpoint supersedes any older halves from the same
	// sender still waiting for their counterpart (e.g. a state transfer
	// whose marker was lost to view-change recovery): they can never be
	// applied and would otherwise sit in the pending map forever.
	e.prunePending(func(k ckptKey) bool { return k.sender == key.sender && k.serial < key.serial })
	marker := &p.marker

	if e.style == ColdPassive && e.synced {
		// Cold backups store but do not apply; the log keeps only
		// requests the stored state does not cover.
		marker.State = p.state.State
		e.lastCkpt = marker
		e.trimLog(marker.CoveredSeq)
	} else if !e.isExecutor() || !e.synced {
		// Warm backups and joiners apply the state (the marker may have
		// been ordered after requests that were already in the sequencer
		// pipeline when the state was captured, which install's trim
		// accounts for).
		joining := !e.synced
		c := ckpt{state: p.state.State, cache: marker.Cache, serial: key.serial, coveredSeq: marker.CoveredSeq}
		if _, err := e.install(&c, key.sender, p.vt, false); err == nil && joining {
			// A full checkpoint beat the chunked path to syncing us; the
			// partial transfer is moot.
			e.resetInXfer()
		}
	}

	// Closing checkpoint of a passive→active switch (Figure 5 case 1):
	// backups replay the uncovered tail of their logs after going active.
	if sw := e.switching; marker.Final && sw != nil && sw.awaitingFinal {
		e.finishSwitch(sw.target, sw.startVT, p.vt, true)
	}
}

// prunePending drops the checkpoint halves whose counterpart can never
// arrive.
func (e *Engine) prunePending(orphaned func(ckptKey) bool) {
	for k := range e.pending {
		if orphaned(k) {
			delete(e.pending, k)
			e.cOrphansPruned.Inc()
		}
	}
}

// install loads a state captured at from, a checkpoint's or an assembled
// transfer's (chunked), that arrived at vt. It restores the application,
// resets the reply cache and the executed seq to what the state covers,
// keeps only the log the state does not cover, and marks the replica
// synced; where every replica executes, it then replays that log to catch
// up with the stream head. A state the application fails to restore
// changes none of this. It returns when the restore finished.
func (e *Engine) install(c *ckpt, from string, arrived vtime.Time, chunked bool) (vtime.Time, error) {
	vt := e.cpu.Execute(arrived, vtime.Duration(len(c.state))*e.cfg.Model.CheckpointPerByte)
	if err := e.cfg.State.Restore(c.state); err != nil {
		e.tr.Event(trace.SubReplication, "restore_failed", vt, int64(len(c.state)))
		return vt, err
	}
	if e.spans.On() {
		name, tr := "checkpoint_apply", span.CheckpointTrace(from, c.serial)
		if chunked {
			name, tr = "transfer_apply", span.TransferTrace(from, e.Addr(), c.serial)
		}
		e.spans.Annotate(span.NameKey(tr), name, span.CompReplicator, arrived, vt, int64(len(c.state)), "")
	}
	e.setCache(c.cache)
	e.lastExecSeq = c.coveredSeq
	e.trimLog(c.coveredSeq)
	e.synced = true
	if e.style.AllExecute() {
		// A joiner to a group where all execute (or a backup completing
		// a passive→active switch) catches up to the stream head before
		// executing live traffic.
		e.replayLog(vt)
	}
	return vt, nil
}

// trimLog drops log entries covered by a checkpoint.
func (e *Engine) trimLog(coveredSeq uint64) {
	keep := e.log[:0]
	for _, le := range e.log {
		if le.seq > coveredSeq {
			keep = append(keep, le)
		}
	}
	e.log = keep
}

// captureCache is what a checkpoint carries of the per-client records:
// each client's high-water mark and the reply to it.
func (e *Engine) captureCache() []CacheEntry {
	cache := make([]CacheEntry, 0, len(e.clients))
	for cid, r := range e.clients {
		if reply, ok := r.reply(r.high); ok {
			cache = append(cache, CacheEntry{Client: cid, ReqID: r.high, Reply: reply})
		}
	}
	return cache
}

// setCache installs a checkpoint's cache. The checkpoint summarizes
// execution history as one high-water mark per client, so exact knowledge
// resets: everything at or below the mark is assumed executed, and the
// exact window restarts above it. Records are reset in place.
func (e *Engine) setCache(entries []CacheEntry) {
	for _, r := range e.clients {
		r.reset(0)
	}
	for _, c := range entries {
		r := e.client(c.Client)
		r.reset(c.ReqID)
		// Copied: a decoded entry is a small window onto a checkpoint
		// marker or the final transfer chunk, and the cache would pin
		// that whole buffer for as long as the client stays quiet.
		r.store(c.ReqID, append([]byte(nil), c.Reply...))
	}
}
