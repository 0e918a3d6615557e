package replication

// View change: crash classification, retirement, failover and handoff.

import (
	"errors"
	"fmt"

	"versadep/internal/gcs"
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

// RequestRetire turns the replica-count knob downward at runtime: a
// retirement directive for addr travels the agreed stream, so every
// replica (the victim included) observes it at the same position relative
// to client requests. A retiring primary takes a parting checkpoint
// before leaving, making the handoff cheap; the victim's host then leaves
// the group gracefully, and the resulting view change is not counted as a
// crash. Retiring the last replica is refused.
func (e *Engine) RequestRetire(addr string, now vtime.Time) error {
	return e.control(now, func() (*Msg, error) {
		if !e.view.Contains(addr) {
			return nil, fmt.Errorf("replication: %s is not a group member", addr)
		}
		if len(e.view.Members) <= 1 {
			return nil, errors.New("replication: cannot retire the last replica")
		}
		return &Msg{Kind: KindRetire, Target: addr}, nil
	})
}

func (e *Engine) handleView(ev gcs.Event) {
	prev := e.view
	e.view = ev.View

	// Classify departures before touching the retiring set: members that
	// announced a graceful leave (carried on the view frame) or whose
	// retirement directive was delivered on the agreed stream are
	// voluntary; everything else is a crash, the adaptation layer's
	// fault-rate signal.
	graceful := make(map[string]bool, len(ev.Left))
	for _, mm := range ev.Left {
		graceful[mm] = true
	}
	crashed := 0
	for _, mm := range prev.Members {
		if mm == e.Addr() || ev.View.Contains(mm) {
			continue
		}
		if e.retiring[mm] {
			graceful[mm] = true
		}
		if !graceful[mm] {
			crashed++
		}
		delete(e.retiring, mm)
	}
	if crashed > 0 {
		e.cCrashes.Add(int64(crashed))
		e.tr.Event(trace.SubReplication, "crash_observed", ev.VTime, int64(crashed))
	}

	// A checkpoint sender that crashed between its marker and its state
	// transfer leaves an orphaned half behind; the view change that
	// removes the sender is the point where it can never complete.
	e.prunePending(func(k ckptKey) bool { return !ev.View.Contains(k.sender) })

	if ev.Joined && len(ev.View.Members) > 1 {
		// We joined a running group: wait for a state transfer. A partial
		// transfer from a previous membership is unsafe to finish —
		// deliveries may have been missed while we were out — so it is
		// discarded and the retry driver requests a fresh one.
		e.synced = false
		e.log = nil
		e.resetInXfer()
	}

	leader := e.view.Coordinator() == e.Addr()

	// Joiners of this view change are unsynced by definition. Transfer
	// leadership goes to the lowest-ranked member that did NOT just join —
	// the coordinator itself may be a rejoining previous anchor whose rank
	// puts it first while it still has no state to serve.
	e.viewJoiners = make(map[string]bool)
	e.xferNag, e.xferNagMiss = 0, 0
	e.xferNaks = make(map[string]uint64)
	var joiners []string
	for _, m := range e.view.Members {
		if !prev.Contains(m) && prev.ID != 0 {
			e.viewJoiners[m] = true
			if m != e.Addr() {
				joiners = append(joiners, m)
			}
		}
	}
	xferLeader := false
	for _, m := range e.view.Members {
		if !e.viewJoiners[m] {
			xferLeader = m == e.Addr()
			break
		}
	}

	// Outgoing transfer cursors are only valid while this replica leads
	// transfers and the joiner stays in the view: a departed joiner may
	// miss deliveries and must restart from a fresh capture when it
	// returns, and a demoted leader's serial means nothing to its
	// successor.
	for _, x := range e.xfers {
		if !xferLeader {
			e.abortTransfer(x, ev.VTime, "demoted")
		} else if !e.view.Contains(x.peer) {
			e.abortTransfer(x, ev.VTime, "joiner left view")
		}
	}

	// Primary departure and we are next: a crash triggers the paper's
	// failover (cold restart, replay, counted as a fault); a graceful
	// retirement or leave is a handoff — the parting checkpoint covers
	// all but the tail of the log, and no fault is recorded.
	prevPrimary := prev.Coordinator()
	if leader && e.synced && e.style.IsPassive() &&
		prevPrimary != "" && prevPrimary != e.Addr() && !e.view.Contains(prevPrimary) {
		if graceful[prevPrimary] {
			e.handoff(ev.VTime)
		} else {
			e.failover(ev.VTime)
		}
	}

	// Mid-switch primary crash (Figure 5, case 1 crash branch): the
	// closing checkpoint will never come; every synced survivor replays
	// its outstanding log and goes active.
	if sw := e.switching; sw != nil && sw.awaitingFinal &&
		sw.oldPrimary != "" && !e.view.Contains(sw.oldPrimary) {
		// Close the switch span here with the reason annotated; the normal
		// close in notify finds nothing open and records no duplicate.
		e.spans.End("switch", ev.VTime, "failover")
		// The replay comes before the flip, under the passive style's reply
		// duty.
		if e.synced {
			e.replayLog(ev.VTime)
		}
		e.finishSwitch(sw.target, sw.startVT, ev.VTime, false)
	}

	// State transfer for joiners: the transfer leader captures a bookmark
	// checkpoint and streams it in resumable chunks to every new member
	// (one shared capture per view change).
	if xferLeader && e.synced {
		e.startTransfers(joiners, ev.VTime)
	}

	e.notify(Notice{Kind: NoticeView, VT: ev.VTime, Style: e.style,
		Members: len(e.view.Members), Crashed: crashed})
}

// handleRetire processes a graceful-retirement directive delivered on the
// agreed stream. Every replica marks the target so the upcoming view
// change is classified as voluntary, and a retiring primary takes a
// parting checkpoint covering exactly the requests ordered before the
// directive — its successor hands off instead of failing over.
func (e *Engine) handleRetire(ev gcs.Event, msg *Msg) {
	target := msg.Target
	if target == "" || e.retiring[target] || !e.view.Contains(target) {
		return
	}
	live := 0
	for _, mm := range e.view.Members {
		if !e.retiring[mm] {
			live++
		}
	}
	if live <= 1 {
		return // never retire the last working replica
	}
	e.retiring[target] = true
	e.stats.Retirements++
	e.cRetirements.Inc()
	e.tr.Event(trace.SubReplication, "retire", ev.VTime, 0)
	if target == e.Addr() && e.synced && e.style.IsPassive() && e.role() == RolePrimary {
		e.takeCheckpoint(ev.VTime, false, 0)
	}
	e.notify(Notice{Kind: NoticeRetire, VT: ev.VTime, Style: e.style,
		Peer: target, Members: len(e.view.Members)})
}

// handoff promotes this replica to primary after the previous primary
// departed gracefully: replay whatever its parting checkpoint did not
// cover. Unlike failover there is no fault — Failovers is untouched and
// no cold-start is paid (a graceful departure never strands a cold
// backup as the only survivor of a checkpointed state it lacks).
func (e *Engine) handoff(vt vtime.Time) {
	replayed := int64(len(e.log))
	vt = e.replayLog(vt)
	e.stats.Handoffs++
	e.tr.Event(trace.SubReplication, "handoff", vt, replayed)
}

// failover promotes this replica to primary: cold replicas pay the
// cold-start and restore costs first, then the logged requests since the
// last checkpoint are replayed (Figure 5's rollback).
func (e *Engine) failover(vt vtime.Time) {
	start := vt
	var fkey span.Key // the cold name is formatted only for a recorder
	if e.spans.On() {
		fkey = span.NameKey(span.FailoverTrace(e.Addr(), uint64(e.stats.Failovers)+1))
	}
	e.spans.Add(fkey, "crash_detect", "", start, start)
	if e.style == ColdPassive {
		vt = e.cpu.Execute(vt, e.cfg.Model.ColdStart)
		if e.lastCkpt != nil {
			vt = e.cpu.Execute(vt, vtime.Duration(len(e.lastCkpt.State))*e.cfg.Model.CheckpointPerByte)
			_ = e.cfg.State.Restore(e.lastCkpt.State)
			e.setCache(e.lastCkpt.Cache)
		}
		e.spans.Add(fkey, "cold_restart", span.CompReplicator, start, vt)
	}
	replayed := int64(len(e.log))
	replayStart := vt
	vt = e.replayLog(vt)
	e.spans.Annotate(fkey, "replay", span.CompReplicator, replayStart, vt, replayed, "")
	e.spans.Add(fkey, "failover", "", start, vt)
	e.stats.Failovers++
	e.cFailovers.Inc()
	e.cFailoverReplay.Add(replayed)
	e.tr.Event(trace.SubReplication, "failover", vt, replayed)
	e.notify(Notice{Kind: NoticeFailover, VT: vt, Delay: vt.Sub(start), Style: e.style})
}

// replayLog executes every logged request, caching and re-sending replies
// (duplicates are suppressed client-side). Returns the virtual completion
// time.
func (e *Engine) replayLog(vt vtime.Time) vtime.Time {
	entries := e.log
	e.log = nil
	for _, le := range entries {
		cid, rid, ok := e.peekRequest(le.viop)
		if !ok {
			continue
		}
		r := e.client(cid)
		if r.executed(rid) {
			if cached, ok := r.reply(rid); ok {
				// Component-less and noted "failover": the cross-node
				// stitcher uses the note to mark the request's timeline as
				// crossing a failover, and an empty Comp keeps the resend
				// out of the request's cost breakdown.
				e.spans.Annotate(span.RequestKey(cid, rid), "reply_resend", "", vt, vt, 0, "failover")
				_ = e.group.SendDirect(cid, e.resend(cached), vt, vtime.Ledger{})
				e.cCacheHits.Inc()
			}
			continue
		}
		start := vt
		vt = e.execute(le.viop, r, cid, rid, vt, vtime.Ledger{})
		e.spans.Annotate(span.RequestKey(cid, rid), "replayed", "", start, vt, 0, "failover")
		e.lastExecSeq = le.seq
	}
	return vt
}
