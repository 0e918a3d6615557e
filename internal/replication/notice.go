package replication

import (
	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

// NoticeKind discriminates engine notifications.
type NoticeKind uint8

// Notice kinds.
const (
	// NoticeSwitchStart fires when a switch message is delivered.
	NoticeSwitchStart NoticeKind = iota + 1
	// NoticeSwitchDone fires when the switch completes at this replica;
	// Delay is the virtual time the switch took.
	NoticeSwitchDone
	// NoticeCheckpoint fires when this replica multicasts a checkpoint.
	NoticeCheckpoint
	// NoticeFailover fires when this replica becomes primary after a
	// crash; Delay is the virtual replay/restore time.
	NoticeFailover
	// NoticeRequest fires after every request delivery (executed or
	// logged).
	NoticeRequest
	// NoticeRetire fires when a graceful-retirement directive is
	// delivered on the agreed stream; Peer names the retiring replica.
	// Every replica sees it — the named replica's host reacts by leaving
	// the group after the parting checkpoint (if any) is out.
	NoticeRetire
	// NoticeView fires on every installed view change. Members is the
	// new group size; Crashed counts members that disappeared without a
	// graceful leave or retirement — the adaptation layer's observed
	// fault-rate signal.
	NoticeView
	// NoticeTransfer fires as a chunked state transfer progresses: on the
	// leader when a transfer starts, resumes, or its acked cursor
	// advances; on the joiner as contiguous chunks arrive and, once, when
	// the assembled state is installed (a state the application refuses
	// raises no completion). Peer names the other end; Serial, Chunk
	// and Chunks carry the cursor; Resumed marks cursor restorations.
	NoticeTransfer
	// NoticeProgress fires after an event moved this replica's progress
	// (Stats from Style on) when no notice has reported the move, so an
	// observer that rereads Stats on every notice misses none.
	NoticeProgress
)

// Notice is an engine observation delivered to the configured observer.
type Notice struct {
	Kind NoticeKind
	// Addr identifies the reporting replica.
	Addr  string
	VT    vtime.Time
	Delay vtime.Duration
	Style Style
	// Peer is the retiring replica (NoticeRetire).
	Peer string
	// Members is the group size after a view change (NoticeView).
	Members int
	// Crashed counts non-graceful departures in a view change
	// (NoticeView).
	Crashed int
	// Serial is the transfer's bookmark serial (NoticeTransfer).
	Serial uint64
	// Chunk is the contiguous cursor position and Chunks the transfer's
	// total chunk count (NoticeTransfer); Chunk == Chunks on completion.
	Chunk, Chunks int
	// Resumed marks a cursor restored from a resume token rather than a
	// fresh start (NoticeTransfer).
	Resumed bool
}

// notify hands n to the observer, if any, and records the switch
// milestones it marks.
func (e *Engine) notify(n Notice) {
	if e.cfg.Observer != nil {
		n.Addr = e.Addr()
		e.progress(&e.noticed)
		e.cfg.Observer(n)
	}
	switch n.Kind {
	case NoticeSwitchStart:
		e.cSwitchStarts.Inc()
	case NoticeSwitchDone:
		if s, ok := e.spans.End("switch", n.VT, ""); ok {
			e.spans.Add(span.NameKey(s.Trace), "switch_done", "", n.VT, n.VT)
		}
		e.cSwitchDones.Inc()
		e.cSwitchDelay.Store(n.Delay.Microseconds())
		e.tr.Event(trace.SubReplication, "switch_done", n.VT, n.Delay.Microseconds())
	}
}

// noteProgress raises NoticeProgress if the event just handled moved this
// replica's progress after its last notice. Without an observer nobody
// hears it, and it costs nothing.
func (e *Engine) noteProgress() {
	if e.cfg.Observer == nil {
		return
	}
	var p Stats
	e.progress(&p)
	if p != e.noticed {
		e.notify(Notice{Kind: NoticeProgress, VT: e.lastVT, Style: e.style})
	}
}
