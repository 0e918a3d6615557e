package replication

// The runtime switch between replication styles (Figure 5).

import (
	"errors"

	"versadep/internal/gcs"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

type switchState struct {
	target  Style
	startVT vtime.Time
	// awaitingFinal is true while a passive→active switch waits for the
	// primary's closing checkpoint (Figure 5, case 1).
	awaitingFinal bool
	// oldPrimary is the primary that owes the closing checkpoint.
	oldPrimary string
}

// The refusals of RequestSwitch.
var (
	// ErrSwitchInFlight refuses a switch requested while another is in
	// flight: the style it would compare against is about to change.
	ErrSwitchInFlight = errors.New("replication: switch refused: a switch is in flight")
	// ErrAlreadyStyle refuses a switch to the style the group already has.
	ErrAlreadyStyle = errors.New("replication: switch refused: already that style")
)

// RequestSwitch initiates a style switch (the low-level replication-style
// knob, usable at runtime). The switch message travels the agreed stream;
// duplicates and no-op switches are discarded on delivery. A request this
// replica can already tell is void is refused, and nothing is multicast.
func (e *Engine) RequestSwitch(target Style, now vtime.Time) error {
	return e.control(now, func() (*Msg, error) {
		if e.switching != nil {
			return nil, ErrSwitchInFlight
		}
		if e.style == target {
			return nil, ErrAlreadyStyle
		}
		return &Msg{Kind: KindSwitch, Style: target}, nil
	})
}

func (e *Engine) handleSwitch(ev gcs.Event, msg *Msg) {
	target := msg.Style
	if e.switching != nil || target == e.style || target == 0 {
		return // duplicate or no-op switch: discarded (Figure 5, step I)
	}
	e.stats.Switches++
	e.notify(Notice{Kind: NoticeSwitchStart, VT: ev.VTime, Style: target})
	if e.spans.On() {
		skey := span.NameKey(span.SwitchTrace(ev.Seq))
		e.spans.Add(skey, "switch_start", "", ev.VTime, ev.VTime)
		// At most one switch is in flight (e.switching guards re-entry), so
		// a fixed open key is safe.
		e.spans.Begin("switch", skey, "switch", "", ev.VTime)
	}

	if e.style.IsPassive() && target.AllExecute() {
		// Case 1: the primary owes one more checkpoint; backups wait for
		// it before executing (Figure 5, step II case 1).
		e.switching = &switchState{
			target:        target,
			startVT:       ev.VTime,
			awaitingFinal: true,
			oldPrimary:    e.view.Coordinator(),
		}
		if e.synced && e.role() == RolePrimary {
			e.takeCheckpoint(ev.VTime, true, ev.Seq)
		}
		return
	}
	// Case 2, active to passive: the new primary is chosen
	// deterministically (rank 0) and the group becomes passive at this
	// point in the stream; there are no outstanding requests because the
	// stream already ordered them. Executor-to-executor (active/semi-active)
	// and passive-to-passive (warm/cold) switches are instantaneous too: no
	// state needs to move, only the reply/checkpoint duties change.
	e.finishSwitch(target, ev.VTime, ev.VTime, false)
}

// finishSwitch completes a switch to target begun at start: the style
// flips at vt, and with replay a synced replica then executes the log
// its closing checkpoint did not cover. The order is each caller's to
// keep: repliesToClients reads the style, so a replay before the flip and
// one after it send different replies.
func (e *Engine) finishSwitch(target Style, start, vt vtime.Time, replay bool) {
	e.switching = nil
	e.style = target
	e.ckptCounter = 0
	if replay && e.synced {
		e.replayLog(vt)
	}
	e.stats.LastSwitchDelay = vt.Sub(start)
	e.notify(Notice{Kind: NoticeSwitchDone, VT: vt, Delay: e.stats.LastSwitchDelay, Style: target})
}
