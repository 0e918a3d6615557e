package replication

import (
	"testing"

	"versadep/internal/trace"
	"versadep/internal/trace/span"
	"versadep/internal/vtime"
)

// The Figure 5 case-1 crash branch, driven event-by-event: a backup that
// accepted a passive→active switch and is awaiting the old primary's
// closing checkpoint sees a view change that removes the primary instead.
// The switch span opened at SWITCH_START must be closed by the view change
// with the failover annotation — not leaked, and not double-recorded by
// the normal close in notify.
func TestMidSwitchCrashClosesSwitchSpanWithFailoverNote(t *testing.T) {
	rec := trace.New()
	e, _ := portEngine(t, "mw", Config{Style: WarmPassive, CheckpointEvery: 100, Trace: rec})
	// A remote node "aa" outranks us: we are a synced backup of a
	// warm-passive pair.
	e.step(viewEvent(7, "aa", "mw"))
	start := agreedEvent("aa", 41, &Msg{Kind: KindSwitch, Style: Active})
	start.VTime = vtime.Time(1000 * vtime.Microsecond)
	e.step(start)
	if got := rec.Spans().OpenCount(); got != 1 {
		t.Fatalf("open spans after SWITCH_START = %d, want 1 (the switch phase)", got)
	}

	// The primary crashes before its closing checkpoint: the view change
	// that removes it is where the switch resolves.
	crashVT := vtime.Time(5000 * vtime.Microsecond)
	crash := viewEvent(8, "mw")
	crash.VTime = crashVT
	e.step(crash)

	if e.style != Active {
		t.Fatalf("style after aborted switch = %v, want %v", e.style, Active)
	}
	snap := rec.Snapshot()
	if snap.SpansOpen != 0 {
		t.Fatalf("SpansOpen = %d after view change, want 0 (switch span leaked)", snap.SpansOpen)
	}
	var switches []span.Span
	for _, s := range snap.Spans {
		if s.Name == "switch" {
			switches = append(switches, s)
		}
	}
	if len(switches) != 1 {
		t.Fatalf("recorded %d switch spans, want exactly 1 (no double close): %+v", len(switches), switches)
	}
	sw := switches[0]
	if sw.Note != "failover" {
		t.Errorf("switch span note = %q, want \"failover\"", sw.Note)
	}
	if sw.Trace != span.SwitchTrace(41) {
		t.Errorf("switch span trace = %q, want %q", sw.Trace, span.SwitchTrace(41))
	}
	if sw.End != crashVT {
		t.Errorf("switch span end = %v, want the view-change instant %v", sw.End, crashVT)
	}
	// The normal close path records a switch_done marker; the failover
	// close must not.
	for _, s := range snap.Spans {
		if s.Name == "switch_done" {
			t.Errorf("switch_done marker recorded for an aborted switch: %+v", s)
		}
	}
	// The same view change promoted us: the failover trace carries the
	// recovery milestones.
	var failoverNames []string
	for _, s := range snap.Spans {
		if s.Trace == span.FailoverTrace("mw", 1) {
			failoverNames = append(failoverNames, s.Name)
		}
	}
	want := map[string]bool{"crash_detect": false, "replay": false, "failover": false}
	for _, n := range failoverNames {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("failover trace missing %q span (got %v)", n, failoverNames)
		}
	}
}
