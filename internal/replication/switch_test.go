package replication

import "testing"

// TestSwitchReplayOrder pins the order of log replay and style flip at the
// two completions of a passive→active switch that replay. A backup that
// survives the old primary's crash replays under the passive style, so it
// answers no client; a backup that receives the closing checkpoint goes
// active first, so it answers every request it replays. The order decides
// who sends replies, and so the wire counts.
func TestSwitchReplayOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		resolve func(e *Engine)
		replies int
	}{
		{"the old primary crashed", func(e *Engine) { e.step(viewEvent(9, "mw", "zz")) }, 0},
		{"the closing checkpoint arrived", func(e *Engine) {
			e.step(agreedEvent("aa", 9, &Msg{Kind: KindCheckpoint, CkptSerial: 1, Final: true, SwitchID: 5}))
			e.step(directEvent("aa", &Msg{Kind: KindState, CkptSerial: 1}))
		}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, p := portEngine(t, "zz", Config{Style: WarmPassive})
			e.adapter.Register("ctr", &countingServant{count: map[int64]int{}})
			e.step(viewEvent(1, "aa", "mw", "zz"))
			e.step(agreedEvent("aa", 5, &Msg{Kind: KindSwitch, Style: Active}))
			e.step(requestEvent(6))
			e.step(requestEvent(7))
			tc.resolve(e)
			if e.style != Active || e.stats.RequestsExecuted != 2 {
				t.Fatalf("style %v, %d requests executed; want active, 2", e.style, e.stats.RequestsExecuted)
			}
			if n := p.sentTo("c1"); n != tc.replies {
				t.Errorf("%d replies sent, want %d", n, tc.replies)
			}
		})
	}
}
