package replication

import (
	"errors"
	"testing"
)

// brokenState is application state that refuses every restore.
type brokenState struct{ memState }

func (*brokenState) Restore([]byte) error { return errors.New("corrupt snapshot") }

// TestFailedRestoreMovesNothing: a state the application fails to restore
// leaves the replica where it was — its executed seq, its log, and whether
// it is synced — on each install path: a warm backup applying a
// checkpoint, a joiner applying one, and a joiner applying a chunked
// transfer. The same steps with a working restore do move it, so the
// checks are not vacuous.
func TestFailedRestoreMovesNothing(t *testing.T) {
	checkpoint := func(e *Engine) {
		e.step(agreedEvent("a", 3, &Msg{Kind: KindCheckpoint, CkptSerial: 1, CoveredSeq: 2}))
		e.step(directEvent("a", &Msg{Kind: KindState, State: []byte("state"), CkptSerial: 1, CoveredSeq: 2}))
	}
	transfer := func(e *Engine) {
		e.step(directEvent("a", &Msg{Kind: KindStateChunk, State: []byte("state"), CkptSerial: 1, CoveredSeq: 2, ChunkCount: 1}))
	}
	for _, tc := range []struct {
		name    string
		joiner  bool
		install func(e *Engine)
	}{
		{"warm backup, checkpoint", false, checkpoint},
		{"joiner, checkpoint", true, checkpoint},
		{"joiner, transfer", true, transfer},
	} {
		for _, broken := range []bool{true, false} {
			var state Checkpointable = &memState{}
			if broken {
				state = &brokenState{}
			}
			e, _ := portEngine(t, "b", Config{Style: WarmPassive, State: state})
			view := viewEvent(1, "a", "b")
			view.Joined = tc.joiner
			e.step(view)
			e.step(requestEvent(1))
			e.step(requestEvent(2))
			tc.install(e)

			moved := e.lastExecSeq == 2 && len(e.log) == 0 && e.synced && e.rx == nil
			unmoved := e.lastExecSeq == 0 && len(e.log) == 2 && e.synced == !tc.joiner
			if broken && !unmoved || !broken && !moved {
				t.Errorf("%s, restore broken %v: executed %d, log %d, synced %v", tc.name, broken, e.lastExecSeq, len(e.log), e.synced)
			}
		}
	}
}
