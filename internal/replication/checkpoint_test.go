package replication

import (
	"errors"
	"testing"

	"versadep/internal/gcs"
	"versadep/internal/trace"
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

// TestColdFailoverOverFailedRestoreReplaysNothing: a cold backup keeps its
// stored checkpoint unapplied until it is promoted. When that checkpoint
// then fails to restore, replaying the log would execute it over state the
// replica never loaded, so the promotion stops there: nothing is executed
// or answered, the replica is unsynced, the failure is recorded and no
// failover completes. The same steps with a working restore replay and
// answer the log.
func TestColdFailoverOverFailedRestoreReplaysNothing(t *testing.T) {
	for _, broken := range []bool{true, false} {
		var state Checkpointable = &memState{}
		if broken {
			state = &brokenState{}
		}
		rec := trace.New()
		var failovers int
		e, p := portEngine(t, "b", Config{Style: ColdPassive, State: state, Trace: rec,
			Observer: func(n Notice) {
				if n.Kind == NoticeFailover {
					failovers++
				}
			}})
		e.adapter.Register("ctr", &countingServant{count: map[int64]int{}})
		request := func(seq, rid uint64) {
			e.step(gcs.Event{Kind: gcs.EventMessage, Sender: "c1", Seq: seq, Payload: WrapRequest(requestBytes("c1", rid))})
		}
		e.step(viewEvent(1, "a", "b"))
		for rid := uint64(1); rid <= 3; rid++ {
			request(rid, rid)
		}
		// The checkpoint covers seq 2; requests 3 and 5 stay logged.
		e.step(agreedEvent("a", 4, &Msg{Kind: KindCheckpoint, CkptSerial: 1, CoveredSeq: 2}))
		e.step(directEvent("a", &Msg{Kind: KindState, State: []byte("state"), CkptSerial: 1, CoveredSeq: 2}))
		request(5, 5)
		before := e.snapshot().Executed
		e.step(viewEvent(6, "b")) // the primary crashed

		st := e.snapshot()
		answered := p.sentTo("c1")
		failed := rec.Snapshot().Events
		if broken {
			if answered != 0 || st.Executed != before || st.Synced || failovers != 0 ||
				len(failed) == 0 || failed[len(failed)-1].Name != "restore_failed" {
				t.Errorf("restore broken: answered %d, executed %d (was %d), synced %v, failovers %d, events %+v",
					answered, st.Executed, before, st.Synced, failovers, failed)
			}
		} else if answered != 2 || st.Executed != 5 || !st.Synced || failovers != 1 {
			t.Errorf("restore working: answered %d, executed %d, synced %v, failovers %d",
				answered, st.Executed, st.Synced, failovers)
		}
	}
}
