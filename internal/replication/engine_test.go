package replication

import (
	"sync"
	"testing"
	"time"

	"versadep/internal/gcs"
	"versadep/internal/orb"
	"versadep/internal/simnet"
	"versadep/internal/trace"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

type memState struct{ state []byte }

func (s *memState) State() []byte { return append([]byte(nil), s.state...) }
func (s *memState) Restore(b []byte) error {
	s.state = append([]byte(nil), b...)
	return nil
}

// startEngine boots a singleton-group member and an engine on it.
func startEngine(t *testing.T, addr string, cfg Config) (*Engine, *gcs.Member) {
	t.Helper()
	net := simnet.New(simnet.WithSeed(3))
	t.Cleanup(func() { net.Close() })
	return startEngineOn(t, net, addr, cfg)
}

// startEngineOn is startEngine on a network the test shares with clients.
func startEngineOn(t *testing.T, net *simnet.Network, addr string, cfg Config) (*Engine, *gcs.Member) {
	t.Helper()
	m := openMemberOn(t, net, addr)
	return engineOn(t, m, cfg), m
}

// openMemberOn opens a group member on net that joins through seeds, or
// bootstraps a singleton group with none.
func openMemberOn(t *testing.T, net *simnet.Network, addr string, seeds ...string) *gcs.Member {
	t.Helper()
	ep, err := net.Endpoint(addr)
	if err != nil {
		t.Fatal(err)
	}
	d := transport.NewDemux(ep)
	gcfg := gcs.DefaultConfig()
	gcfg.Seeds = seeds
	m := gcs.Open(d.Conn(transport.ProtoGCS), d.Conn(transport.ProtoGroupClient), gcfg)
	d.Handle(transport.ProtoGCS, m.HandleTransport)
	d.Handle(transport.ProtoGroupClient, m.HandleTransport)
	d.Start()
	t.Cleanup(m.Stop)
	return m
}

// engineOn starts an engine on member m.
func engineOn(t *testing.T, m *gcs.Member, cfg Config) *Engine {
	t.Helper()
	adapter := orb.NewAdapter(vtime.DefaultCostModel())
	if cfg.Model == (vtime.CostModel{}) {
		cfg.Model = vtime.DefaultCostModel()
	}
	if cfg.State == nil {
		cfg.State = &memState{}
	}
	e := NewEngine(m, adapter, cfg)
	t.Cleanup(e.Stop)
	return e
}

// TestEngineStopConcurrent: the replica node's self-retire goroutine and a
// harness shutdown may both stop the engine; neither may panic on a double
// close of the stop channel, and getters must answer from the final snapshot
// as soon as any Stop call has returned (run with -race).
func TestEngineStopConcurrent(t *testing.T) {
	e, _ := startEngine(t, "g1", Config{Style: WarmPassive, CheckpointEvery: 5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Stop()
			if got := e.CheckpointEvery(); got != 5 {
				t.Errorf("CheckpointEvery right after Stop returned = %d, want 5", got)
			}
		}()
	}
	wg.Wait()
}

// Regression: on the seed code every getter went through do(), which
// silently no-ops once the engine is stopped, so Style/Role/StatsSnapshot/
// CheckpointEvery all returned zero values after Stop. The engine must
// retain a final snapshot instead.
func TestGettersSurviveStop(t *testing.T) {
	e, _ := startEngine(t, "g1", Config{Style: WarmPassive, CheckpointEvery: 5})

	// Wait until the engine has processed its bootstrap view.
	deadline := time.Now().Add(2 * time.Second)
	for e.Role() != RolePrimary {
		if time.Now().After(deadline) {
			t.Fatal("engine never became primary of its singleton group")
		}
		time.Sleep(2 * time.Millisecond)
	}

	e.Stop()

	if got := e.Style(); got != WarmPassive {
		t.Fatalf("Style after Stop = %v, want %v", got, WarmPassive)
	}
	if got := e.Role(); got != RolePrimary {
		t.Fatalf("Role after Stop = %v, want %v", got, RolePrimary)
	}
	if got := e.CheckpointEvery(); got != 5 {
		t.Fatalf("CheckpointEvery after Stop = %d, want 5", got)
	}
	if got := e.StatsSnapshot(); got.Style != WarmPassive || got.Role != RolePrimary || !got.Synced {
		t.Fatalf("StatsSnapshot after Stop = %+v", got)
	}
	// Mutators after Stop must return without hanging.
	done := make(chan struct{})
	go func() {
		e.RequestSwitch(Active, 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("mutator hung after Stop")
	}
}

// A switch requested while a passive→active switch is in flight is
// dropped at the requester: it multicasts nothing. Delivery would discard
// it too (Figure 5, step I), but a request sent then is one more agreed
// message for every controller step of the switch window.
func TestRequestSwitchDuringSwitchMulticastsNothing(t *testing.T) {
	e, _ := startEngine(t, "mw", Config{Style: WarmPassive, CheckpointEvery: 100})
	waitPrimary(t, e)

	// A synced backup of a warm-passive pair accepts a switch to active and
	// waits for the closing checkpoint of the primary "aa".
	view := gcs.View{ID: 7, Members: []string{"aa", "mw"}}
	e.do(func() {
		e.view = view
		e.handleSwitch(gcs.Event{Kind: gcs.EventMessage, Seq: 41, VTime: vtime.Time(vtime.Millisecond), View: view},
			&Msg{Kind: KindSwitch, Style: Active})
	})

	// Stamped far past anything else in the run: a delivery of the request
	// would carry the engine's clock past the stamp.
	stamp := vtime.Time(3600 * vtime.Second)
	e.RequestSwitch(ColdPassive, stamp)
	// A member's own multicasts are delivered in the order it sent them, so
	// once this later one is in, an earlier one would be in too.
	e.SetCheckpointEvery(9, 0)
	deadline := time.Now().Add(2 * time.Second)
	for e.CheckpointEvery() != 9 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint interval never delivered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var last vtime.Time
	var switching bool
	e.do(func() { last, switching = e.lastVT, e.switching != nil })
	if !last.Before(stamp) {
		t.Fatalf("a switch requested mid-switch was multicast (engine clock %v)", last)
	}
	if !switching || e.Style() != WarmPassive {
		t.Fatalf("in-flight switch disturbed: switching=%v style=%v", switching, e.Style())
	}
}

// Regression: a checkpoint half whose counterpart can never arrive
// (sender crashed between marker and state, or an older serial superseded
// by a newer completed checkpoint) must be pruned, not retained forever.
func TestCheckpointOrphansPruned(t *testing.T) {
	rec := trace.New()
	e, _ := startEngine(t, "r1", Config{Style: WarmPassive, Trace: rec})

	deadline := time.Now().Add(2 * time.Second)
	for e.Role() != RolePrimary {
		if time.Now().After(deadline) {
			t.Fatal("engine never processed its bootstrap view")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Superseded serial: an orphaned state half (serial 1, marker lost)
	// must be dropped when serial 2 from the same sender completes. On the
	// seed code it survived indefinitely.
	e.do(func() {
		e.view = gcs.View{ID: 2, Members: []string{"r1", "r2"}}
		e.pendStates[ckptKey{"r2", 1}] = &Msg{Kind: KindState, State: []byte("old"), CkptSerial: 1}
		e.pendMarkers[ckptKey{"r2", 2}] = &pendingMarker{msg: Msg{Kind: KindCheckpoint, CkptSerial: 2}}
		e.pendStates[ckptKey{"r2", 2}] = &Msg{Kind: KindState, State: []byte("new"), CkptSerial: 2}
		e.notePendingCkpts() // insertion sites normally record the gauge
		e.tryApplyCheckpoint("r2", 2)
	})
	if n := e.PendingCheckpoints(); n != 0 {
		t.Fatalf("pending checkpoint halves after superseding apply = %d, want 0", n)
	}
	if got := rec.Value(trace.SubReplication, "ckpt_orphans_pruned"); got != 1 {
		t.Fatalf("ckpt_orphans_pruned = %d, want 1", got)
	}
	if got := rec.Value(trace.SubReplication, "checkpoints_applied"); got != 1 {
		t.Fatalf("checkpoints_applied = %d, want 1", got)
	}

	// Crash mid-checkpoint: r2's marker arrived, its state never will; the
	// view change that removes r2 prunes the orphan.
	e.do(func() {
		e.pendMarkers[ckptKey{"r2", 3}] = &pendingMarker{msg: Msg{Kind: KindCheckpoint, CkptSerial: 3}}
		e.handleView(gcs.Event{Kind: gcs.EventView, View: gcs.View{ID: 3, Members: []string{"r1"}}})
	})
	if n := e.PendingCheckpoints(); n != 0 {
		t.Fatalf("pending checkpoint halves after crash view = %d, want 0", n)
	}
	if got := rec.Value(trace.SubReplication, "ckpt_orphans_pruned"); got != 2 {
		t.Fatalf("ckpt_orphans_pruned = %d, want 2", got)
	}
	// The high-water gauge saw all three in-flight halves at once.
	if got := rec.Value(trace.SubReplication, "pending_checkpoints"); got < 3 {
		t.Fatalf("pending_checkpoints high-water = %d, want >= 3", got)
	}
}
