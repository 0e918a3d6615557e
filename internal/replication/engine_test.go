package replication

import (
	"errors"
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
// close of the stop channel, and StatsSnapshot must answer with the last
// state as soon as any Stop call has returned (run with -race).
func TestEngineStopConcurrent(t *testing.T) {
	e, _ := startEngine(t, "g1", Config{Style: WarmPassive, CheckpointEvery: 5})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Stop()
			if got := e.StatsSnapshot().CheckpointEvery; got != 5 {
				t.Errorf("CheckpointEvery right after Stop returned = %d, want 5", got)
			}
		}()
	}
	wg.Wait()
}

// Regression: on the seed code every getter went through do(), which
// silently no-ops once the engine is stopped, so the getters returned zero
// values after Stop. StatsSnapshot must report the last state instead.
func TestGettersSurviveStop(t *testing.T) {
	e, _ := portEngine(t, "g1", Config{Style: WarmPassive, CheckpointEvery: 5})
	runPort(t, e)(viewEvent(1, "g1"))
	e.Stop()

	if got := e.StatsSnapshot(); got.Style != WarmPassive || got.Role != RolePrimary || !got.Synced ||
		got.CheckpointEvery != 5 || got.View != 1 {
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

// A control request the requester can already tell is void is refused
// with its reason, and multicasts nothing. A switch requested while a
// passive→active switch is in flight would be discarded on delivery too
// (Figure 5, step I), but a request sent then is one more agreed message
// for every controller step of the switch window.
func TestRequestSwitchDuringSwitchMulticastsNothing(t *testing.T) {
	cases := []struct {
		name    string
		inState func(feed func(gcs.Event)) // brings the backup to the refusing state
		request func(e *Engine) error
		want    error
	}{
		{"switch in flight", func(feed func(gcs.Event)) {
			// It accepts a switch to active and waits for the primary's
			// closing checkpoint.
			feed(agreedEvent("aa", 41, &Msg{Kind: KindSwitch, Style: Active}))
		}, func(e *Engine) error { return e.RequestSwitch(ColdPassive, 0) }, ErrSwitchInFlight},
		{"already that style", nil,
			func(e *Engine) error { return e.RequestSwitch(WarmPassive, 0) }, ErrAlreadyStyle},
		{"checkpoint interval zero", nil,
			func(e *Engine) error { return e.SetCheckpointEvery(0, 0) }, ErrBadInterval},
		{"checkpoint interval negative", nil,
			func(e *Engine) error { return e.SetCheckpointEvery(-3, 0) }, ErrBadInterval},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, p := portEngine(t, "mw", Config{Style: WarmPassive, CheckpointEvery: 100})
			feed := runPort(t, e)
			// A synced backup of a warm-passive pair, with "aa" the primary.
			feed(viewEvent(7, "aa", "mw"))
			if c.inState != nil {
				c.inState(feed)
			}
			p.mu.Lock()
			before := len(p.sent)
			p.mu.Unlock()
			if err := c.request(e); !errors.Is(err, c.want) {
				t.Fatalf("request returned %v, want %v", err, c.want)
			}
			p.mu.Lock()
			sent := p.sent[before:]
			p.mu.Unlock()
			if len(sent) != 0 {
				t.Fatalf("a refused request sent %+v", sent)
			}
			var switching bool
			e.do(func() { switching = e.switching != nil })
			if st := e.StatsSnapshot(); st.Style != WarmPassive || st.CheckpointEvery != 100 ||
				switching != (c.inState != nil) {
				t.Fatalf("a refused request disturbed the engine: switching=%v %+v", switching, st)
			}
		})
	}

	// With none in flight, a switch is accepted and multicast once.
	e, p := portEngine(t, "mw", Config{Style: WarmPassive, CheckpointEvery: 100})
	feed := runPort(t, e)
	feed(viewEvent(7, "aa", "mw"))
	if err := e.RequestSwitch(ColdPassive, 0); err != nil {
		t.Fatalf("a switch requested with none in flight refused: %v", err)
	}
	if got := p.take(KindSwitch); len(got) != 1 || got[0].to != "" || got[0].msg.Style != ColdPassive {
		t.Fatalf("a switch requested with none in flight sent %+v, want one multicast", got)
	}
}

// Regression: a checkpoint half whose counterpart can never arrive
// (sender crashed between marker and state, or an older serial superseded
// by a newer completed checkpoint) must be pruned, not retained forever.
func TestCheckpointOrphansPruned(t *testing.T) {
	rec := trace.New()
	e, _ := portEngine(t, "r1", Config{Style: WarmPassive, Trace: rec})
	e.step(viewEvent(2, "r1", "r2"))

	// Superseded serial: an orphaned state half (serial 1, marker lost)
	// must be dropped when serial 2 from the same sender completes. On the
	// seed code it survived indefinitely.
	e.step(directEvent("r2", &Msg{Kind: KindState, State: []byte("old"), CkptSerial: 1}))
	e.step(agreedEvent("r2", 3, &Msg{Kind: KindCheckpoint, CkptSerial: 2}))
	e.step(directEvent("r2", &Msg{Kind: KindState, State: []byte("new"), CkptSerial: 2}))
	if n := len(e.pending); n != 0 {
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
	e.step(agreedEvent("r2", 4, &Msg{Kind: KindCheckpoint, CkptSerial: 3}))
	e.step(viewEvent(5, "r1"))
	if n := len(e.pending); n != 0 {
		t.Fatalf("pending checkpoint halves after crash view = %d, want 0", n)
	}
	if got := rec.Value(trace.SubReplication, "ckpt_orphans_pruned"); got != 2 {
		t.Fatalf("ckpt_orphans_pruned = %d, want 2", got)
	}
	// The high-water gauge saw all three in-flight halves at once.
	if got := rec.Value(trace.SubReplication, "pending_checkpoints"); got != 3 {
		t.Fatalf("pending_checkpoints high-water = %d, want 3", got)
	}
}
