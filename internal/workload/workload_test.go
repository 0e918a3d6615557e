package workload_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"versadep/internal/codec"
	"versadep/internal/orb"
	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/vtime"
	"versadep/internal/workload"
)

func TestBenchAppInvoke(t *testing.T) {
	app := workload.NewBenchApp(1024, 20*vtime.Microsecond, 64)
	res, err := app.Invoke("work", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Int != 1 || len(res[1].Byt) != 64 {
		t.Fatalf("work = %+v", res)
	}
	if _, err := app.Invoke("work", nil); err != nil {
		t.Fatal(err)
	}
	res, err = app.Invoke("read", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Int != 2 || app.Counter() != 2 {
		t.Fatalf("read = %+v, counter = %d", res, app.Counter())
	}
	if _, err := app.Invoke("explode", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	if got := app.ExecCost("work", nil); got != 20*vtime.Microsecond {
		t.Fatalf("ExecCost = %v", got)
	}
}

func TestBenchAppStateRoundTrip(t *testing.T) {
	app := workload.NewBenchApp(2048, 0, 0)
	for i := 0; i < 5; i++ {
		if _, err := app.Invoke("work", nil); err != nil {
			t.Fatal(err)
		}
	}
	state := app.State()
	// State size reflects the configured padding (Table 1's state-size
	// parameter).
	if len(state) < 2048 {
		t.Fatalf("state = %d bytes, want >= 2048", len(state))
	}
	other := workload.NewBenchApp(2048, 0, 0)
	if err := other.Restore(state); err != nil {
		t.Fatal(err)
	}
	if other.Counter() != 5 {
		t.Fatalf("restored counter = %d", other.Counter())
	}
	if err := other.Restore([]byte{1}); err == nil {
		t.Fatal("garbage state accepted")
	}
}

// liveEnv boots a tiny real system for generator tests.
func liveEnv(t *testing.T) (*replicator.ClientNode, *workload.BenchApp) {
	t.Helper()
	net := simnet.New(simnet.WithSeed(3))
	t.Cleanup(func() { net.Close() })
	ep, err := net.Endpoint("replica-a")
	if err != nil {
		t.Fatal(err)
	}
	app := workload.NewBenchApp(1024, 15*vtime.Microsecond, 64)
	node := replicator.StartReplica(ep, replicator.ReplicaConfig{
		Replication: replication.Config{
			Style: replication.Active,
			Model: net.CostModel(),
			State: app,
		},
	})
	node.Register("Bench", app)
	t.Cleanup(node.Stop)

	cep, err := net.Endpoint("client-1")
	if err != nil {
		t.Fatal(err)
	}
	client := replicator.StartClient(cep, replicator.ClientConfig{
		Members: []string{"replica-a"},
		Model:   net.CostModel(),
		Timeout: 500 * time.Millisecond,
		Retries: 10,
	})
	t.Cleanup(client.Stop)
	return client, app
}

func TestClosedLoopRun(t *testing.T) {
	client, app := liveEnv(t)
	replies := 0
	cl := workload.ClosedLoop{
		Client:       client,
		Requests:     25,
		Think:        100 * vtime.Microsecond,
		RequestBytes: 128,
		OnReply: func(_ int, out *orb.Outcome, err error) bool {
			if err == nil && out.Ledger.Total() > 0 {
				replies++
			}
			return true
		},
	}
	res := cl.Run()
	if res.Errors != 0 || res.Requests != 25 {
		t.Fatalf("requests=%d errors=%d", res.Requests, res.Errors)
	}
	if app.Counter() != 25 {
		t.Fatalf("app counter = %d", app.Counter())
	}
	if replies != 25 {
		t.Fatalf("%d replies seen with their cost ledger, want 25", replies)
	}
	st := res.Latency.Snapshot()
	if st.Count != 25 || st.Mean() <= 0 {
		t.Fatalf("latency stats = %+v", st)
	}
	// Closed loop: makespan ≈ Σ(RTT + think); throughput consistent.
	if res.Makespan() <= 0 {
		t.Fatal("no makespan")
	}
	thr := res.Throughput()
	if thr <= 0 || thr > 1e6 {
		t.Fatalf("throughput = %v", thr)
	}
	// Think time must appear in the makespan.
	minSpan := vtime.Duration(25) * (vtime.Duration(st.Min) + 100*vtime.Microsecond)
	if res.Makespan() < minSpan/2 {
		t.Fatalf("makespan %v below think-time floor", res.Makespan())
	}
}

func TestClosedLoopDefaults(t *testing.T) {
	client, _ := liveEnv(t)
	// Empty Object/Op default to Bench/work.
	res := workload.ClosedLoop{Client: client, Requests: 3}.Run()
	if res.Requests != 3 || res.Errors != 0 {
		t.Fatalf("defaults run: %+v", res)
	}
}

// TestClosedLoopOnReply: the hook sees every request's end in order — the
// reply, or the error for an operation the servant rejects — and its false
// ends the cycle there.
func TestClosedLoopOnReply(t *testing.T) {
	client, app := liveEnv(t)
	next := 0
	res := workload.ClosedLoop{Client: client, Requests: 10,
		OnReply: func(i int, out *orb.Outcome, err error) bool {
			if i != next || err != nil || out.RTT() <= 0 {
				t.Errorf("hook call %d: i=%d err=%v", next, i, err)
			}
			next++
			return i < 3
		}}.Run()
	if res.Requests != 4 || next != 4 || app.Counter() != 4 {
		t.Fatalf("stopped after %d requests, %d hook calls, counter %d; want 4 each", res.Requests, next, app.Counter())
	}

	var failed error
	res = workload.ClosedLoop{Client: client, Op: "no-such-op", Requests: 3,
		OnReply: func(_ int, out *orb.Outcome, err error) bool {
			failed = err
			return err == nil
		}}.Run()
	if failed == nil || res.Errors != 1 || res.Requests != 0 {
		t.Fatalf("failing cycle: err=%v errors=%d requests=%d, want one error and a stop", failed, res.Errors, res.Requests)
	}
}

func TestOpenLoopRun(t *testing.T) {
	client, app := liveEnv(t)
	ol := workload.OpenLoop{
		Client: client,
		Phases: []workload.Phase{
			{Rate: 1000, Requests: 20}, // 1 per virtual ms
			{Rate: 0, Requests: 5},     // non-positive rates are skipped
			{Rate: 5000, Requests: 20},
		},
		MaxOutstanding: 8,
	}
	res := ol.Run()
	if res.Errors != 0 || res.Requests != 40 {
		t.Fatalf("requests=%d errors=%d", res.Requests, res.Errors)
	}
	if app.Counter() != 40 {
		t.Fatalf("app counter = %d", app.Counter())
	}
	// The arrival schedule spans 20ms + 4ms of virtual time at least.
	if res.EndVT.Sub(res.StartVT) < 20*vtime.Millisecond {
		t.Fatalf("virtual span = %v", res.EndVT.Sub(res.StartVT))
	}
}

func TestOpenLoopOnReply(t *testing.T) {
	client, _ := liveEnv(t)
	var mu sync.Mutex
	var got int
	var lastRTT vtime.Duration
	ol := workload.OpenLoop{
		Client: client,
		Phases: []workload.Phase{{Rate: 2000, Requests: 10}},
		OnReply: func(sentVT vtime.Time, out *orb.Outcome) {
			mu.Lock()
			got++
			lastRTT = out.RTT()
			mu.Unlock()
		},
	}
	res := ol.Run()
	mu.Lock()
	defer mu.Unlock()
	if res.Requests != 10 || got != 10 {
		t.Fatalf("requests=%d callbacks=%d", res.Requests, got)
	}
	if lastRTT <= 0 {
		t.Fatal("callback saw no RTT")
	}
}

// TestBenchAppStateOneBuffer: a snapshot is serialised once, into one
// buffer, and its bytes are the counter and the length-prefixed zero
// padding as the codec encodes them.
func TestBenchAppStateOneBuffer(t *testing.T) {
	for _, size := range []int{0, 6144, 64 << 10} {
		app := workload.NewBenchApp(size, 0, 0)
		for i := 0; i < 3; i++ {
			if _, err := app.Invoke("work", nil); err != nil {
				t.Fatal(err)
			}
		}
		want := codec.NewEncoder(0)
		want.PutInt64(3)
		want.PutBytes(make([]byte, size))
		if got := app.State(); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("state of %d B: %d bytes differ from the codec's %d", size, len(got), want.Len())
		}
		if allocs := testing.AllocsPerRun(20, func() { app.State() }); allocs != 1 {
			t.Errorf("state of %d B: %v allocations, want 1", size, allocs)
		}
		other := workload.NewBenchApp(size, 0, 0)
		if err := other.Restore(app.State()); err != nil || other.Counter() != 3 {
			t.Errorf("state of %d B: restored counter %d, err %v", size, other.Counter(), err)
		}
	}
}
