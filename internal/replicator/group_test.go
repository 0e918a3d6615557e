package replicator_test

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"versadep/internal/replication"
	"versadep/internal/replicator"
	"versadep/internal/simnet"
	"versadep/internal/trace"
)

// addCounter starts a counter replica on g, joining through seeds.
func addCounter(t *testing.T, g *replicator.Group, net *simnet.Network, addr string, seeds []string) *counterApp {
	t.Helper()
	app := newCounterApp()
	node, err := g.Add(addr, seeds, replicator.ReplicaConfig{
		Replication: replication.Config{Style: replication.Active, Model: net.CostModel(), State: app},
	})
	if err != nil {
		t.Fatal(err)
	}
	node.Register("Counter", app)
	return app
}

// checkGroup waits for the group to settle on want and checks that Live,
// Members and WaitSize say what each live node's own view says.
func checkGroup(t *testing.T, g *replicator.Group, step string, want ...string) {
	t.Helper()
	if err := g.WaitSize(len(want), 10*time.Second); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if got := g.Members(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Members() = %v, want %v", step, got, want)
	}
	live := g.Live()
	if len(live) != len(want) {
		t.Fatalf("%s: %d live nodes, want %d", step, len(live), len(want))
	}
	for i, n := range live {
		if n.Addr() != want[i] {
			t.Fatalf("%s: Live()[%d] = %s, want %s", step, i, n.Addr(), want[i])
		}
		v, err := n.Member().View()
		if err != nil {
			t.Fatalf("%s: live node %s has no view: %v", step, n.Addr(), err)
		}
		got := append([]string(nil), v.Members...)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s sees view %v, the group says %v", step, n.Addr(), got, want)
		}
	}
}

// TestGroupLifecycle walks the #replicas knob both ways on the harness —
// boot three, add a fourth, crash the primary, retire one member through the
// agreed stream and one directly — with a client invoking throughout, and
// checks at every step that the group's account of itself is the nodes' own.
// Close then returns the process to its pre-boot goroutine census.
func TestGroupLifecycle(t *testing.T) {
	base := baseline()
	net := simnet.New(simnet.WithSeed(61))
	g := replicator.NewGroup(replicator.SimFabric(net))

	apps := make(map[string]*counterApp)
	var booted, seeds []string
	for _, addr := range []string{"ra", "rb", "rc"} {
		apps[addr] = addCounter(t, g, net, addr, seeds)
		booted, seeds = append(booted, addr), []string{"ra"}
		checkGroup(t, g, "boot "+addr, booted...)
	}

	// Timeout and Retries are left at their defaults: enough to ride out
	// the crash below.
	cl, err := g.Client("c1", replicator.ClientConfig{Members: g.Members(), Model: net.CostModel()})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	invoke := func(step string) {
		t.Helper()
		out, err := cl.Invoke("Counter", "add", []interface{}{"x", 1}, 0)
		if err != nil {
			t.Fatalf("%s: invoke: %v", step, err)
		}
		if total++; out.Results[0].Int != total {
			t.Fatalf("%s: add returned %d, want %d", step, out.Results[0].Int, total)
		}
	}
	invoke("booted")

	apps["rd"] = addCounter(t, g, net, "rd", g.Members())
	checkGroup(t, g, "added rd", "ra", "rb", "rc", "rd")
	invoke("added rd")

	net.Crash("ra") // the fabric's operation; the group observes it
	checkGroup(t, g, "crashed ra", "rb", "rc", "rd")
	invoke("crashed ra")

	// The directive retires the highest-ranked member; it leaves on its own
	// and the group notices its member has stopped.
	if err := g.Actuator(nil).Shrink(); err != nil {
		t.Fatal(err)
	}
	checkGroup(t, g, "shrunk", "rb", "rc")
	invoke("shrunk")

	if err := g.Retire("rc"); err != nil {
		t.Fatal(err)
	}
	checkGroup(t, g, "retired rc", "rb")
	invoke("retired rc")
	if err := g.Retire("rc"); err == nil {
		t.Fatal("double retirement accepted")
	}

	if got := len(g.Nodes()); got != 4 {
		t.Fatalf("Nodes() lists %d replicas, want all 4 ever added", got)
	}
	if err := g.Await(3*time.Second, replicator.CaughtUp); err != nil {
		t.Fatal(err)
	}
	if got := apps["rb"].value("x"); got != total {
		t.Fatalf("survivor holds %d, want %d", got, total)
	}
	// One snapshot of everything: the client's counters and those of the
	// replicas, departed ones included.
	snap := g.TraceSnapshot()
	if got := snap.Get(trace.SubORB, "invocations"); got != total {
		t.Fatalf("merged snapshot counts %d invocations, want %d", got, total)
	}
	if snap.Get(trace.SubReplication, "crashes_observed") == 0 || snap.Get(trace.SubReplication, "retirements") == 0 {
		t.Fatal("merged snapshot misses the replicas' crash and retirement counters")
	}

	g.Close()
	net.Close()
	if got := settle(base); got > base {
		t.Errorf("%d goroutines left after Close", got-base)
	}
}

// TestAwait pins the group's one progress wait: it is woken by notices, not
// by a clock, and a wait that fails says where every replica stood.
func TestAwait(t *testing.T) {
	for _, tc := range []struct {
		name string
		// act runs while Await waits; pred and timeout are Await's.
		act     func(g *replicator.Group, cl *replicator.ClientNode)
		pred    func(recs map[string]replication.Stats) bool
		timeout time.Duration
		// wantErr lists what the error must say; nil wants none.
		wantErr []string
		// evals, when set, is how often pred must have been evaluated.
		evals int64
	}{{
		name:    "already true",
		pred:    replicator.CaughtUp,
		timeout: time.Minute,
		evals:   1,
	}, {
		name: "woken by progress",
		act: func(_ *replicator.Group, cl *replicator.ClientNode) {
			_, _ = cl.Invoke("Counter", "add", []interface{}{"x", 1}, 0)
		},
		pred: func(recs map[string]replication.Stats) bool {
			return recs["ra"].Executed > 0 && recs["rb"].Executed > 0
		},
		timeout: time.Minute,
	}, {
		name:    "timeout prints the records",
		pred:    func(map[string]replication.Stats) bool { return false },
		timeout: 50 * time.Millisecond,
		wantErr: []string{"within 50ms", "ra:{", "rb:{", "Delivered:", "Executed:"},
	}, {
		name:    "stopped group",
		act:     func(g *replicator.Group, _ *replicator.ClientNode) { g.Close() },
		pred:    func(map[string]replication.Stats) bool { return false },
		timeout: time.Minute,
		wantErr: []string{"group closed"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			net := simnet.New(simnet.WithSeed(67))
			defer net.Close()
			g := replicator.NewGroup(replicator.SimFabric(net))
			defer g.Close()
			var notices atomic.Int64
			var seeds []string
			for _, addr := range []string{"ra", "rb"} {
				app := newCounterApp()
				node, err := g.Add(addr, seeds, replicator.ReplicaConfig{
					Replication: replication.Config{Style: replication.Active, Model: net.CostModel(), State: app,
						Observer: func(replication.Notice) { notices.Add(1) }},
				})
				if err != nil {
					t.Fatal(err)
				}
				node.Register("Counter", app)
				seeds = []string{"ra"}
				if err := g.Await(5*time.Second, replicator.CaughtUp); err != nil {
					t.Fatal(err)
				}
			}
			cl, err := g.Client("c1", replicator.ClientConfig{Members: g.Members(), Model: net.CostModel()})
			if err != nil {
				t.Fatal(err)
			}

			// Two waiters at once: each is woken, and each evaluates its
			// own pred.
			const waiters = 2
			var wg sync.WaitGroup
			errs, evals := make([]error, waiters), make([]int64, waiters)
			before := notices.Load()
			start := time.Now()
			for w := range errs {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = g.Await(tc.timeout, func(recs map[string]replication.Stats) bool {
						evals[w]++
						return tc.pred(recs)
					})
				}(w)
			}
			if tc.act != nil {
				tc.act(g, cl)
			}
			wg.Wait()
			took, woken := time.Since(start), notices.Load()-before

			if took > 10*time.Second {
				t.Fatalf("Await took %v", took)
			}
			for w, err := range errs {
				if tc.wantErr == nil && err != nil {
					t.Fatal(err)
				}
				for _, want := range tc.wantErr {
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("error %v does not say %q", err, want)
					}
				}
				// One evaluation up front, then at most one per notice: a
				// wait that polled would evaluate on its own clock.
				if evals[w] > 1+woken || (tc.evals != 0 && evals[w] != tc.evals) {
					t.Fatalf("pred evaluated %d times over %d notices", evals[w], woken)
				}
			}
		})
	}
}
