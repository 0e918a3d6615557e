package faults

import (
	"testing"
	"time"

	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// wait waits for a schedule's done channel.
func wait(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("schedule did not complete")
	}
}

func TestScheduleRunsInOrder(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("b"); err != nil {
		t.Fatal(err)
	}

	var s Schedule
	s.At(0, "drop", SetLink("a", "b", transport.Rule{Drop: 1})).
		At(10*time.Millisecond, "delay", SetLink("b", "a", transport.Rule{Delay: 5 * vtime.Millisecond})).
		At(15*time.Millisecond, "half drop", SetLink("a", "b", transport.Rule{Drop: 0.5})).
		At(20*time.Millisecond, "crash", Crash("b"))
	if n := len(s.Steps()); n != 4 {
		t.Fatalf("%d steps", n)
	}

	wait(t, Run(net, &s))
	if r := net.Rule("a", "b"); r != (transport.Rule{Drop: 0.5}) {
		t.Fatalf("rule on a->b = %+v, want the later step's", r)
	}
	if r := net.Rule("b", "a"); r != (transport.Rule{Delay: 5 * vtime.Millisecond}) {
		t.Fatalf("rule on b->a = %+v", r)
	}
	if !net.Crashed("b") {
		t.Fatal("crash step not applied")
	}
}

// Regression: the injector this package used to have held a single done
// channel that every Run goroutine closed, so running a second schedule
// on it panicked with "close of closed channel". Each Run now owns its
// channel.
func TestRunTwiceOnSameInjector(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("b"); err != nil {
		t.Fatal(err)
	}

	var s1 Schedule
	s1.At(0, "drop", SetLink("a", "b", transport.Rule{Drop: 1}))
	wait(t, Run(net, &s1))
	if r := net.Rule("a", "b"); r != (transport.Rule{Drop: 1}) {
		t.Fatalf("rule on a->b after the first schedule = %+v", r)
	}

	var s2 Schedule
	s2.At(0, "heal", Heal())
	wait(t, Run(net, &s2))
	if r := net.Rule("a", "b"); r != (transport.Rule{}) {
		t.Fatalf("rule on a->b after the second schedule = %+v", r)
	}
}

func TestPartitionAndHealActions(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	epA, _ := net.Endpoint("a")
	epB, _ := net.Endpoint("b")
	_ = epB

	Partition("b", 2)(net)
	if err := epA.Send("b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if net.Stats().MessagesDropped != 1 {
		t.Fatal("partition action had no effect")
	}
	Heal()(net)
	if err := epA.Send("b", []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-epB.Recv():
		if string(m.Payload) != "y" {
			t.Fatalf("payload %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("heal action had no effect")
	}
}

func TestHealAddrIsTargeted(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	epA, _ := net.Endpoint("a")
	epB, _ := net.Endpoint("b")
	epC, _ := net.Endpoint("c")
	_ = epC

	// Isolate both b and c, then heal only b: a→b flows again while a→c
	// stays dead.
	Partition("b", 2)(net)
	Partition("c", 3)(net)
	HealAddr("b")(net)

	if err := epA.Send("b", []byte("to-b"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-epB.Recv():
		if string(m.Payload) != "to-b" {
			t.Fatalf("payload %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("HealAddr did not reconnect b")
	}

	dropped := net.Stats().MessagesDropped
	if err := epA.Send("c", []byte("to-c"), 0); err != nil {
		t.Fatal(err)
	}
	if got := net.Stats().MessagesDropped; got != dropped+1 {
		t.Fatalf("c should still be partitioned (dropped %d -> %d)", dropped, got)
	}
}

// probe returns a step that sends one message from ep to addr and records
// how many messages the fabric had dropped once it was sent.
func probe(ep transport.Endpoint, to string, dropped *int64) Action {
	return func(n *simnet.Network) {
		_ = ep.Send(to, []byte("probe"), 0)
		*dropped = n.Stats().MessagesDropped
	}
}

// A loss burst is two steps of one schedule: the rule, then the zero rule.
// A probe step between them sees the loss; after them the link carries
// traffic again.
func TestBurstSetsAndRestoresLoss(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	epA, _ := net.Endpoint("a")
	epB, _ := net.Endpoint("b")

	var during int64
	var s Schedule
	s.At(0, "burst a->b", SetLink("a", "b", transport.Rule{Drop: 1})).
		At(0, "probe", probe(epA, "b", &during)).
		At(150*time.Millisecond, "burst over", SetLink("a", "b", transport.Rule{}))
	wait(t, Run(net, &s))
	if during != 1 {
		t.Fatalf("burst loss had no effect (%d dropped)", during)
	}

	if err := epA.Send("b", []byte("after"), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-epB.Recv():
		if string(m.Payload) != "after" {
			t.Fatalf("payload %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("link dead after the burst")
	}
}

// A burst inside a longer schedule is directional — the reverse link keeps
// flowing during it — and the steps after it still fire.
func TestBurstInSchedule(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	epA, _ := net.Endpoint("a")
	epB, _ := net.Endpoint("b")

	var forward, reverse int64
	var s Schedule
	s.At(0, "burst a->b", SetLink("a", "b", transport.Rule{Drop: 1})).
		At(0, "probe a->b", probe(epA, "b", &forward)).
		At(0, "probe b->a", probe(epB, "a", &reverse)).
		At(20*time.Millisecond, "burst over", SetLink("a", "b", transport.Rule{})).
		At(30*time.Millisecond, "crash b", Crash("b"))
	wait(t, Run(net, &s))
	if forward != 1 || reverse != 1 {
		t.Fatalf("dropped after the forward probe %d, after the reverse one %d; want 1 and 1", forward, reverse)
	}
	if r := net.Rule("a", "b"); r != (transport.Rule{}) {
		t.Fatalf("rule on a->b after the burst = %+v", r)
	}
	if !net.Crashed("b") {
		t.Fatal("step after the burst not applied")
	}
}

// Heal clears link rules as well as partitions: what a campaign's final
// heal-all relies on.
func TestHealClearsLinkRules(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	SetLink("*", "*", transport.Rule{Drop: 0.5})(net)
	SetLink("a", "*", transport.Rule{Delay: vtime.Millisecond})(net)
	Partition("a", 1)(net)
	Heal()(net)
	if r := net.Rule("a", "b"); r != (transport.Rule{}) {
		t.Fatalf("rule on a->b after Heal = %+v", r)
	}
	if r := net.Rule("x", "y"); r != (transport.Rule{}) {
		t.Fatalf("rule on x->y after Heal = %+v", r)
	}
}
