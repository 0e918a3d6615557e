package faults

import (
	"testing"
	"time"

	"versadep/internal/simnet"
	"versadep/internal/transport"
	"versadep/internal/vtime"
)

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
		At(20*time.Millisecond, "crash", Crash("b"))
	if n := len(s.Steps()); n != 3 {
		t.Fatalf("%d steps", n)
	}

	inj := NewInjector(net)
	select {
	case <-inj.Run(&s):
	case <-time.After(5 * time.Second):
		t.Fatal("schedule did not complete")
	}
	applied := inj.Applied()
	if len(applied) != 3 || applied[0] != "drop" || applied[2] != "crash" {
		t.Fatalf("applied = %v", applied)
	}
	if !net.Crashed("b") {
		t.Fatal("crash step not applied")
	}
}

func TestStopAbortsSchedule(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}

	var s Schedule
	s.At(0, "first", Heal()).
		At(10*time.Second, "never", Crash("a"))
	inj := NewInjector(net)
	done := inj.Run(&s)
	time.Sleep(20 * time.Millisecond)
	inj.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not abort the schedule")
	}
	if net.Crashed("a") {
		t.Fatal("aborted step still fired")
	}
	inj.Stop() // idempotent
	if got := inj.Applied(); len(got) != 1 || got[0] != "first" {
		t.Fatalf("applied = %v", got)
	}
}

// Regression: on the seed code the injector held a single done channel
// that every Run goroutine closed, so running a second schedule on the
// same injector panicked with "close of closed channel".
func TestRunTwiceOnSameInjector(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Endpoint("b"); err != nil {
		t.Fatal(err)
	}

	inj := NewInjector(net)

	var s1 Schedule
	s1.At(0, "drop", SetLink("a", "b", transport.Rule{Drop: 1}))
	select {
	case <-inj.Run(&s1):
	case <-time.After(5 * time.Second):
		t.Fatal("first schedule did not complete")
	}

	var s2 Schedule
	s2.At(0, "heal", Heal())
	select {
	case <-inj.Run(&s2): // seed: panics closing the shared done channel
	case <-time.After(5 * time.Second):
		t.Fatal("second schedule did not complete")
	}

	if got := inj.Applied(); len(got) != 2 || got[0] != "drop" || got[1] != "heal" {
		t.Fatalf("applied = %v", got)
	}
}

// Regression: Run after Stop must complete immediately without firing any
// step (and without panicking on the seed's shared done channel).
func TestRunAfterStopFiresNothing(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	if _, err := net.Endpoint("a"); err != nil {
		t.Fatal(err)
	}

	inj := NewInjector(net)
	var s1 Schedule
	s1.At(0, "first", Heal())
	select {
	case <-inj.Run(&s1):
	case <-time.After(5 * time.Second):
		t.Fatal("first schedule did not complete")
	}
	inj.Stop()

	var s2 Schedule
	s2.At(0, "crash", Crash("a"))
	select {
	case <-inj.Run(&s2):
	case <-time.After(2 * time.Second):
		t.Fatal("post-stop schedule did not complete")
	}
	if net.Crashed("a") {
		t.Fatal("stopped injector fired a step")
	}
	if got := inj.Applied(); len(got) != 1 {
		t.Fatalf("applied = %v", got)
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

// A loss burst is two steps of one schedule: the rule, then the zero rule.
func lossBurst(from, to string, dur time.Duration) *Schedule {
	var s Schedule
	return s.At(0, "burst "+from+"->"+to, SetLink(from, to, transport.Rule{Drop: 1})).
		At(dur, "burst over", SetLink(from, to, transport.Rule{}))
}

// waitApplied waits until inj has fired n steps.
func waitApplied(t *testing.T, inj *Injector, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(inj.Applied()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("applied = %v, want %d steps", inj.Applied(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBurstSetsAndRestoresLoss(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	epA, _ := net.Endpoint("a")
	epB, _ := net.Endpoint("b")

	inj := NewInjector(net)
	inj.Run(lossBurst("a", "b", 150*time.Millisecond))
	waitApplied(t, inj, 1)
	if err := epA.Send("b", []byte("lost"), 0); err != nil {
		t.Fatal(err)
	}
	if net.Stats().MessagesDropped != 1 {
		t.Fatal("burst loss had no effect")
	}

	// After the burst window the link must carry traffic again.
	waitApplied(t, inj, 2)
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

func TestBurstInSchedule(t *testing.T) {
	net := simnet.New()
	defer net.Close()
	epA, _ := net.Endpoint("a")
	epB, _ := net.Endpoint("b")
	_ = epB

	inj := NewInjector(net)
	done := inj.Run(lossBurst("a", "b", time.Hour))
	waitApplied(t, inj, 1)
	if got := inj.Applied(); len(got) != 1 || got[0] != "burst a->b" {
		t.Fatalf("applied = %v", got)
	}
	if err := epA.Send("b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if net.Stats().MessagesDropped != 1 {
		t.Fatal("scheduled burst had no effect")
	}
	inj.Stop()
	<-done
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
