package transport_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"versadep/internal/transport"
	"versadep/internal/vtime"
)

// fakeEndpoint records every emitted payload.
type fakeEndpoint struct {
	mu   sync.Mutex
	sent [][]byte
}

func (f *fakeEndpoint) Addr() string { return "fake" }

func (f *fakeEndpoint) Send(to string, payload []byte, sentAt vtime.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, append([]byte(nil), payload...))
	return nil
}

func (f *fakeEndpoint) SendMulticast(tos []string, payload []byte, sentAt vtime.Time) error {
	return f.Send("", payload, sentAt)
}

func (f *fakeEndpoint) SendControl(to string, payload []byte, sentAt vtime.Time) error {
	return f.Send(to, payload, sentAt)
}

func (f *fakeEndpoint) Serve(func(transport.Message)) {}
func (f *fakeEndpoint) Close() error                  { return nil }

func (f *fakeEndpoint) snapshot() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]byte(nil), f.sent...)
}

func TestDropSwallowsEverything(t *testing.T) {
	inner := &fakeEndpoint{}
	ep := transport.ApplyRule(inner, transport.Rule{Drop: 1}, 1)
	for i := 0; i < 20; i++ {
		if err := ep.Send("x", []byte("hello"), 0); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if got := len(inner.snapshot()); got != 0 {
		t.Fatalf("drop=1 emitted %d frames, want 0", got)
	}
	if st := ep.Stats(); st.MessagesDropped != 20 {
		t.Fatalf("MessagesDropped = %d, want 20", st.MessagesDropped)
	}
}

func TestDupDoublesEverySend(t *testing.T) {
	inner := &fakeEndpoint{}
	ep := transport.ApplyRule(inner, transport.Rule{Dup: 1}, 1)
	for i := 0; i < 10; i++ {
		_ = ep.Send("x", []byte("hello"), 0)
	}
	// A multicast is one send per destination, each duplicated.
	_ = ep.SendMulticast([]string{"x", "y"}, []byte("hello"), 0)
	if got := len(inner.snapshot()); got != 24 {
		t.Fatalf("dup=1 emitted %d frames, want 24", got)
	}
}

func TestCorruptFlipsACopyNotTheOriginal(t *testing.T) {
	inner := &fakeEndpoint{}
	ep := transport.ApplyRule(inner, transport.Rule{Corrupt: 1}, 1)
	orig := []byte("payload")
	_ = ep.Send("x", orig, 0)
	sent := inner.snapshot()
	if len(sent) != 1 {
		t.Fatalf("emitted %d frames, want 1", len(sent))
	}
	if bytes.Equal(sent[0], []byte("payload")) {
		t.Fatal("corrupt=1 emitted an undamaged frame")
	}
	if !bytes.Equal(orig, []byte("payload")) {
		t.Fatal("corruption mutated the caller's buffer")
	}
	flipped := 0
	for i := range orig {
		for d := orig[i] ^ sent[0][i]; d != 0; d &= d - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("corruption flipped %d bits, want 1", flipped)
	}
}

func TestDelayHoldsThenDelivers(t *testing.T) {
	inner := &fakeEndpoint{}
	ep := transport.ApplyRule(inner, transport.Rule{Delay: 20 * time.Millisecond}, 1)
	_ = ep.Send("x", []byte("late"), 0)
	if got := len(inner.snapshot()); got != 0 {
		t.Fatalf("delayed frame emitted immediately (%d frames)", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(inner.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed frame never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := ep.Stats(); st.MessagesDelayed != 1 {
		t.Fatalf("MessagesDelayed = %d, want 1", st.MessagesDelayed)
	}
}

func TestSameSeedSameFaultSequence(t *testing.T) {
	run := func() [][]byte {
		inner := &fakeEndpoint{}
		ep := transport.ApplyRule(inner, transport.Rule{Drop: 0.3, Dup: 0.3, Corrupt: 0.3}, 42)
		for i := 0; i < 50; i++ {
			_ = ep.Send("x", []byte{byte(i), 0, 0, 0}, 0)
		}
		return inner.snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("same seed emitted %d vs %d frames", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed diverged at frame %d: %x vs %x", i, a[i], b[i])
		}
	}
}
