package experiment

import (
	"testing"
	"time"

	"versadep/internal/vtime"
)

// TestPacerBoundsLag: a client whose next request would leave more than
// lagWindow ahead of another running client waits until that client catches
// up, or stops; within the window it does not wait.
func TestPacerBoundsLag(t *testing.T) {
	const w = vtime.Time(lagWindow)
	p := newPacer(3)
	p.advance(0, w) // one window ahead of clients 1 and 2: no wait

	released := make(chan struct{})
	go func() {
		p.advance(0, 3*w)
		close(released)
	}()
	held := func() bool {
		select {
		case <-released:
			return false
		case <-time.After(20 * time.Millisecond):
			return true
		}
	}
	if !held() {
		t.Fatal("a client three windows ahead of the others was not held")
	}
	p.stop(2)
	if !held() {
		t.Fatal("released while client 1 was still three windows behind")
	}
	p.advance(1, 2*w) // client 2 has stopped, so client 1 does not wait
	if held() {
		t.Fatal("still held once every client behind it caught up or stopped")
	}
}
