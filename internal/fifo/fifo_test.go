package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice: any interleaving of pushes and pops returns what a
// plain slice queue returns, through growth, slides and drains.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var want []int
		next := 0
		for step := 0; step < 5000; step++ {
			// Phases that mostly fill and phases that mostly drain.
			if rng.Intn(100) < 40+30*((step/500)%2) {
				q.Push(next)
				want = append(want, next)
				next++
			} else {
				v, ok := q.Pop()
				if ok != (len(want) > 0) || (ok && v != want[0]) {
					t.Fatalf("seed %d step %d: Pop = %d, %v; oracle holds %d values", seed, step, v, ok, len(want))
				}
				if ok {
					want = want[1:]
				}
			}
			if q.Len() != len(want) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(want))
			}
		}
	}
}

// TestQueueReusesItsArray: the queue that drains after every few values —
// a request/reply path — stops allocating once it has seen its burst size,
// and a queue that never quite drains does not grow for ever either.
func TestQueueReusesItsArray(t *testing.T) {
	var q Queue[[]byte]
	payload := make([]byte, 8)
	burst := func() {
		for i := 0; i < 3; i++ {
			q.Push(payload)
		}
		for i := 0; i < 3; i++ {
			q.Pop()
		}
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("a draining queue allocates %v times per burst, want 0", allocs)
	}

	q.Push(payload) // from here on the queue always holds one value
	if allocs := testing.AllocsPerRun(1000, func() { q.Push(payload); q.Pop() }); allocs != 0 {
		t.Errorf("a never-empty queue allocates %v times per push, want 0", allocs)
	}
	if c := cap(q.buf); c > 16 {
		t.Errorf("a queue holding at most 2 values grew to %d slots", c)
	}
}

// TestQueueReleases: a popped slot no longer points at its value, and a
// drained queue lets an outsized burst's array go.
func TestQueueReleases(t *testing.T) {
	var q Queue[[]byte]
	q.Push(make([]byte, 1))
	q.Push(make([]byte, 1))
	q.Pop()
	if q.buf[0] != nil {
		t.Error("a vacated slot still holds its payload")
	}
	for i := 0; i < 4*idleCap; i++ {
		q.Push(nil)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if cap(q.buf) > idleCap {
		t.Errorf("drained queue keeps %d slots, want at most %d", cap(q.buf), idleCap)
	}
}
