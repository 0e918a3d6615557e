// Package fifo is the elastic queue that stands between a producer that
// must never block and a consumer that may be slow: simnet's per-endpoint
// delivery queue and the gcs member's event queue.
package fifo

// idleCap is the largest backing array a drained queue keeps for the next
// burst; a larger one goes back to the collector.
const idleCap = 1024

// Queue is an unbounded first-in first-out queue. A queue that drains —
// the steady state of a request/reply path — reuses its backing array, so
// pushing allocates only while a burst outgrows every earlier one. The
// zero value is ready to use; a Queue is not safe for concurrent use.
type Queue[T any] struct {
	buf  []T
	head int // buf[head:] is queued, buf[:head] is consumed and zeroed
}

// Len returns how many values are queued.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Full, and mostly consumed: slide the rest down instead of growing.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest value; ok is false on an empty queue.
// The vacated slot is zeroed, so the queue does not pin what v points to.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.head == len(q.buf) {
		return v, false
	}
	var zero T
	v, q.buf[q.head] = q.buf[q.head], zero
	q.head++
	if q.head == len(q.buf) {
		if cap(q.buf) > idleCap {
			q.buf = nil
		}
		q.buf, q.head = q.buf[:0], 0
	}
	return v, true
}
