// Package alloctest is test support for allocation budgets: the byte-count
// companion of testing.AllocsPerRun. Budgets hold the one-buffer-per-message
// design in tier-1, where nobody runs the wall-clock benchmark: they count,
// they never time.
package alloctest

import (
	"runtime"
	"testing"
)

// BytesPerRun returns the average number of heap bytes allocated by one
// call of f, measured the way testing.AllocsPerRun measures allocations:
// on one processor, after a warm-up call.
func BytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// OneBuffer checks that encode builds its message in a single allocation
// whose spare capacity is exactly room bytes, for a small and a large
// payload.
func OneBuffer(t *testing.T, name string, room int, encode func(payload []byte) []byte) {
	t.Helper()
	for _, size := range []int{200, 64 << 10} {
		payload := make([]byte, size)
		var out []byte
		if allocs := testing.AllocsPerRun(20, func() { out = encode(payload) }); allocs != 1 {
			t.Errorf("%s, %d B payload: %v allocations, want 1", name, size, allocs)
		}
		if len(out) < size {
			t.Errorf("%s, %d B payload: only %d bytes encoded", name, size, len(out))
		}
		if spare := cap(out) - len(out); spare != room {
			t.Errorf("%s, %d B payload: %d bytes of spare capacity, want %d", name, size, spare, room)
		}
	}
}

// SizeBlind checks that decode allocates the same number of bytes (±64)
// whether the message carries a 256 B or a 64 KB payload — that is, that
// it aliases the payload instead of copying it.
func SizeBlind(t *testing.T, name string, encode func(payload []byte) []byte, decode func(msg []byte)) {
	t.Helper()
	var got [2]float64
	for i, size := range []int{256, 64 << 10} {
		msg := encode(make([]byte, size))
		got[i] = BytesPerRun(20, func() { decode(msg) })
	}
	if d := got[1] - got[0]; d > 64 || d < -64 {
		t.Errorf("%s allocates %.0f B for a 256 B payload and %.0f B for a 64 KB one: it copies", name, got[0], got[1])
	}
}

// Inside reports whether s is a window onto b's memory (or empty): what a
// decoder that aliases its input must return, and never more than it.
func Inside(b, s []byte) bool {
	if len(s) == 0 {
		return true
	}
	for i := range b {
		if &b[i] == &s[0] {
			return i+len(s) <= len(b)
		}
	}
	return false
}
