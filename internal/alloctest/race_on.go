//go:build race

package alloctest

// Race reports that the race detector is on: it allocates on its own
// account, and sync.Pool drops records at random under it, so allocation
// pins that depend on either are not checked.
const Race = true
