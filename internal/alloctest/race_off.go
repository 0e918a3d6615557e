//go:build !race

package alloctest

// Race reports that the race detector is on (see race_on.go).
const Race = false
