//go:build !race

package replicator_test

const raceEnabled = false
