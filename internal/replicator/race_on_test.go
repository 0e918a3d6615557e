//go:build race

package replicator_test

// raceEnabled reports that the race detector is on: it allocates on its
// own account, so allocation budgets are not checked under it.
const raceEnabled = true
