//go:build race

package tensor

// raceEnabled reports that the race detector is active; allocation-count
// assertions are skipped because instrumentation allocates.
const raceEnabled = true
