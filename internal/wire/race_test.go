//go:build race

package wire

// raceEnabled: the race detector instruments allocations, so counts are
// not fixed numbers under it.
const raceEnabled = true
