//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops entries at random,
// so allocation counts are not fixed numbers.
const raceEnabled = true
