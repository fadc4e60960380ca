//go:build race

package kvdb

// raceEnabled: under the race detector sync.Pool drops entries at random,
// so encoding/json's allocation count is not a fixed number.
const raceEnabled = true
