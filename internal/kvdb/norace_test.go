//go:build !race

package kvdb

const raceEnabled = false
