//go:build race

package sched

// raceEnabled reports that the race detector is on. Under it sync.Pool drops
// a quarter of its Puts on purpose, so a path that recycles through a pool
// has no fixed allocation count and the tests that pin one skip.
const raceEnabled = true
