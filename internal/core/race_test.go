//go:build race

package core

// raceEnabled reports that the race detector is on; the allocation ceilings
// that count more than zero skip under it.
const raceEnabled = true
