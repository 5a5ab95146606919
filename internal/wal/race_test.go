//go:build unix && race

package wal

// raceEnabled reports that the race detector is on; the allocation ceilings
// skip under it.
const raceEnabled = true
