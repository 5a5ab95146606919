//go:build !race

package numaplace

const raceEnabled = false
