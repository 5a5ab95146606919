//go:build unix && !race

package wal

const raceEnabled = false
