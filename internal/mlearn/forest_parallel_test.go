package mlearn

import (
	"runtime"
	"testing"
)

// TestTrainForestIdenticalAcrossWorkerCounts: with per-tree seeds derived
// from the root seed, the ensemble is bit-identical however many goroutines
// grow it.
func TestTrainForestIdenticalAcrossWorkerCounts(t *testing.T) {
	host := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(host)
	rngX := [][]float64{}
	rngY := [][]float64{}
	for i := 0; i < 60; i++ {
		x := float64(i) / 60
		rngX = append(rngX, []float64{x, x * x, 1 - x})
		rngY = append(rngY, []float64{x * 2, -x})
	}
	probes := [][]float64{{0.1, 0.01, 0.9}, {0.5, 0.25, 0.5}, {0.93, 0.86, 0.07}}

	serial := trainRows(t, rngX, rngY, ForestConfig{Trees: 20, Seed: 5})
	var want [][]float64
	for _, p := range probes {
		want = append(want, predict(t, serial, p))
	}
	for _, w := range []int{1, 2, host} {
		runtime.GOMAXPROCS(w)
		f := trainRows(t, rngX, rngY, ForestConfig{Trees: 20, Seed: 5})
		for pi, p := range probes {
			got := predict(t, f, p)
			for d := range got {
				if got[d] != want[pi][d] {
					t.Fatalf("workers=%d: Predict(%v)[%d] = %v, want %v", w, p, d, got[d], want[pi][d])
				}
			}
		}
	}
}
