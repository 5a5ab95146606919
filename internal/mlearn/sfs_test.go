package mlearn

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

func TestSFSFindsInformativeFeatures(t *testing.T) {
	// y depends on features 1 and 3 only; 0 and 2 are noise.
	rng := xrand.New(21)
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		row := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		X = append(X, row)
		y = append(y, 3*row[1]-2*row[3])
	}
	// eval: negative leave-one-out error of a nearest-neighbour regressor
	// on the subset. It grows no model: SFS needs only a score.
	eval := func(subset []int) float64 {
		var sse float64
		for i, a := range X {
			best, nearest := math.Inf(1), 0
			for j, b := range X {
				var d float64
				for _, f := range subset {
					d += (a[f] - b[f]) * (a[f] - b[f])
				}
				if j != i && d < best {
					best, nearest = d, j
				}
			}
			sse += (y[nearest] - y[i]) * (y[nearest] - y[i])
		}
		return -sse
	}
	got := SFS(4, 2, eval)
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("SFS selected %v, want [1 3]", got)
	}
}

func TestSFSStopsWhenNoImprovement(t *testing.T) {
	// Score only rewards feature 0; adding anything else changes nothing,
	// so selection must stop at exactly one feature.
	eval := func(subset []int) float64 {
		for _, f := range subset {
			if f == 0 {
				return 1
			}
		}
		return 0
	}
	got := SFS(5, 5, eval)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("SFS selected %v, want [0]", got)
	}
}

func TestSFSMaxFeaturesCap(t *testing.T) {
	// Strictly increasing score with subset size: selection runs to cap.
	eval := func(subset []int) float64 { return float64(len(subset)*10 - subset[len(subset)-1]) }
	got := SFS(6, 3, eval)
	if len(got) != 3 {
		t.Errorf("SFS selected %d features, want 3", len(got))
	}
	// maxFeatures <= 0 means all features allowed.
	got = SFS(4, 0, func(s []int) float64 { return float64(len(s)) })
	if len(got) != 4 {
		t.Errorf("SFS with no cap selected %d, want 4", len(got))
	}
}

func TestInsertSorted(t *testing.T) {
	if got := insertSorted([]int{1, 3, 5}, 4); !reflect.DeepEqual(got, []int{1, 3, 4, 5}) {
		t.Errorf("insertSorted = %v", got)
	}
	if got := insertSorted(nil, 2); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("insertSorted into nil = %v", got)
	}
	if got := insertSorted([]int{1}, 0); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("insertSorted front = %v", got)
	}
}
