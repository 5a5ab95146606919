package mlearn

import (
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
	// eval: negative training error of a depth-4 tree on the subset.
	eval := func(subset []int) float64 {
		sub := make([][]float64, len(X))
		for i, row := range X {
			for _, f := range subset {
				sub[i] = append(sub[i], row[f])
			}
		}
		Y := make([][]float64, len(y))
		for i := range y {
			Y[i] = []float64{y[i]}
		}
		tree := plainForest(sub, Y, TreeConfig{MaxDepth: 4})
		var sse float64
		for i := range sub {
			d := predict(t, tree, sub[i])[0] - y[i]
			sse += d * d
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
