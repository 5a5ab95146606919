package mlearn

import (
	"math"
	"testing"
)

func TestMAEAndMAPE(t *testing.T) {
	pred := []float64{1, 2, 3, 4}
	actual := Matrix{Data: []float64{1.1, 1.8, 3, 5}, Rows: 2, Cols: 2}
	wantMAPE := 100 * (0.1/1.1 + 0.2/1.8 + 0.0/3.0 + 1.0/5.0) / 4
	if got := MAPEFlat(pred, actual, nil); math.Abs(got-wantMAPE) > 1e-9 {
		t.Errorf("MAPE = %v, want %v", got, wantMAPE)
	}
}

func TestMetricsEdgeCases(t *testing.T) {
	if MAPEFlat(nil, Matrix{}, nil) != 0 {
		t.Error("empty MAPE should be 0")
	}
	// Zero actuals are skipped by MAPE.
	pred := []float64{5, 2}
	actual := Matrix{Data: []float64{0, 2}, Rows: 1, Cols: 2}
	if got := MAPEFlat(pred, actual, nil); got != 0 {
		t.Errorf("MAPE with zero actual = %v, want 0", got)
	}
}
