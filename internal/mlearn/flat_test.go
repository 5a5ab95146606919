package mlearn

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// trainFlatFixture trains a forest on a random tied set, with the frozen
// legacy forest of the same data as its oracle.
func trainFlatFixture(t *testing.T, inDim int) (Matrix, Matrix, *Forest, *legacyForest) {
	t.Helper()
	rng := xrand.New(99)
	X, Y := randomSet(rng, 35, inDim, 6)
	cfg := ForestConfig{Trees: 12, Seed: 5}
	oracle, err := legacyTrainForest(X, Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return matrixFrom(X), matrixFrom(Y), trainRows(t, X, Y, cfg), oracle
}

// TestPredictRowsIntoMatchesPointer pins the batch walk to the legacy
// pointer walk per row, bit for bit, including a row selection, before and
// after a single-feature forest builds its interval table.
func TestPredictRowsIntoMatchesPointer(t *testing.T) {
	for _, inDim := range []int{1, 4} {
		xm, ym, f, oracle := trainFlatFixture(t, inDim)
		for _, path := range []string{"cold", "warm"} {
			if path == "warm" {
				f.Warm()
			}
			for _, sel := range [][]int{nil, {3, 0, 7, 7, 19}} {
				n := xm.Rows
				if sel != nil {
					n = len(sel)
				}
				got := make([]float64, n*ym.Cols)
				if err := f.PredictRowsInto(got, xm, sel); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					r := rowAt(sel, i)
					for d, want := range oracle.predictPointer(xm.Row(r)) {
						if got[i*ym.Cols+d] != want {
							t.Fatalf("inDim=%d sel=%v: %s PredictRowsInto row %d dim %d = %v, want %v",
								inDim, sel, path, r, d, got[i*ym.Cols+d], want)
						}
					}
				}
			}
		}
	}
}

// TestPredictRowsIntoAllocFree gates the zero-allocation contract of the
// batch walk (the cross-validation fold-scoring path), with and without a
// row selection.
func TestPredictRowsIntoAllocFree(t *testing.T) {
	xm, ym, f, _ := trainFlatFixture(t, 1)
	dst := make([]float64, xm.Rows*ym.Cols)
	sel := []int{4, 1, 1, 30}
	if avg := testing.AllocsPerRun(50, func() {
		if err := f.PredictRowsInto(dst, xm, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.PredictRowsInto(dst[:len(sel)*ym.Cols], xm, sel); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("PredictRowsInto allocates %v per run, want 0", avg)
	}
}

// TestPredictRowsIntoErrors covers the typed-error contract.
func TestPredictRowsIntoErrors(t *testing.T) {
	xm, ym, f, _ := trainFlatFixture(t, 2)
	var empty Forest
	if err := empty.PredictRowsInto(nil, xm, nil); err != ErrEmptyForest {
		t.Fatalf("empty forest: got %v, want ErrEmptyForest", err)
	}
	bad := Matrix{Data: xm.Data, Rows: xm.Rows, Cols: xm.Cols + 1}
	dst := make([]float64, xm.Rows*ym.Cols)
	if err := f.PredictRowsInto(dst, bad, nil); !isDimErr(err) {
		t.Fatalf("bad input dims: got %v, want ErrDimMismatch", err)
	}
	if err := f.PredictRowsInto(dst[:1], xm, nil); !isDimErr(err) {
		t.Fatalf("bad output len: got %v, want ErrDimMismatch", err)
	}
	if err := f.PredictRowsInto(dst[:ym.Cols], xm, []int{xm.Rows}); !isDimErr(err) {
		t.Fatalf("out-of-range selection: got %v, want ErrDimMismatch", err)
	}
	if err := f.PredictRowsInto(dst[:ym.Cols], xm, []int{-1}); !isDimErr(err) {
		t.Fatalf("negative selection: got %v, want ErrDimMismatch", err)
	}
}

func isDimErr(err error) bool { return errors.Is(err, ErrDimMismatch) }

// mape is the row-pointer mean absolute percentage error the flat metric
// replaced, kept as its reference: zero actual values are skipped.
func mape(pred, actual [][]float64) float64 {
	var total float64
	n := 0
	for i := range pred {
		for d := range pred[i] {
			if actual[i][d] == 0 {
				continue
			}
			total += math.Abs(pred[i][d]-actual[i][d]) / math.Abs(actual[i][d])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * total / float64(n)
}

// TestMAPEFlatMatchesMAPE pins the flat metric — including fold-chained
// accumulation — to the row-pointer MAPE over the same concatenation.
func TestMAPEFlatMatchesMAPE(t *testing.T) {
	rng := xrand.New(3)
	actual := NewMatrix(9, 4)
	for i := range actual.Data {
		actual.Data[i] = -1 + 3*rng.Float64()
	}
	actual.Data[5] = 0 // exercise the skip-zero rule
	folds := [][]int{{2, 0, 5}, {1, 8}, {3, 4, 6, 7}}
	pred := map[int][]float64{}
	var catPred, catAct [][]float64
	var total float64
	count := 0
	for _, rows := range folds {
		block := make([]float64, len(rows)*actual.Cols)
		for i := range block {
			block[i] = -1 + 3*rng.Float64()
		}
		pb := block
		for ri, r := range rows {
			pred[r] = pb[ri*actual.Cols : (ri+1)*actual.Cols]
			catPred = append(catPred, pred[r])
			catAct = append(catAct, actual.Row(r))
		}
		MAPEFlatAccum(block, actual, rows, &total, &count)
	}
	want := mape(catPred, catAct)
	got := 100 * total / float64(count)
	if got != want {
		t.Fatalf("chained MAPEFlatAccum = %v, MAPE = %v", got, want)
	}
	one := folds[2]
	block := make([]float64, len(one)*actual.Cols)
	for ri, r := range one {
		copy(block[ri*actual.Cols:(ri+1)*actual.Cols], pred[r])
	}
	var cp, ca [][]float64
	for _, r := range one {
		cp = append(cp, pred[r])
		ca = append(ca, actual.Row(r))
	}
	if got, want := MAPEFlat(block, actual, one), mape(cp, ca); got != want {
		t.Fatalf("MAPEFlat = %v, MAPE = %v", got, want)
	}
}

// TestGroupKFoldPinnedAssignment pins the exact fold assignment for a
// fixed group labeling: the split is hoisted out of the per-candidate loop
// and shared across the whole pair search, so a silent reshuffle here
// would silently re-rank every candidate. Any deliberate change must
// update this table consciously.
func TestGroupKFoldPinnedAssignment(t *testing.T) {
	groups := []string{"a", "a", "b", "c", "b", "d", "e", "c"}
	folds, err := GroupKFold(groups, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct groups in first-appearance order: a=0, b=1, c=2, d=3, e=4;
	// group g lands in fold g%3.
	want := []Fold{
		{Test: []int{0, 1, 5}, Train: []int{2, 3, 4, 6, 7}}, // a, d
		{Test: []int{2, 4, 6}, Train: []int{0, 1, 3, 5, 7}}, // b, e
		{Test: []int{3, 7}, Train: []int{0, 1, 2, 4, 5, 6}}, // c
	}
	if !reflect.DeepEqual(folds, want) {
		t.Fatalf("GroupKFold assignment changed:\n got %+v\nwant %+v", folds, want)
	}
	// Fewer distinct groups than k: k clamps to the group count.
	folds, err = GroupKFold([]string{"x", "y", "x"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want = []Fold{
		{Test: []int{0, 2}, Train: []int{1}},
		{Test: []int{1}, Train: []int{0, 2}},
	}
	if !reflect.DeepEqual(folds, want) {
		t.Fatalf("clamped GroupKFold assignment changed:\n got %+v\nwant %+v", folds, want)
	}
}

// TestRecycleKeepsServingForestsUsable double-checks Recycle's scope: a
// recycled forest reports empty, while an independently trained forest
// sharing the warm pools still predicts exactly as before.
func TestRecycleKeepsServingForestsUsable(t *testing.T) {
	xm, ym, f, _ := trainFlatFixture(t, 2)
	keep, err := trainMatrix(xm, ym, nil, ForestConfig{Trees: 9, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	wantVec := predict(t, keep, xm.Row(4))
	f.Recycle()
	if err := f.PredictRowsInto(make([]float64, ym.Cols), xm, []int{0}); err != ErrEmptyForest {
		t.Fatalf("recycled forest: got %v, want ErrEmptyForest", err)
	}
	// Churn the pools, then re-check the retained forest.
	for i := 0; i < 4; i++ {
		tmp, err := trainMatrix(xm, ym, nil, ForestConfig{Trees: 9, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tmp.Recycle()
	}
	got := predict(t, keep, xm.Row(4))
	for d := range got {
		if got[d] != wantVec[d] || math.IsNaN(got[d]) {
			t.Fatalf("retained forest drifted after pool churn: %v vs %v", got, wantVec)
		}
	}
}
