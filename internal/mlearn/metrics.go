package mlearn

import "math"

// MAPEFlatAccum adds the absolute-percentage-error terms of pred — a flat
// row-major prediction block, len(rows)*actual.Cols — against the selected
// rows (nil = every row) of the flat actual matrix into (*total, *count).
// Terms accumulate row-major in selection order, so chaining several
// batches (cross-validation folds) through one accumulator gives the error
// of their concatenation. Zero actual values are skipped.
func MAPEFlatAccum(pred []float64, actual Matrix, rows []int, total *float64, count *int) {
	n := actual.Rows
	if rows != nil {
		n = len(rows)
	}
	for i := 0; i < n; i++ {
		a := actual.Row(rowAt(rows, i))
		p := pred[i*actual.Cols : (i+1)*actual.Cols]
		for d := range a {
			if a[d] == 0 {
				continue
			}
			*total += math.Abs(p[d]-a[d]) / math.Abs(a[d])
			*count++
		}
	}
}

// MAPEFlat is the single-batch form of MAPEFlatAccum: the mean absolute
// percentage error (in percent) of the flat prediction block against the
// selected rows of actual — the §6 accuracy metric ("the predicted
// performance is within 4.4% of actual on average").
func MAPEFlat(pred []float64, actual Matrix, rows []int) float64 {
	var total float64
	count := 0
	MAPEFlatAccum(pred, actual, rows, &total, &count)
	if count == 0 {
		return 0
	}
	return 100 * total / float64(count)
}

// Fold is one cross-validation split: indices of training and test rows.
type Fold struct {
	Train []int
	Test  []int
}
