package mlearn

import "slices"

// Matrix is a dense row-major float64 matrix: row i occupies
// Data[i*Cols : (i+1)*Cols]. It is the training data plane's native
// layout — one contiguous allocation instead of a slice of row pointers —
// so tree induction, batch prediction and the accuracy metrics read
// strided views without chasing per-row headers, and callers can pool or
// subslice the backing store freely.
//
// The zero value is an empty matrix. A Matrix is a view: copying the
// struct aliases the same backing data.
type Matrix struct {
	Data []float64
	Rows int
	Cols int
}

// NewMatrix allocates a zeroed rows x cols matrix in one block.
func NewMatrix(rows, cols int) Matrix {
	return Matrix{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// Row returns the i-th row as a slice view into the backing store.
func (m Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// At returns the element at row i, column j.
func (m Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// ok reports whether the dimensions describe the backing store.
func (m Matrix) ok() bool {
	return m.Rows >= 0 && m.Cols >= 0 && len(m.Data) >= m.Rows*m.Cols
}

// rowAt resolves a row selection: sel == nil selects the identity (row i
// is row i), otherwise row i is sel[i]. Shared by training and batch
// prediction so "score these rows of that matrix" never materializes an
// index slice for the all-rows case.
func rowAt(sel []int, i int) int {
	if sel == nil {
		return i
	}
	return sel[i]
}

// sortPair is one (feature value, sample index) element of the presort.
type sortPair struct {
	v float64
	i int32
}

// sortPairs orders pairs by value, ties by index (fully deterministic).
func sortPairs(pairs []sortPair) {
	slices.SortFunc(pairs, func(a, b sortPair) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return int(a.i - b.i)
		}
	})
}

// ColumnOrders argsorts every column of X over the selected rows (nil =
// every row): out[f] lists positions 0..n-1 ordered ascending by
// X.At(rowAt(rows, k), f), ties by position — exactly the presort
// TrainForest consumes. Orders share one backing allocation.
func ColumnOrders(X Matrix, rows []int) [][]int {
	n := X.Rows
	if rows != nil {
		n = len(rows)
	}
	out := make([][]int, X.Cols)
	backing := make([]int, n*X.Cols)
	pairs := make([]sortPair, n)
	for f := 0; f < X.Cols; f++ {
		for i := range pairs {
			pairs[i] = sortPair{v: X.At(rowAt(rows, i), f), i: int32(i)}
		}
		sortPairs(pairs)
		ord := backing[f*n : (f+1)*n]
		for k, p := range pairs {
			ord[k] = int(p.i)
		}
		out[f] = ord
	}
	return out
}

// SubsetOrders derives the column orders of a row subset from whole-matrix
// orders in O(rows) per column instead of re-sorting: full must come from
// ColumnOrders(X, nil), and rows must be strictly ascending so that
// filtering preserves the (value, position) tie order. dst[f] (len
// len(rows)) receives positions into rows; posBuf is scratch with len >=
// X.Rows. The result is element-identical to ColumnOrders(X, rows) — the
// sharing cross-validation relies on to amortize one argsort per candidate
// across all folds.
func SubsetOrders(dst [][]int, full [][]int, rows []int, posBuf []int32) {
	for i := range posBuf {
		posBuf[i] = -1
	}
	for j, r := range rows {
		posBuf[r] = int32(j)
	}
	for f := range full {
		d := dst[f]
		w := 0
		for _, r := range full[f] {
			if j := posBuf[r]; j >= 0 {
				d[w] = int(j)
				w++
			}
		}
	}
}
