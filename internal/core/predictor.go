package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/mlearn"
	"repro/internal/nperr"
)

// Predict returns the predicted performance vector of a container from its
// observed throughput in the Base and Probe placements (any consistent
// metric: ops/s, IPC, transactions/s). Entry p is predicted
// perf(Base)/perf(p), the paper's vector convention; lower means placement
// p is faster than the baseline.
func (p *Predictor) Predict(perfBase, perfProbe float64) ([]float64, error) {
	out := make([]float64, p.forest.OutDim())
	if err := p.PredictInto(out, perfBase, perfProbe); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto is the allocation-free Predict for serving hot paths: it
// writes the predicted vector into dst (len NumPlacements). An untrained
// or dimension-mismatched predictor yields a typed error (mlearn.
// ErrEmptyForest / mlearn.ErrDimMismatch) instead of a panic.
func (p *Predictor) PredictInto(dst []float64, perfBase, perfProbe float64) error {
	if p.Variant != PerfFeatures {
		return fmt.Errorf("core: Predict requires the perf-measurements variant, have %s", p.Variant)
	}
	if perfBase <= 0 || perfProbe <= 0 {
		return fmt.Errorf("core: non-positive performance observation (%v, %v): %w", perfBase, perfProbe, nperr.ErrBadObservation)
	}
	x := [1]float64{perfProbe / perfBase}
	if err := p.forest.PredictInto(dst, x[:]); err != nil {
		return fmt.Errorf("core: predicting: %w", err)
	}
	return nil
}

// PredictHPE returns the performance vector from counters observed in the
// Base placement (HPE variant), optionally with the perf ratio for the
// Combined variant.
func (p *Predictor) PredictHPE(hpes []float64, perfRatio float64) ([]float64, error) {
	var x []float64
	switch p.Variant {
	case HPEFeatures:
	case Combined:
		x = append(x, perfRatio)
	default:
		return nil, fmt.Errorf("core: PredictHPE requires an HPE variant, have %s", p.Variant)
	}
	for _, f := range p.HPEFeats {
		if f >= len(hpes) {
			return nil, fmt.Errorf("core: counter index %d out of range (%d counters)", f, len(hpes))
		}
		x = append(x, hpes[f])
	}
	out := make([]float64, p.forest.OutDim())
	if err := p.forest.PredictInto(out, x); err != nil {
		return nil, fmt.Errorf("core: predicting: %w", err)
	}
	return out, nil
}

// PredictRow runs the predictor on a dataset row (testing/evaluation).
func (p *Predictor) PredictRow(ds *Dataset, w int) []float64 {
	return p.forest.Predict(features(ds, p, w))
}

// Compile eagerly builds what serving reads — the forest's flat SoA form
// and, for the single-feature perf variant, the interval table PredictInto
// answers from (both otherwise built lazily on the first prediction) — so
// serving entry points pay the one-time build when they register a
// predictor, not inside the first admission. Safe to call repeatedly and on
// untrained predictors.
func (p *Predictor) Compile() {
	if p != nil && p.forest != nil {
		p.forest.Compiled().Warm()
	}
}

// InDim returns the model's input dimensionality: 1 for the perf variant,
// the number of selected counters for HPE, their sum for combined. Sizes
// the feature scratch of PredictDatasetInto.
func (p *Predictor) InDim() int { return featDim(p) }

// PredictDatasetInto scores the selected dataset rows (nil = all) into dst
// (flat, row-major, len nrows*NumPlacements) through the compiled forest's
// tree-outer traversal, using xbuf (len >= nrows*InDim()) as feature
// scratch. The call is allocation-free after the forest's one-time
// compilation; row r is bit-identical to PredictRow(ds, rows[r]).
func (p *Predictor) PredictDatasetInto(dst, xbuf []float64, ds *Dataset, rows []int) error {
	d := featDim(p)
	n := len(ds.Workloads)
	if rows != nil {
		n = len(rows)
	}
	if len(xbuf) < n*d {
		return fmt.Errorf("core: feature scratch has %d entries, need %d: %w", len(xbuf), n*d, mlearn.ErrDimMismatch)
	}
	X := mlearn.Matrix{Data: xbuf[:n*d], Rows: n, Cols: d}
	fillFeatures(X, ds, p, rows)
	c := p.forest.Compiled()
	if c == nil {
		return mlearn.ErrEmptyForest
	}
	return c.PredictRowsInto(dst, X, nil)
}

// PredictDataset scores the given dataset rows (nil = all) in one batch,
// allocating the output vectors in a single contiguous block; row r is
// bit-identical to PredictRow(ds, rows[r]). Hot loops should pool their
// buffers and call PredictDatasetInto instead.
func (p *Predictor) PredictDataset(ds *Dataset, rows []int) ([][]float64, error) {
	n := len(ds.Workloads)
	if rows != nil {
		n = len(rows)
	}
	// NumPlacements equals the forest's output dimensionality for every
	// trained or loaded predictor, and sizing by it keeps the untrained
	// case on PredictDatasetInto's typed-error path instead of a nil
	// forest dereference.
	d := p.NumPlacements
	xbuf := make([]float64, n*featDim(p))
	backing := make([]float64, n*d)
	if err := p.PredictDatasetInto(backing, xbuf, ds, rows); err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for r := range out {
		out[r] = backing[r*d : (r+1)*d]
	}
	return out, nil
}

// BestPlacement returns the index of the fastest predicted placement
// (smallest vector entry, since entries are baseline/perf).
func BestPlacement(vector []float64) int {
	best := 0
	for i, v := range vector {
		if v < vector[best] {
			best = i
		}
	}
	return best
}

// predictorJSON is the serialized form of a Predictor.
type predictorJSON struct {
	Variant       Variant            `json:"variant"`
	Base          int                `json:"base"`
	Probe         int                `json:"probe"`
	HPEFeats      []int              `json:"hpeFeats,omitempty"`
	NumPlacements int                `json:"numPlacements"`
	Forest        *mlearn.ForestDump `json:"forest"`
}

// Save writes the predictor as JSON.
func (p *Predictor) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(predictorJSON{
		Variant: p.Variant, Base: p.Base, Probe: p.Probe,
		HPEFeats: p.HPEFeats, NumPlacements: p.NumPlacements,
		Forest: p.forest.Dump(),
	})
}

// LoadPredictor reads a predictor previously written by Save.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var pj predictorJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: decoding predictor: %w", err)
	}
	f, err := mlearn.LoadForest(pj.Forest)
	if err != nil {
		return nil, err
	}
	if pj.NumPlacements != f.OutDim() {
		return nil, fmt.Errorf("core: predictor claims %d placements but forest outputs %d", pj.NumPlacements, f.OutDim())
	}
	p := &Predictor{
		Variant: pj.Variant, Base: pj.Base, Probe: pj.Probe,
		HPEFeats: pj.HPEFeats, NumPlacements: pj.NumPlacements,
		forest: f,
	}
	// Loaded predictors exist to serve; compile now rather than on the
	// first prediction.
	p.Compile()
	return p, nil
}
