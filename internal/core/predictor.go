package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

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

// Warm builds the interval table the perf variant's PredictInto answers
// from (otherwise built by the first prediction), so serving entry points
// pay the one-time build when they register a predictor, not inside the
// first admission. Safe to call repeatedly and on untrained predictors.
func (p *Predictor) Warm() {
	if p != nil {
		p.forest.Warm()
	}
}

// InDim returns the model's input dimensionality: 1 for the perf variant,
// the number of selected counters for HPE, their sum for combined. Sizes
// the feature scratch of PredictDatasetInto.
func (p *Predictor) InDim() int { return featDim(p) }

// PredictDatasetInto scores the selected dataset rows (nil = all) into dst
// (flat, row-major, len nrows*NumPlacements) through the forest's
// tree-outer batch walk, using xbuf (len >= nrows*InDim()) as feature
// scratch. The call is allocation-free, and row r is bit-identical to a
// single prediction from the same observations. A dataset of other
// placements, or one without the counters an HPE variant reads, is
// refused with nperr.ErrMachineMismatch.
func (p *Predictor) PredictDatasetInto(dst, xbuf []float64, ds *Dataset, rows []int) error {
	d := featDim(p)
	n := len(ds.Workloads)
	if rows != nil {
		n = len(rows)
	}
	if err := p.reads(ds, rows, n); err != nil {
		return err
	}
	if len(xbuf) < n*d {
		return fmt.Errorf("core: feature scratch has %d entries, need %d: %w", len(xbuf), n*d, mlearn.ErrDimMismatch)
	}
	X := mlearn.Matrix{Data: xbuf[:n*d], Rows: n, Cols: d}
	fillFeatures(X, ds, p, rows)
	return p.forest.PredictRowsInto(dst, X, nil)
}

// reads checks that ds holds what p's features read for the n selected
// rows: the placements p was trained on and, for the HPE variants, every
// counter p selected, observed in its base placement.
func (p *Predictor) reads(ds *Dataset, rows []int, n int) error {
	if len(ds.Placements) != p.NumPlacements {
		return fmt.Errorf("core: dataset has %d placements, predictor %d: %w", len(ds.Placements), p.NumPlacements, nperr.ErrMachineMismatch)
	}
	if p.Variant == PerfFeatures {
		return nil
	}
	if len(ds.HPE) != len(ds.Workloads) {
		return fmt.Errorf("core: the %s variant reads counters, dataset has none: %w", p.Variant, nperr.ErrMachineMismatch)
	}
	last := -1
	for _, f := range p.HPEFeats {
		last = max(last, f)
	}
	for i := 0; i < n; i++ {
		if have := len(ds.HPE[rowOf(rows, i)][p.Base]); last >= have {
			return fmt.Errorf("core: counter index %d out of range (%d counters): %w", last, have, nperr.ErrMachineMismatch)
		}
	}
	return nil
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

// LoadPredictor reads a predictor previously written by Save. It accepts
// only what serving can answer: a known variant, observation placements
// among the forest's outputs, counter indices that are indices, and a
// forest that takes exactly the variant's features — a model file must not
// be able to crash the scheduler it is registered with.
func LoadPredictor(r io.Reader) (*Predictor, error) {
	var pj predictorJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: decoding predictor: %w", err)
	}
	f, err := mlearn.LoadForest(pj.Forest)
	if err != nil {
		return nil, err
	}
	p := &Predictor{
		Variant: pj.Variant, Base: pj.Base, Probe: pj.Probe,
		HPEFeats: pj.HPEFeats, NumPlacements: pj.NumPlacements,
		forest: f,
	}
	switch {
	case p.Variant < PerfFeatures || p.Variant > Combined:
		return nil, fmt.Errorf("core: unknown predictor %s", p.Variant)
	case p.NumPlacements != f.OutDim():
		return nil, fmt.Errorf("core: predictor claims %d placements but forest outputs %d", p.NumPlacements, f.OutDim())
	case p.Base < 0 || p.Base >= p.NumPlacements || p.Probe < 0 || p.Probe >= p.NumPlacements:
		return nil, fmt.Errorf("core: observation placements (%d, %d) out of range (%d placements)", p.Base, p.Probe, p.NumPlacements)
	case slices.ContainsFunc(p.HPEFeats, func(c int) bool { return c < 0 }):
		return nil, fmt.Errorf("core: negative counter index in %v", p.HPEFeats)
	case featDim(p) != f.InDim():
		return nil, fmt.Errorf("core: %s predictor takes %d features but forest expects %d", p.Variant, featDim(p), f.InDim())
	}
	// Loaded predictors exist to serve; build the interval table now rather
	// than on the first prediction.
	p.Warm()
	return p, nil
}
