package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mlearn"
	"repro/internal/xparallel"
)

// Variant selects the model's input features (§5-§6 compare these).
type Variant int

const (
	// PerfFeatures: actual performance observed in two automatically
	// chosen important placements — the paper's preferred design.
	PerfFeatures Variant = iota
	// HPEFeatures: hardware performance events observed in a single
	// (baseline) placement, selected by Sequential Forward Selection —
	// the inferior baseline the paper compares against.
	HPEFeatures
	// Combined: both. The paper reports it "did not improve accuracy over
	// the first one".
	Combined
)

func (v Variant) String() string {
	switch v {
	case PerfFeatures:
		return "perf-measurements"
	case HPEFeatures:
		return "hpe-single-placement"
	case Combined:
		return "combined"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// TrainConfig controls predictor training.
type TrainConfig struct {
	Variant Variant

	// Forest configures the final model (default: 100 trees).
	Forest mlearn.ForestConfig

	// SelectionTrees is the (smaller) ensemble size used inside the input-
	// pair search and SFS loops (default 15).
	SelectionTrees int

	// SelectionFolds is the group k-fold count used during selection
	// (default 5).
	SelectionFolds int

	// MaxHPEFeatures caps SFS for the HPE variants (default 8).
	MaxHPEFeatures int

	// FixedPair forces the input placement pair (indices into
	// Dataset.Placements; baseline first) instead of searching. Used by
	// ablation studies.
	FixedPair *[2]int

	// Seed drives all stochastic components.
	Seed uint64
}

func (c TrainConfig) selectionTrees() int {
	if c.SelectionTrees <= 0 {
		return 15
	}
	return c.SelectionTrees
}

func (c TrainConfig) selectionFolds() int {
	if c.SelectionFolds <= 0 {
		return 5
	}
	return c.SelectionFolds
}

func (c TrainConfig) maxHPE() int {
	if c.MaxHPEFeatures <= 0 {
		return 8
	}
	return c.MaxHPEFeatures
}

// Predictor is a trained performance model for one machine and vCPU count.
type Predictor struct {
	Variant Variant
	// Base and Probe are indices into Placements: the two placements whose
	// observed performance feeds the model. Predictions are relative to
	// Base (vector entry p = perf(Base)/perf(p)).
	Base, Probe int
	// HPEFeats are the SFS-selected counter indices (HPE variants).
	HPEFeats []int

	NumPlacements int
	forest        *mlearn.Forest
}

// Train fits a predictor on the dataset according to cfg. For the
// PerfFeatures variant it searches all placement pairs for the one whose
// cross-validated accuracy is best ("the training process automatically
// finds the two of the important placements that give the highest
// accuracy", §5). The context is threaded through the placement-pair
// search, SFS and cross-validation fan-outs, so a cancelled training run
// returns ctx.Err() promptly without fitting the final model.
//
// The cross-validation folds are computed once here and shared by every
// candidate the selection loops evaluate: the split is a pure function of
// the dataset's groups and the fold count, so recomputing it per candidate
// (as the O(n²) pair search once did) only burned allocations.
func Train(ctx context.Context, ds *Dataset, cfg TrainConfig) (*Predictor, error) {
	if len(ds.Workloads) < 4 {
		return nil, fmt.Errorf("core: need at least 4 training workloads, have %d", len(ds.Workloads))
	}
	if (cfg.Variant == HPEFeatures || cfg.Variant == Combined) && len(ds.HPE) != len(ds.Workloads) {
		return nil, fmt.Errorf("core: HPE variant requires a dataset collected WithHPEs")
	}

	p := &Predictor{Variant: cfg.Variant, NumPlacements: len(ds.Placements)}

	var folds []mlearn.Fold
	ensureFolds := func() error {
		if folds != nil {
			return nil
		}
		var err error
		folds, err = mlearn.GroupKFold(ds.Groups, cfg.selectionFolds())
		return err
	}

	// Choose the input placement pair.
	switch {
	case cfg.FixedPair != nil:
		p.Base, p.Probe = cfg.FixedPair[0], cfg.FixedPair[1]
		if err := validPair(ds, p.Base, p.Probe); err != nil {
			return nil, err
		}
	case cfg.Variant == HPEFeatures:
		// Single-placement variant: the baseline is the placement whose
		// HPEs predict best; probe is unused but kept equal to base.
		if err := ensureFolds(); err != nil {
			return nil, err
		}
		base, err := bestHPEBase(ctx, ds, cfg, folds)
		if err != nil {
			return nil, err
		}
		p.Base, p.Probe = base, base
	default:
		if err := ensureFolds(); err != nil {
			return nil, err
		}
		base, probe, _, err := bestPair(ctx, ds, cfg, folds)
		if err != nil {
			return nil, err
		}
		p.Base, p.Probe = base, probe
	}

	// SFS for the HPE variants.
	if cfg.Variant == HPEFeatures || cfg.Variant == Combined {
		if err := ensureFolds(); err != nil {
			return nil, err
		}
		feats, err := selectHPEs(ctx, ds, p.Base, p.Probe, cfg, folds)
		if err != nil {
			return nil, err
		}
		p.HPEFeats = feats
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Final model on the full dataset, trained natively on the flat data
	// plane: pooled feature matrix, cached relative-target matrix.
	xb := getFloats(len(ds.Workloads) * featDim(p))
	X := mlearn.Matrix{Data: *xb, Rows: len(ds.Workloads), Cols: featDim(p)}
	fillFeatures(X, ds, p, nil)
	forestCfg := cfg.Forest
	forestCfg.Seed = xmix(cfg.Seed, 0xF1A1)
	f, err := mlearn.TrainForest(X, ds.RelMatrix(p.Base), nil, mlearn.ColumnOrders(X, nil), forestCfg)
	putFloats(xb)
	if err != nil {
		return nil, err
	}
	p.forest = f
	return p, nil
}

func validPair(ds *Dataset, base, probe int) error {
	n := len(ds.Placements)
	if base < 0 || base >= n || probe < 0 || probe >= n || base == probe {
		return fmt.Errorf("core: invalid placement pair (%d, %d) for %d placements", base, probe, n)
	}
	return nil
}

// featDim returns the input dimensionality of a candidate or trained
// predictor configuration.
func featDim(p *Predictor) int {
	d := 0
	if p.Variant == PerfFeatures || p.Variant == Combined {
		d++
	}
	if p.Variant == HPEFeatures || p.Variant == Combined {
		d += len(p.HPEFeats)
	}
	return d
}

// featureInto writes the model input for workload row w under predictor
// settings (base, probe, variant, hpeFeats) into dst (len featDim).
func featureInto(dst []float64, ds *Dataset, p *Predictor, w int) {
	k := 0
	if p.Variant == PerfFeatures || p.Variant == Combined {
		dst[k] = ds.Perf[w][p.Probe] / ds.Perf[w][p.Base]
		k++
	}
	if p.Variant == HPEFeatures || p.Variant == Combined {
		for _, f := range p.HPEFeats {
			dst[k] = ds.HPE[w][p.Base][f]
			k++
		}
	}
}

// rowOf resolves a row selection (nil = every dataset row) without
// materializing an identity index slice for the all-rows case.
func rowOf(rows []int, i int) int {
	if rows == nil {
		return i
	}
	return rows[i]
}

// fillFeatures writes the model inputs for the selected dataset rows
// (nil = all) into the flat matrix X (X.Rows rows of featDim columns).
func fillFeatures(X mlearn.Matrix, ds *Dataset, p *Predictor, rows []int) {
	for i := 0; i < X.Rows; i++ {
		featureInto(X.Row(i), ds, p, rowOf(rows, i))
	}
}

// floatPool recycles the flat scratch blocks the training plane burns
// through: per-candidate feature matrices and per-fold prediction blocks.
// Buffers are fully overwritten before every read, so pooled garbage never
// reaches a model.
var floatPool = sync.Pool{New: func() any { return new([]float64) }}

func getFloats(n int) *[]float64 {
	b := floatPool.Get().(*[]float64)
	if cap(*b) < n {
		*b = make([]float64, n)
	}
	*b = (*b)[:n]
	return b
}

func putFloats(b *[]float64) { floatPool.Put(b) }

// ordScratch is the pooled per-fold presort-derivation state: the fold's
// per-feature order headers and backing, and the row-position map
// SubsetOrders uses to filter the candidate's full orders.
type ordScratch struct {
	ord  [][]int
	back []int
	pos  []int32
}

var ordPool = sync.Pool{New: func() any { return new(ordScratch) }}

// getOrds sizes a pooled scratch for d features over nTr fold rows of an
// n-row dataset; SubsetOrders overwrites every cell it exposes.
func getOrds(d, nTr, n int) *ordScratch {
	o := ordPool.Get().(*ordScratch)
	if cap(o.back) < nTr*d {
		o.back = make([]int, nTr*d)
	}
	o.back = o.back[:nTr*d]
	if cap(o.ord) < d {
		o.ord = make([][]int, d)
	}
	o.ord = o.ord[:d]
	for f := 0; f < d; f++ {
		o.ord[f] = o.back[f*nTr : (f+1)*nTr]
	}
	if cap(o.pos) < n {
		o.pos = make([]int32, n)
	}
	o.pos = o.pos[:n]
	return o
}

// cvMAPE evaluates a candidate predictor configuration by group k-fold
// cross-validation over the caller's precomputed folds, returning the mean
// absolute percentage error. The candidate's feature matrix is built once
// into pooled scratch and shared read-only by every fold, targets come
// from the dataset's cached per-base RelMatrix, and each fold trains
// directly on its row subset of those shared flat matrices — nothing is
// copied per fold, and the ephemeral fold forests are recycled after
// scoring. Predictions fold into the error in fold order, so the result is
// bit-identical at any worker count.
//
// cvMAPE is unbounded: its folds train concurrently, and it returns the
// exact error.
func cvMAPE(ctx context.Context, ds *Dataset, p *Predictor, cfg TrainConfig, seed uint64, folds []mlearn.Fold) (float64, error) {
	var s *search
	return s.cvMAPE(ctx, ds, p, cfg, seed, folds, 0)
}

// cvMAPE on a search is bounded: it scores candidate ci of the arg-min
// search s, training its folds in order. After each fold but the last it
// stops and returns +Inf once the error so far shows the candidate cannot
// win (see stops); otherwise it returns the exact error, as the unbounded
// call does, and publishes it to s. A nil s is the unbounded call.
func (s *search) cvMAPE(ctx context.Context, ds *Dataset, p *Predictor, cfg TrainConfig, seed uint64, folds []mlearn.Fold, ci int) (float64, error) {
	n := len(ds.Workloads)
	d := featDim(p)
	xb := getFloats(n * d)
	defer putFloats(xb)
	X := mlearn.Matrix{Data: *xb, Rows: n, Cols: d}
	fillFeatures(X, ds, p, nil)
	Y := ds.RelMatrix(p.Base)
	// One argsort per feature of the candidate's full column, shared by
	// every fold: a fold's presorted orders are the full orders filtered
	// down to its (ascending) training rows, derived in O(n) each.
	fullOrd := mlearn.ColumnOrders(X, nil)
	predict := func(fi int) (*[]float64, error) {
		fold := folds[fi]
		ords := getOrds(d, len(fold.Train), n)
		mlearn.SubsetOrders(ords.ord, fullOrd, fold.Train, ords.pos)
		f, err := mlearn.TrainForest(X, Y, fold.Train, ords.ord, mlearn.ForestConfig{
			Trees: cfg.selectionTrees(),
			Seed:  xmix(seed, uint64(fi)),
		})
		ordPool.Put(ords)
		if err != nil {
			return nil, err
		}
		// Score the whole held-out fold in one batch straight off the
		// shared feature matrix; the fold forest hands its arrays back to
		// the training pool once scored.
		out := getFloats(len(fold.Test) * Y.Cols)
		err = f.PredictRowsInto(*out, X, fold.Test)
		f.Recycle()
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	var total float64
	count := 0
	if s == nil {
		preds, err := xparallel.MapErr(ctx, len(folds), predict)
		if err != nil {
			return 0, err
		}
		for fi, pr := range preds {
			mlearn.MAPEFlatAccum(*pr, Y, folds[fi].Test, &total, &count)
			putFloats(pr)
		}
	} else {
		// The error's denominator is known before any forest: the nonzero
		// actual entries of every test fold (MAPEFlatAccum skips zeros).
		all := 0
		for _, fold := range folds {
			for _, r := range fold.Test {
				for _, a := range Y.Row(r) {
					if a != 0 {
						all++
					}
				}
			}
		}
		for fi := range folds {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			pr, err := predict(fi)
			if err != nil {
				return 0, err
			}
			s.forests.Add(1)
			mlearn.MAPEFlatAccum(*pr, Y, folds[fi].Test, &total, &count)
			putFloats(pr)
			if fi < len(folds)-1 && s.stopped(100*total/float64(all), ci) {
				return math.Inf(1), nil
			}
		}
	}
	if count == 0 {
		return 0, nil
	}
	e := 100 * total / float64(count)
	if s != nil {
		s.publish(e, ci)
	}
	return e, nil
}

// search is the state candidates of one arg-min search share: the lowest
// (error, index) any of them has published, and how many fold forests
// they trained.
type search struct {
	mu      sync.Mutex
	err     float64 // +Inf until a candidate publishes
	idx     int     // the publisher of err; past every candidate until then
	forests atomic.Int64
}

// publish offers candidate i's exact error; NaN never becomes the best.
func (s *search) publish(e float64, i int) {
	s.mu.Lock()
	if e < s.err || (e == s.err && i < s.idx) {
		s.err, s.idx = e, i
	}
	s.mu.Unlock()
}

// stopped reports whether candidate i, whose error is at least lb, can no
// longer win against the best published so far.
func (s *search) stopped(lb float64, i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stops(lb, s.err, s.idx, i)
}

// stops is the bound's rule. Every term of a candidate's error sum is >= 0
// (or NaN), and adding a term >= 0 never lowers a floating-point sum, so
// its final error is >= lb = 100·partial/count: it cannot beat bestErr
// when lb > bestErr, nor tie it when lb >= bestErr and the best has the
// lower index, since a tie goes to the lower index. A NaN lb stops
// nothing.
func stops(lb, bestErr float64, bestIdx, i int) bool {
	return lb > bestErr || (lb >= bestErr && bestIdx < i)
}

// argMinCV scores candidates 0..n-1 by bounded cross-validation,
// concurrently under one shared search, and returns the index of the
// lowest error, the lowest index on a tie (-1 when none is below +Inf),
// and how many fold forests it trained. The winner is picked by a serial
// scan in index order, so it is the one an exhaustive serial search picks:
// a stopped candidate scores +Inf, and only a candidate that cannot win is
// stopped. Which losers stop early depends on timing; the winner does not.
func argMinCV(ctx context.Context, ds *Dataset, cfg TrainConfig, folds []mlearn.Fold, n int, cand func(i int) (*Predictor, uint64)) (int, int64, error) {
	s := &search{err: math.Inf(1), idx: n}
	errs, err := xparallel.MapErr(ctx, n, func(i int) (float64, error) {
		p, seed := cand(i)
		return s.cvMAPE(ctx, ds, p, cfg, seed, folds, i)
	})
	if err != nil {
		return 0, 0, err
	}
	best, bestErr := -1, math.Inf(1)
	for i, e := range errs {
		if e < bestErr {
			bestErr, best = e, i
		}
	}
	return best, s.forests.Load(), nil
}

// bestPair searches all unordered placement pairs for the one minimizing
// cross-validated error; the lower-indexed placement acts as the baseline.
// It also returns how many fold forests the search trained.
func bestPair(ctx context.Context, ds *Dataset, cfg TrainConfig, folds []mlearn.Fold) (int, int, int64, error) {
	n := len(ds.Placements)
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	best, forests, err := argMinCV(ctx, ds, cfg, folds, len(pairs), func(pi int) (*Predictor, uint64) {
		i, j := pairs[pi][0], pairs[pi][1]
		return &Predictor{Variant: PerfFeatures, Base: i, Probe: j}, xmix(cfg.Seed, uint64(i*n+j))
	})
	if err != nil {
		return 0, 0, 0, err
	}
	if best < 0 {
		return 0, 0, 0, fmt.Errorf("core: pair search failed")
	}
	return pairs[best][0], pairs[best][1], forests, nil
}

// bestHPEBase picks the observation placement for the single-placement
// HPE variant using a coarse screen with all counters as features.
func bestHPEBase(ctx context.Context, ds *Dataset, cfg TrainConfig, folds []mlearn.Fold) (int, error) {
	nHPE := len(ds.HPE[0][0])
	all := make([]int, nHPE)
	for i := range all {
		all[i] = i
	}
	best, _, err := argMinCV(ctx, ds, cfg, folds, len(ds.Placements), func(b int) (*Predictor, uint64) {
		return &Predictor{Variant: HPEFeatures, Base: b, Probe: b, HPEFeats: all}, xmix(cfg.Seed, 0xBA5E+uint64(b))
	})
	return best, err
}

// selectHPEs runs Sequential Forward Selection over the counters.
func selectHPEs(ctx context.Context, ds *Dataset, base, probe int, cfg TrainConfig, folds []mlearn.Fold) ([]int, error) {
	nHPE := len(ds.HPE[0][0])
	var evalErr error
	eval := func(subset []int) float64 {
		cand := &Predictor{Variant: cfg.Variant, Base: base, Probe: probe, HPEFeats: subset}
		e, err := cvMAPE(ctx, ds, cand, cfg, xmix(cfg.Seed, 0x5F5+uint64(len(subset))), folds)
		if err != nil {
			evalErr = err
			return math.Inf(-1)
		}
		return -e
	}
	feats := mlearn.SFS(nHPE, cfg.maxHPE(), eval)
	if evalErr != nil {
		return nil, evalErr
	}
	if len(feats) == 0 {
		return nil, fmt.Errorf("core: SFS selected no counters")
	}
	return feats, nil
}

func xmix(a, b uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 + b
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}
