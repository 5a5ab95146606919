// Admission fast path: the caches and scratch pools that turn the serving
// scheduler's per-admission work — important-placement filtering, placement
// observation, free-set scoring — into lookups. Everything here is an exact
// memoization of a deterministic computation: each cache key captures every
// input the cached value depends on, so a hit is bit-identical to the
// recompute and no entry can ever be served stale. The from-scratch search
// they memoize lives in reference_test.go as refScheduler, the oracle the
// parity suite compares the Scheduler against.
package sched

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/topology"
)

// Tables is the part of the fast path that only the machine determines: the
// important placements per container size, the pinnings, the prepared
// observations and the scored free sets. It names no predictor or goal, so
// the schedulers of one machine model may share one set (numaplace keeps one
// per Machine.Fingerprint); the shape table, keyed by predictor, stays per
// scheduler. Only NewSharedScheduler shares a set, and its schedulers
// enumerate and pin through it: seams that answered otherwise would poison it.
type Tables struct {
	spec *concern.Spec
	fp   uint64 // spec.Machine.Fingerprint
	// mu guards flight, the enumerations in progress.
	//numalint:locks sched.Tables.mu rank=35
	mu     sync.Mutex
	flight map[int]*flight
	imps   cowCache[int, []placement.Important]
	pins   cowCache[pinKey, []topology.ThreadID]
	obs    cowCache[obsKey, *obsEntry]
	best   cowCache[bestKey, topology.NodeSet]
}

// maxShapes bounds what a fleet can present: one shape per (workload name,
// size) — 256 workloads at 8 sizes is ten times the paper's catalog.
const maxShapes = 256 * 8

// NewTables returns an empty table set for the machine of spec.
func NewTables(spec *concern.Spec) *Tables {
	t := &Tables{spec: spec, fp: spec.Machine.Fingerprint(), flight: map[int]*flight{}}
	t.imps.max = 256
	t.pins.max = 8192
	t.obs.max = 2 * maxShapes // base and probe per shape
	t.best.max = 8192
	return t
}

// Stats counts what one holder of a table set asked of it: enumerations and
// pinnings run on its behalf and found already made, observations prepared
// and free sets searched. The last two count misses only, so an admission's
// hit path adds no atomic for them.
type Stats struct {
	Enumerations, PlacementHits, PinRuns, PinHits, Prepares, Searches atomic.Int64
}

// flight is one enumeration in progress, shared by the callers waiting on it.
type flight struct {
	done chan struct{}
	val  []placement.Important
	err  error
}

// Placements returns the important placements for v-vCPU containers, shared
// and read-only. The first caller of a size enumerates while concurrent
// callers of that size wait for it (singleflight). Failures, cancellation
// included, are not kept: the next caller retries, and a waiter whose own
// context is live retries rather than inherit the leader's cancellation.
func (t *Tables) Placements(ctx context.Context, v int, st *Stats) ([]placement.Important, error) {
	for {
		if imps, ok := t.imps.get(v); ok {
			st.PlacementHits.Add(1)
			return imps, nil
		}
		t.mu.Lock()
		if imps, ok := t.imps.get(v); ok {
			t.mu.Unlock()
			st.PlacementHits.Add(1)
			return imps, nil
		}
		if c, ok := t.flight[v]; ok {
			t.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err == nil {
				st.PlacementHits.Add(1)
				return c.val, nil
			}
			if ctx.Err() == nil &&
				(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				continue
			}
			return nil, c.err
		}
		c := &flight{done: make(chan struct{})}
		t.flight[v] = c
		t.mu.Unlock()

		st.Enumerations.Add(1)
		c.val, c.err = placement.Enumerate(ctx, t.spec, v)
		t.mu.Lock()
		delete(t.flight, v)
		if c.err == nil {
			t.imps.put(v, c.val)
		}
		t.mu.Unlock()
		close(c.done)
		return c.val, c.err
	}
}

// pinKey identifies one memoized pinning. Placements carry at most a
// couple of per-node concern scores on every supported machine; larger
// (hand-built) score lists bypass the cache.
type pinKey struct {
	v      int
	nodes  topology.NodeSet
	nscore int
	scores [4]int
}

// Pin returns placement p's pinning of v vCPUs, shared and read-only.
func (t *Tables) Pin(ctx context.Context, p placement.Placement, v int, st *Stats) ([]topology.ThreadID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := pinKey{v: v, nodes: p.Nodes, nscore: len(p.PerNodeScores)}
	keyed := k.nscore <= len(k.scores)
	if keyed {
		copy(k.scores[:], p.PerNodeScores)
		if threads, ok := t.pins.get(k); ok {
			st.PinHits.Add(1)
			return threads, nil
		}
	}
	st.PinRuns.Add(1)
	threads, err := placement.Pin(t.spec, p, v)
	if err == nil && keyed {
		t.pins.put(k, threads)
	}
	return threads, err
}

// cowCache is a copy-on-write map for read-heavy, write-rare memoization:
// readers follow one atomic pointer to an immutable map (no locks, no
// interface boxing — admissions hit it millions of times per second),
// writers clone under a mutex. Past max entries the next insert starts a
// fresh map instead of cloning, bounding both memory and the per-miss clone
// cost; dropping entries is always safe because values are pure functions
// of their keys.
type cowCache[K comparable, V any] struct {
	m atomic.Pointer[map[K]V]
	// mu serializes writers only; it is the innermost lock of the
	// hierarchy (a cache miss under the machine lock may fill here).
	//numalint:locks sched.cowCache.mu rank=40
	mu  sync.Mutex
	max int
}

// get is the lock-free hit path: one atomic load, one map probe.
//
//numalint:noalloc
func (c *cowCache[K, V]) get(k K) (V, bool) {
	if m := c.m.Load(); m != nil {
		v, ok := (*m)[k]
		return v, ok
	}
	var zero V
	return zero, false
}

func (c *cowCache[K, V]) put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.m.Load()
	var next map[K]V
	if old == nil || len(*old) >= c.max {
		next = make(map[K]V, 16)
	} else {
		next = maps.Clone(*old)
	}
	next[k] = v
	c.m.Store(&next)
}

// obsKey identifies one cacheable placement observation: the workload, the
// container size, and the important-placement index the container is
// observed in. The thread pinning and the noise-free model output are
// deterministic functions of exactly these, so the prepared observation is
// shared across every admission of the same shape; only the per-trial noise
// draw — keyed by container identity — remains, applied by Prepared.At.
//
// Here and in shapeKey the workload is keyed by name, so a lookup hashes one
// short string, not eleven model fields; the entry keeps the full Workload
// and every hit compares it: namesakes evict each other, never mix.
type obsKey struct {
	name  string
	v, pi int
}

type obsEntry struct {
	w    perfsim.Workload
	prep perfsim.Prepared
}

// bestKey identifies one scored free-set search: bestFreeSet is a pure
// function of the machine (fixed per table set), the free mask and the
// class size, so the full key is (free, size). Keying by the mask is what
// makes invalidation structural — every free-set mutation (Place's
// install, Release's union, Rebalance moves, Adopt, ApplyMove) publishes a
// new mask, which by construction cannot hit another mask's entry, and
// recurring masks (admit/release churn) hit their old entries exactly.
type bestKey struct {
	free topology.NodeSet
	size int
}

// shapeKey identifies a Preview shape. The predictor pointer is the model
// fingerprint: predictors are immutable once trained, and retraining swaps
// the registered pointer, so a stale model can never satisfy a lookup.
type shapeKey struct {
	name string
	v    int
	pred *core.Predictor
}

// shape is the write-once Preview table of one (workload, size, predictor).
// The preview observation draws an ID-independent noise stream, so observe +
// predict is a pure function of the shape, and the class choice depends on
// the free mask only through its node count (scanBest compares class sizes
// with free.Len(); a best set exists whenever the size fits). byFree[n] is
// that choice with n nodes free (Class < 0: nothing fits) and the model's
// prediction there — a few words, not the prediction vector. A mask change
// costs one index here plus one best-cache lookup; no entry can go stale.
type shape struct {
	w        perfsim.Workload
	basePerf float64
	byFree   []Score
}

// Score is one entry of a score row: what a Preview would answer with a
// given number of nodes free. Class is the index of the placement class
// Place would choose, negative when no class fits (the Preview fails with
// ErrMachineFull); Perf is the model's prediction there, the Preview's
// PredictedPerf.
type Score struct {
	Class int
	Perf  float64
}

// ScoreClass identifies everything a score row depends on besides the
// workload and the container size: the machine's structure, the predictor
// serving the size (predictors are immutable once trained; retraining swaps
// the pointer) and the serving goal. It is comparable: two schedulers
// reporting equal classes for a size answer every Preview of that size alike
// whenever their free-node counts are equal, so a router may score both from
// one row.
type ScoreClass struct {
	Machine   uint64          // machines.Machine.Fingerprint
	Predictor *core.Predictor // serving the size
	GoalFrac  float64         // ServeConfig's, default resolved
}

// fastPath bundles the scheduler's admission caches: the machine's table
// set, the shape table its predictors key, and the tenant pool.
type fastPath struct {
	*Tables
	shape cowCache[shapeKey, *shape]
	pool  sync.Pool // *tenant with reusable prediction vector
	st    *Stats
}

func (f *fastPath) init(t *Tables, st *Stats) {
	f.Tables, f.st = t, st
	f.shape.max = maxShapes
	f.pool.New = func() any { return new(tenant) }
}

// getTenant returns a pooled tenant whose prediction vector has length n.
// The vector's previous contents are fully overwritten by PredictInto
// before any read, so reuse is exact.
func (f *fastPath) getTenant(n int) *tenant {
	t := f.pool.Get().(*tenant)
	if cap(t.vec) < n {
		t.vec = make([]float64, n)
	} else {
		t.vec = t.vec[:n]
	}
	return t
}

// putTenant recycles a tenant after release or a failed admission. Only the
// vector's backing array survives; every other field is cleared so a pooled
// tenant can never leak an identity, a pinning or a stale decision into its
// next use.
func (f *fastPath) putTenant(t *tenant) {
	vec := t.vec
	*t = tenant{vec: vec}
	f.pool.Put(t)
}

// preparedObs returns the trial-independent observation of workload w in
// placement imps[pi], computing and caching it on first use.
func (s *Scheduler) preparedObs(ctx context.Context, w perfsim.Workload, v int, imps []placement.Important, pi int) (perfsim.Prepared, error) {
	k := obsKey{name: w.Name, v: v, pi: pi}
	if e, ok := s.fast.obs.get(k); ok && e.w == w {
		return e.prep, nil
	}
	threads, err := s.pin(ctx, imps[pi].Placement, v)
	if err != nil {
		return perfsim.Prepared{}, err
	}
	prep, err := perfsim.Prepare(s.machine, w, threads)
	if err != nil {
		return perfsim.Prepared{}, err
	}
	s.fast.st.Prepares.Add(1)
	s.fast.obs.put(k, &obsEntry{w: w, prep: prep})
	return prep, nil
}

// previewShape returns the Preview table of (w, v, p), built on first use.
func (s *Scheduler) previewShape(ctx context.Context, w perfsim.Workload, v int, imps []placement.Important, p *core.Predictor) (*shape, error) {
	k := shapeKey{name: w.Name, v: v, pred: p}
	if sh, ok := s.fast.shape.get(k); ok && sh.w == w {
		return sh, nil
	}
	vec := make([]float64, p.NumPlacements)
	obs, err := s.observePredict(ctx, w, v, imps, p, previewTrial(w, v), vec)
	if err != nil {
		return nil, err
	}
	goal := s.goal(obs[0])
	sh := &shape{w: w, basePerf: obs[0], byFree: make([]Score, s.machine.Topo.NumNodes+1)}
	for n := range sh.byFree {
		c := scanBest(imps, vec, obs[0], goal, n)
		sh.byFree[n] = Score{c, predictedPerf(obs[0], vec, c)}
	}
	s.fast.shape.put(k, sh)
	return sh, nil
}

// errFull is the rejection of a v-vCPU container by free free nodes. A full
// machine answers every preview of a fan-out with one and they are dropped
// whenever another machine admits, so the text is built only when read.
type errFull struct{ free, v int }

func (e errFull) Unwrap() error { return nperr.ErrMachineFull }
func (e errFull) Error() string {
	return fmt.Sprintf("sched: %d free nodes cannot host a %d-vCPU container: %v", e.free, e.v, e.Unwrap())
}

// bestSet is the cached bestFreeSet: the highest-bandwidth size-node subset
// of free, resolved as a lookup for masks seen before.
//
//numalint:noalloc
func (s *Scheduler) bestSet(free topology.NodeSet, size int) (topology.NodeSet, bool) {
	k := bestKey{free: free, size: size}
	nodes, ok := s.fast.best.get(k)
	if !ok {
		s.fast.st.Searches.Add(1)
		if nodes, ok = bestFreeSet(s.machine, free, size); ok {
			s.fast.best.put(k, nodes)
		}
	}
	return nodes, ok
}

// scanBest is the paper's Step 4 rule: among the classes whose node count
// fits the free set, the cheapest (fewest-node) class predicted to meet the
// goal, or the fastest predicted class when none does; -1 if no candidate
// fits. The preference order is total (the index is the final tiebreak), so
// one allocation-free pass for the minimum replaces sorting the ranking —
// the sort-based rankClasses in reference_test.go is the oracle that holds
// the two equal.
func scanBest(imps []placement.Important, vec []float64, basePerf, goal float64, freeLen int) int {
	best := -1
	var bestMeets bool
	var bestNodes int
	var bestPerf float64
	for i, rel := range vec {
		if rel <= 0 {
			continue
		}
		n := imps[i].Nodes.Len()
		if n > freeLen {
			continue
		}
		perf := basePerf / rel
		meets := perf >= goal
		if best < 0 || rankLess(meets, n, perf, bestMeets, bestNodes, bestPerf) {
			best, bestMeets, bestNodes, bestPerf = i, meets, n, perf
		}
	}
	return best
}

// rankLess reports whether candidate a precedes candidate b in the Step 4
// preference order: goal-meeting classes first; among those, fewest nodes;
// then highest predicted performance. Equal keys keep the earlier index
// (scanBest only replaces on strict precedence).
func rankLess(aMeets bool, aNodes int, aPerf float64, bMeets bool, bNodes int, bPerf float64) bool {
	if aMeets != bMeets {
		return aMeets
	}
	if aMeets && aNodes != bNodes {
		return aNodes < bNodes
	}
	return aPerf > bPerf
}
