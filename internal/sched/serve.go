package sched

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/migrate"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// ServeConfig tunes the incremental scheduler.
type ServeConfig struct {
	// GoalFrac is the performance goal for each admitted container as a
	// fraction of its own observed baseline throughput (default 1.0).
	GoalFrac float64
}

func (c ServeConfig) goalFrac() float64 {
	if c.GoalFrac <= 0 {
		return 1.0
	}
	return c.GoalFrac
}

// Assignment describes one admitted container: where it runs and what the
// model predicted for it.
type Assignment struct {
	ID       int
	Workload string
	VCPUs    int
	// Class is the 1-based important-placement ID of the chosen class.
	Class int
	// Nodes is the concrete node set the container is pinned to.
	Nodes topology.NodeSet
	// Threads is the vCPU-to-hardware-thread pinning: the machine model's
	// memoized one, shared and read-only.
	Threads []topology.ThreadID
	// BasePerf is the container's observed baseline throughput and
	// PredictedPerf the model's prediction for the chosen class.
	BasePerf      float64
	PredictedPerf float64
	// ProbePerf is the container's observed throughput in the predictor's
	// probe placement (the second model input). Together with BasePerf it
	// is everything the model consumed: recording both makes an admission
	// replayable — Adopt reconstructs the full prediction vector, and with
	// it the tenant's rebalancing behavior, bit-identically.
	ProbePerf float64
}

// RebalanceMove records one container migration performed by Rebalance.
type RebalanceMove struct {
	ID        int
	FromClass int
	ToClass   int
	FromNodes topology.NodeSet
	ToNodes   topology.NodeSet
	// Seconds is the simulated migration time (fast mechanism).
	Seconds float64
}

// RebalanceReport summarizes one Rebalance pass.
type RebalanceReport struct {
	Examined int
	Moves    []RebalanceMove
	// TotalSeconds is the summed simulated migration time of all moves.
	TotalSeconds float64
}

// Scheduler is a long-lived incremental packing scheduler: the online
// counterpart of the batch ML policy in Experiment. Containers are admitted
// one at a time (observe in the predictor's two input placements, predict
// the full vector, pin to the cheapest class meeting the goal on the best
// free nodes), released individually, and periodically rebalanced onto
// better node sets freed by departures.
//
// A Scheduler serves one machine and is safe for concurrent use: every call
// that reads or writes its books or free set holds its machine lock once,
// across the whole call, and runs single-threaded under it. FreeNodes,
// Preview, ScoreClass, ScoreRow and Predictor read no books and run beside
// those calls.
type Scheduler struct {
	machine machines.Machine
	// imps resolves the important placements for a container size
	// (typically the table set's memoized enumeration).
	imps func(ctx context.Context, v int) ([]placement.Important, error)
	// pin materializes a placement into a thread assignment (typically the
	// table set's memoized pinner — Place re-pins the same base and probe
	// placements on every admission). The result may be shared: the
	// scheduler only reads it.
	pin func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error)
	cfg ServeConfig

	// mu is the machine lock. Place, PlaceInto, Release, Rebalance, Adopt,
	// ApplyMove, Assignments, Assignment and UsePredictor each hold it once,
	// across the whole call. Ranked after fleet.mu: a fleet hold may call
	// into the scheduler, but no scheduler path may call back into the fleet.
	//numalint:locks sched.Scheduler.mu rank=20
	mu sync.Mutex
	// The predictor registry is read once per Place, and once per machine
	// per fleet routing decision to name the score class: it is one
	// immutable list behind an atomic pointer, replaced under mu. A machine
	// serves a handful of container sizes, and scanning that many entries
	// costs a fraction of a map probe.
	predictors atomic.Pointer[[]sizePredictor]
	// classEpoch is the counter NotifyClassChange registered, bumped after
	// every store to predictors.
	classEpoch atomic.Pointer[atomic.Uint64]

	// free is the unallocated node mask (topology.NodeSet bits). Only the
	// calls under mu store it, after their pinning succeeded, so it only
	// ever excludes committed reservations; it is atomic so that FreeNodes
	// and Preview may load it without the lock.
	free   atomic.Uint64
	nextID int

	// books is the tenant registry: the live map plus the incrementally
	// sorted ID slice that replaces per-snapshot sorting.
	books struct {
		tenants map[int]*tenant
		live    []int // admitted IDs, ascending
	}

	fast fastPath
}

// sizePredictor is one registry entry: the predictor serving a size.
type sizePredictor struct {
	vcpus int
	pred  *core.Predictor
}

// tenant is one admitted container: its identity, the Step 4 decision it runs
// under and the model inputs behind it. Tenants are pooled (fastPath.pool).
type tenant struct {
	id    int
	w     perfsim.Workload
	vcpus int
	// threads is the vCPU-to-hardware-thread pinning of class on nodes: the
	// table set's memoized slice, shared and read-only.
	threads   []topology.ThreadID
	class     int // index into the enumeration for its vCPU count
	classID   int // 1-based important-placement ID
	nodes     topology.NodeSet
	basePerf  float64
	probePerf float64
	vec       []float64
	goal      float64
}

// NewSharedScheduler builds an empty scheduler over table set t, which it
// shares with every other scheduler built over t: it enumerates and pins
// through the set, counting into st what it asks of it. It serves no size
// until UsePredictor registers one: admissions of an unregistered size fail
// with nperr.ErrUntrained.
func NewSharedScheduler(t *Tables, st *Stats, cfg ServeConfig) *Scheduler {
	s := &Scheduler{machine: t.spec.Machine, cfg: cfg}
	s.imps = func(ctx context.Context, v int) ([]placement.Important, error) { return t.Placements(ctx, v, st) }
	s.pin = func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error) {
		return t.Pin(ctx, p, v, st)
	}
	s.free.Store(uint64(topology.FullNodeSet(s.machine.Topo.NumNodes)))
	s.books.tenants = map[int]*tenant{}
	s.fast.init(t, st)
	return s
}

// UsePredictor registers a trained predictor for v-vCPU containers,
// replacing any previous registration, after warming it for serving: the
// first Place should not pay the one-time build. It changes what ScoreClass
// answers, so it adds to the counter NotifyClassChange registered.
func (s *Scheduler) UsePredictor(v int, p *core.Predictor) {
	p.Warm()
	s.mu.Lock()
	defer s.mu.Unlock()
	next := []sizePredictor{{v, p}}
	if old := s.predictors.Load(); old != nil {
		for _, sp := range *old {
			if sp.vcpus != v {
				next = append(next, sp)
			}
		}
	}
	s.predictors.Store(&next)
	if epoch := s.classEpoch.Load(); epoch != nil {
		epoch.Add(1)
	}
}

// Predictor returns the predictor registered for v-vCPU containers, or
// false if none is.
func (s *Scheduler) Predictor(v int) (*core.Predictor, bool) {
	p := s.predictor(v)
	return p, p != nil
}

func (s *Scheduler) predictor(v int) *core.Predictor {
	if reg := s.predictors.Load(); reg != nil {
		for _, sp := range *reg {
			if sp.vcpus == v {
				return sp.pred
			}
		}
	}
	return nil
}

// NotifyClassChange registers the counter the scheduler adds to after every
// change of what ScoreClass answers — a predictor registered by UsePredictor
// — so that a fleet can keep the class it read, and the order it ranked from
// the class's rows, instead of asking per decision; nil unregisters. ScoreRow
// needs no notification of its own: a class's rows are a function of the
// class. One counter at a time: a machine serves one fleet.
func (s *Scheduler) NotifyClassChange(epoch *atomic.Uint64) { s.classEpoch.Store(epoch) }

// FreeNodes returns the currently unallocated node set.
func (s *Scheduler) FreeNodes() topology.NodeSet {
	return topology.NodeSet(s.free.Load())
}

// Assignments returns a snapshot of all admitted containers in ascending
// ID order.
func (s *Scheduler) Assignments() []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Assignment, 0, len(s.books.live))
	for _, id := range s.books.live {
		out = append(out, s.assignment(s.books.tenants[id]))
	}
	return out
}

// Assignment returns the current assignment of one admitted container by
// ID, without snapshotting the whole tenant set. Routing layers resolving
// many fleet-wide IDs against large backends use it instead of
// Assignments; ok is false for IDs the scheduler is not serving.
func (s *Scheduler) Assignment(id int) (Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.books.tenants[id]
	if !ok {
		return Assignment{}, false
	}
	return s.assignment(t), true
}

// insertLive records a newly admitted ID in the sorted live slice. IDs are
// allocated monotonically, so the overwhelmingly common case is an append;
// adoption during recovery replay may interleave lower IDs, handled by a
// binary-search insert.
func (s *Scheduler) insertLive(id int) {
	if n := len(s.books.live); n == 0 || s.books.live[n-1] < id {
		s.books.live = append(s.books.live, id)
		return
	}
	i, _ := slices.BinarySearch(s.books.live, id)
	s.books.live = slices.Insert(s.books.live, i, id)
}

// removeLive drops a released ID from the sorted live slice.
func (s *Scheduler) removeLive(id int) {
	if i, ok := slices.BinarySearch(s.books.live, id); ok {
		s.books.live = slices.Delete(s.books.live, i, i+1)
	}
}

func (s *Scheduler) assignment(t *tenant) Assignment {
	return Assignment{
		ID:            t.id,
		Workload:      t.w.Name,
		VCPUs:         t.vcpus,
		Class:         t.classID,
		Nodes:         t.nodes,
		Threads:       t.threads,
		BasePerf:      t.basePerf,
		PredictedPerf: predictedPerf(t.basePerf, t.vec, t.class),
		ProbePerf:     t.probePerf,
	}
}

func predictedPerf(basePerf float64, vec []float64, class int) float64 {
	if class < 0 || class >= len(vec) || vec[class] <= 0 {
		return 0
	}
	return basePerf / vec[class]
}

// model returns the machine's enumeration for v-vCPU containers once
// predictor p is known to cover it: the refusals Place, Adopt, Preview and
// ScoreRow share.
func (s *Scheduler) model(ctx context.Context, v int, p *core.Predictor) ([]placement.Important, error) {
	imps, err := s.imps(ctx, v)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("sched: no predictor for %d-vCPU containers: %w", v, nperr.ErrUntrained)
	}
	if p.NumPlacements != len(imps) {
		return nil, fmt.Errorf("sched: predictor has %d placements, machine yields %d for %d vCPUs: %w",
			p.NumPlacements, len(imps), v, nperr.ErrMachineMismatch)
	}
	return imps, nil
}

// goal is the throughput a tenant observed at basePerf must be predicted to
// reach in its class, headroom included.
func (s *Scheduler) goal(basePerf float64) float64 {
	return s.cfg.goalFrac() * basePerf * (1 + headroom)
}

// pinClass pins tenant t's vCPUs to class imp on nodes: the one place a
// Step 4 decision becomes threads. Nodes of another count than the class's
// are a decision no admission makes (a corrupt record); a pinning of another
// length than t's vCPU count is one no pinner may return.
func (s *Scheduler) pinClass(ctx context.Context, t *tenant, imp placement.Important, nodes topology.NodeSet) ([]topology.ThreadID, error) {
	if nodes.Len() != imp.Nodes.Len() {
		return nil, fmt.Errorf("sched: container %d: %d nodes %v for a %d-node class: %w",
			t.id, nodes.Len(), nodes, imp.Nodes.Len(), nperr.ErrLogCorrupt)
	}
	threads, err := s.pin(ctx, placement.Placement{Nodes: nodes, PerNodeScores: imp.PerNodeScores}, t.vcpus)
	if err != nil {
		return nil, err
	}
	if len(threads) != t.vcpus {
		return nil, fmt.Errorf("sched: container %d: mapping has %d threads, want %d: %w",
			t.id, len(threads), t.vcpus, nperr.ErrMachineMismatch)
	}
	return threads, nil
}

// install commits a Step 4 decision for tenant t, whose identity and model
// inputs are set: it pins class imps[choice] on nodes, takes the nodes from the
// free mask, registers t and writes its assignment to *dst. A failed install
// changes nothing, *dst included.
func (s *Scheduler) install(ctx context.Context, t *tenant, imps []placement.Important, choice int, nodes topology.NodeSet, dst *Assignment) error {
	threads, err := s.pinClass(ctx, t, imps[choice], nodes)
	if err != nil {
		return err
	}
	s.free.Store(uint64(s.FreeNodes().Minus(nodes)))
	t.threads, t.class, t.classID, t.nodes = threads, choice, imps[choice].ID, nodes
	s.books.tenants[t.id] = t
	s.insertLive(t.id)
	*dst = s.assignment(t)
	return nil
}

// repin moves live tenant t to class imps[choice] on nodes, avail being the
// free mask with t's own nodes returned: the one commit Rebalance's moves and
// ApplyMove share.
func (s *Scheduler) repin(ctx context.Context, t *tenant, imps []placement.Important, choice int, nodes, avail topology.NodeSet) error {
	threads, err := s.pinClass(ctx, t, imps[choice], nodes)
	if err != nil {
		return err
	}
	s.free.Store(uint64(avail.Minus(nodes)))
	t.threads, t.class, t.classID, t.nodes = threads, choice, imps[choice].ID, nodes
	return nil
}

// Place observes, predicts and places one new container of workload w with
// v vCPUs, returning its assignment in a fresh allocation: PlaceInto's
// wrapper for callers that keep what it returns.
func (s *Scheduler) Place(ctx context.Context, w perfsim.Workload, v int) (*Assignment, error) {
	a := new(Assignment)
	if err := s.PlaceInto(ctx, w, v, a); err != nil {
		return nil, err
	}
	return a, nil
}

// PlaceInto observes, predicts and places one new container of workload w
// with v vCPUs, writing its assignment to *dst, a slot the caller owns. It
// fails with nperr.ErrUntrained when no predictor covers v,
// nperr.ErrMachineMismatch when the predictor does not match the machine's
// enumeration, and nperr.ErrMachineFull when no feasible class fits the free
// nodes. A failed admission registers no tenant, leaves the free set
// untouched and leaves *dst exactly as it was.
func (s *Scheduler) PlaceInto(ctx context.Context, w perfsim.Workload, v int, dst *Assignment) (err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.predictor(v)
	imps, err := s.model(ctx, v, p)
	if err != nil {
		return err
	}

	// Reserve an identity, then observe the container in the predictor's
	// two input placements (measured alone, like the paper's in-place
	// observation during the first seconds of execution) and predict its
	// vector. A failed admission leaves a gap in the ID space, which every
	// iterator tolerates, and hands its tenant back to the pool.
	t := s.fast.getTenant(p.NumPlacements)
	defer func() {
		if err != nil {
			s.fast.putTenant(t)
		}
	}()
	t.id, t.w, t.vcpus = s.nextID, w, v
	s.nextID++
	obs, err := s.observePredict(ctx, w, v, imps, p, admitTrial(t.id), t.vec)
	if err != nil {
		return err
	}
	t.basePerf, t.probePerf, t.goal = obs[0], obs[1], s.goal(obs[0])
	if err := ctx.Err(); err != nil {
		return err
	}

	// Choose the class that fits the free nodes and install it.
	free := s.FreeNodes()
	choice, nodes, ok := s.chooseFitting(imps, t.vec, t.basePerf, t.goal, free)
	if !ok {
		return errFull{free.Len(), v}
	}
	return s.install(ctx, t, imps, choice, nodes, dst)
}

// admitTrial derives the measurement-noise streams for an admission's two
// observations from the container's identity (observation i uses trial
// admitTrial(id)+i).
func admitTrial(id int) int { return id * 2 }

// previewTrial derives a deterministic, ID-independent noise stream for
// preview observations. The value is negative, keeping it clear of the
// non-negative admitTrial streams.
func previewTrial(w perfsim.Workload, v int) int {
	return -2 - int(xrand.Mix(xrand.HashString(w.Name), uint64(v))%(1<<30))
}

// observePredict observes a v-vCPU container of workload w in the
// predictor's Base and Probe placements (observation i draws the
// trialBase+i noise stream) and predicts the full placement vector into vec
// (len p.NumPlacements, fully overwritten). It reads no mutable scheduler
// state, so Preview runs it without the machine lock.
//
// The deterministic part of both observations — the thread pinnings and the
// noise-free performance model — comes from the shape's observation entry,
// and only the per-trial noise draws run per admission: each sample is the
// one perfsim.Run would measure in that placement, since perfsim.Prepared.At
// is Run bit for bit (perfsim's TestPreparedAtIsRun).
func (s *Scheduler) observePredict(ctx context.Context, w perfsim.Workload, v int,
	imps []placement.Important, p *core.Predictor, trialBase int, vec []float64) ([2]float64, error) {
	var obs [2]float64
	e, err := s.observations(ctx, &w, v, imps, p)
	if err != nil {
		return obs, err
	}
	for i := range obs {
		obs[i] = e.prep[i].At(trialBase + i)
	}
	if err := p.PredictInto(vec, obs[0], obs[1]); err != nil {
		return obs, err
	}
	return obs, nil
}

// Preview describes what Place would do for a container right now, without
// admitting it: the class Place would choose against the current free nodes
// and the model's prediction there. Routing layers (the fleet's
// BestPredicted policy) use it to compare machines before committing an
// admission to one of them.
type Preview struct {
	// Class, ClassID and Nodes mirror the Assignment fields the admission
	// would produce.
	Class   int
	ClassID int
	Nodes   topology.NodeSet
	// BasePerf is the observed baseline throughput and PredictedPerf the
	// model's prediction for the chosen class.
	BasePerf      float64
	PredictedPerf float64
}

// Preview observes and predicts one container of workload w with v vCPUs
// and returns the choice Place would make against the current free nodes,
// reserving nothing. The observation draws a deterministic noise stream
// from the workload identity instead of consuming a container ID, so
// previews are repeatable and leave subsequent admissions bit-identical;
// the estimate may therefore differ marginally from the admitted
// container's own observation. Failure modes match Place.
func (s *Scheduler) Preview(ctx context.Context, w perfsim.Workload, v int) (*Preview, error) {
	p := s.predictor(v)
	imps, err := s.model(ctx, v, p)
	if err != nil {
		return nil, err
	}
	// The one read of the free mask. A preview holds no lock, so a commit
	// landing after this load makes the result stale by that one commit,
	// which the contract allows: previews are advisory, and Place plans
	// against the mask it finds. Nothing cached depends on the mask except
	// through this value.
	free := s.FreeNodes()
	sh, err := s.previewShape(ctx, w, v, imps, p)
	if err != nil {
		return nil, err
	}
	if pick := sh.byFree[free.Len()]; pick.Class >= 0 {
		if nodes, ok := s.bestSet(free, imps[pick.Class].Nodes.Len()); ok {
			return &Preview{
				Class: pick.Class, ClassID: imps[pick.Class].ID, Nodes: nodes,
				BasePerf: sh.basePerf, PredictedPerf: pick.Perf,
			}, nil
		}
	}
	return nil, errFull{free.Len(), v}
}

// ScoreClass returns the score class this scheduler is in for v-vCPU
// containers right now; it is read per routing decision, so a predictor
// registered since takes effect on the next one. ok is false when no
// predictor covers v: Preview must be asked instead, and says so.
func (s *Scheduler) ScoreClass(v int) (class ScoreClass, ok bool) {
	p := s.predictor(v)
	if p == nil {
		return ScoreClass{}, false
	}
	return ScoreClass{Machine: s.fast.fp, Predictor: p, GoalFrac: s.cfg.goalFrac()}, true
}

// ScoreRow returns the score row of (w, v) in class, one this scheduler
// reported: entry n is what Preview answers with n nodes free, so
// row[FreeNodes().Len()] is this scheduler's Preview and, by ScoreClass's
// contract, that of every scheduler of the class at its own free count. The
// row is shared and read-only, and stands: the shape table computes it once
// per predictor pointer, deterministically, so (w, v, class) always gets these
// values. An error is the one those Previews return.
func (s *Scheduler) ScoreRow(ctx context.Context, w perfsim.Workload, v int, class ScoreClass) ([]Score, error) {
	imps, err := s.model(ctx, v, class.Predictor)
	if err != nil {
		return nil, err
	}
	sh, err := s.previewShape(ctx, w, v, imps, class.Predictor)
	if err != nil {
		return nil, err
	}
	return sh.byFree, nil
}

// chooseFitting walks placement classes in the batch policy's preference
// order (fewest nodes first, fastest predicted within a node count; classes
// meeting the goal before best-effort) and returns the first class whose
// node count fits the free set, together with the best concrete node set.
// It finds that class with a single allocation-free scan (the ranking's
// comparator is a total order, so the first fitting element of the sorted
// ranking is the minimum fitting candidate) and resolves the concrete node
// set through the best-set table.
func (s *Scheduler) chooseFitting(imps []placement.Important, vec []float64, basePerf, goal float64, free topology.NodeSet) (int, topology.NodeSet, bool) {
	if idx := scanBest(imps, vec, basePerf, goal, free.Len()); idx >= 0 {
		if nodes, ok := s.bestSet(free, imps[idx].Nodes.Len()); ok {
			return idx, nodes, true
		}
	}
	return 0, 0, false
}

// Release evicts the container with the given ID and returns its nodes to
// the free pool. Unknown IDs fail with nperr.ErrUnknownContainer.
func (s *Scheduler) Release(ctx context.Context, id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	t, ok := s.books.tenants[id]
	if !ok {
		return fmt.Errorf("sched: releasing container %d: %w", id, nperr.ErrUnknownContainer)
	}
	delete(s.books.tenants, id)
	s.removeLive(id)
	s.free.Store(uint64(s.FreeNodes().Union(t.nodes)))
	s.fast.putTenant(t)
	return nil
}

// Rebalance re-evaluates every admitted container in admission order
// against the current free nodes: a container moves when its preferred
// class (or a better concrete node set of its current class) became
// available after departures. Each move's migration is simulated with the
// paper's fast mechanism and its cost accumulated in the report.
//
// The pass is one hold of the machine lock, so admissions never interleave
// with a half-applied re-packing. That is cheap in practice — every tenant's
// enumeration was already resolved at admission (the imps source is
// cache-warm), and pinning and migration simulation are microsecond-scale —
// but a Place or Release issued mid-pass waits for the pass to finish.
//
// On error the report of moves already committed is returned alongside the
// error: those moves mutated the free set and the tenants, and their
// migration seconds were really spent, so callers must not discard the
// partial report.
func (s *Scheduler) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &RebalanceReport{}
	// Moves change no IDs, so the sorted live slice is stable for the whole
	// pass and is iterated directly.
	for _, id := range s.books.live {
		t := s.books.tenants[id]
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Examined++
		imps, err := s.imps(ctx, t.vcpus)
		if err != nil {
			return rep, err
		}
		// Re-plan with the container's own nodes returned to the pool.
		avail := s.FreeNodes().Union(t.nodes)
		choice, nodes, ok := s.chooseFitting(imps, t.vec, t.basePerf, t.goal, avail)
		if !ok {
			continue
		}
		// A strictly faster class is adopted even when its best concrete
		// node set equals the tenant's current one (the re-pin installs
		// that class's per-node sharing degrees); an unchanged class must
		// bring a strictly better node set.
		better := false
		switch {
		case predictedPerf(t.basePerf, t.vec, choice) > predictedPerf(t.basePerf, t.vec, t.class):
			better = true // strictly faster class became available
		case nodes != t.nodes && choice == t.class && s.machine.IC.Measure(nodes) > s.machine.IC.Measure(t.nodes):
			better = true // same class, higher-bandwidth node set
		}
		if !better {
			continue
		}
		prof := migrate.ProfileFor(t.w, t.vcpus)
		if nodes == t.nodes {
			// Same node set: the move re-pins threads into different
			// sharing degrees but no memory changes nodes, so the fast
			// mechanism only freezes the container and updates cpusets.
			prof.AnonGB, prof.PageCacheGB = 0, 0
		}
		res, err := migrate.Run(ctx, prof, migrate.Fast)
		if err != nil {
			return rep, err
		}
		mv := RebalanceMove{ID: id, FromClass: t.classID, ToClass: imps[choice].ID,
			FromNodes: t.nodes, ToNodes: nodes, Seconds: res.Seconds}
		if err := s.repin(ctx, t, imps, choice, nodes, avail); err != nil {
			return rep, err
		}
		rep.Moves = append(rep.Moves, mv)
		rep.TotalSeconds += res.Seconds
	}
	return rep, nil
}
