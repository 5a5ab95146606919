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
// better node sets freed by departures. All methods are safe for concurrent
// use.
type Scheduler struct {
	machine machines.Machine
	// imps resolves the important placements for a container size
	// (typically the table set's memoized enumeration).
	imps func(ctx context.Context, v int) ([]placement.Important, error)
	// pred resolves the trained predictor for a container size, nil if
	// none is available.
	pred func(v int) *core.Predictor
	// pin materializes a placement into a thread assignment (typically the
	// table set's memoized pinner — Admit re-pins the same base and probe
	// placements on every admission). The result may be shared: the
	// scheduler only reads it.
	pin func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error)
	cfg ServeConfig

	// structMu serializes the structural passes — Rebalance, Adopt,
	// ApplyMove — against the sharded admit/release paths: structural
	// passes hold it exclusively, admissions and releases only shared, so
	// independent admissions proceed in parallel and claim free nodes by
	// CAS on the atomic free mask below. Tenant-field reads (Assignments,
	// Assignment) also take it shared, which is what lets Rebalance mutate
	// live tenants in place. Ranked after fleet.mu: a fleet commit hold
	// may enter the scheduler, but no scheduler path may call back into
	// the fleet.
	//numalint:locks sched.structMu rank=20
	structMu sync.RWMutex
	// free is the unallocated node mask (topology.NodeSet bits). Admissions
	// claim nodes by compare-and-swap against the exact mask they planned
	// with, retrying the plan when a concurrent admission won the race;
	// releases return nodes with an atomic union. The mask only ever
	// excludes committed reservations: an admission CASes only after its
	// pinning succeeded, so a failed one leaves it untouched.
	free   atomic.Uint64
	nextID atomic.Int64

	// books is the tenant registry: the live map plus the incrementally
	// sorted ID slice that replaces per-snapshot sorting. Its mutex is a
	// leaf lock (never held while acquiring anything else); every map or
	// slice mutation, and every tenant-pointer fetch, happens under it.
	//numalint:locks sched.books rank=30
	books struct {
		sync.Mutex
		tenants map[int]*tenant
		live    []int // admitted IDs, ascending
	}

	fast fastPath
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
// through the set, counting into st what it asks of it. pred resolves the
// predictor per container size; nil makes admissions of that size fail with
// nperr.ErrUntrained.
func NewSharedScheduler(t *Tables, st *Stats, pred func(v int) *core.Predictor, cfg ServeConfig) *Scheduler {
	s := &Scheduler{machine: t.spec.Machine, pred: pred, cfg: cfg}
	s.imps = func(ctx context.Context, v int) ([]placement.Important, error) { return t.Placements(ctx, v, st) }
	s.pin = func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error) {
		return t.Pin(ctx, p, v, st)
	}
	s.free.Store(uint64(topology.FullNodeSet(s.machine.Topo.NumNodes)))
	s.books.tenants = map[int]*tenant{}
	s.fast.init(t, st)
	return s
}

// Free returns the currently unallocated node set.
func (s *Scheduler) Free() topology.NodeSet {
	return topology.NodeSet(s.free.Load())
}

// Len returns the number of admitted containers.
func (s *Scheduler) Len() int {
	s.books.Lock()
	defer s.books.Unlock()
	return len(s.books.tenants)
}

// Assignments returns a snapshot of all admitted containers in ascending
// ID order.
func (s *Scheduler) Assignments() []Assignment {
	s.structMu.RLock()
	defer s.structMu.RUnlock()
	s.books.Lock()
	defer s.books.Unlock()
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
	s.structMu.RLock()
	defer s.structMu.RUnlock()
	s.books.Lock()
	defer s.books.Unlock()
	t, ok := s.books.tenants[id]
	if !ok {
		return Assignment{}, false
	}
	return s.assignment(t), true
}

// insertLive records a newly admitted ID in the sorted live slice. IDs are
// allocated monotonically, so the overwhelmingly common case is an append;
// adoption during recovery replay may interleave lower IDs, handled by a
// binary-search insert. Callers hold s.books.
func (s *Scheduler) insertLive(id int) {
	if n := len(s.books.live); n == 0 || s.books.live[n-1] < id {
		s.books.live = append(s.books.live, id)
		return
	}
	i, _ := slices.BinarySearch(s.books.live, id)
	s.books.live = slices.Insert(s.books.live, i, id)
}

// removeLive drops a released ID from the sorted live slice. Callers hold
// s.books.
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
// predictor p is known to cover it: the refusals Admit, Adopt, Preview and
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
// inputs are set: it pins class imps[choice] on nodes, claims the nodes by CAS
// against free, the mask the decision was planned with, registers t and writes
// its assignment to *dst. claimed is false, and nothing changed — *dst
// included — when a concurrent admission moved the mask first: Admit re-plans
// then, and Adopt, holding structMu exclusively, cannot lose. A failed install
// leaves *dst as it was too.
func (s *Scheduler) install(ctx context.Context, t *tenant, imps []placement.Important, choice int, nodes, free topology.NodeSet, dst *Assignment) (claimed bool, err error) {
	threads, err := s.pinClass(ctx, t, imps[choice], nodes)
	if err != nil {
		return false, err
	}
	if !s.free.CompareAndSwap(uint64(free), uint64(free.Minus(nodes))) {
		return false, nil
	}
	t.threads, t.class, t.classID, t.nodes = threads, choice, imps[choice].ID, nodes
	s.books.Lock()
	s.books.tenants[t.id] = t
	s.insertLive(t.id)
	*dst = s.assignment(t)
	s.books.Unlock()
	return true, nil
}

// repin moves live tenant t to class imps[choice] on nodes, avail being the
// free mask with t's own nodes returned: the one commit Rebalance's moves and
// ApplyMove share. Callers hold structMu exclusively.
func (s *Scheduler) repin(ctx context.Context, t *tenant, imps []placement.Important, choice int, nodes, avail topology.NodeSet) error {
	threads, err := s.pinClass(ctx, t, imps[choice], nodes)
	if err != nil {
		return err
	}
	s.free.Store(uint64(avail.Minus(nodes)))
	t.threads, t.class, t.classID, t.nodes = threads, choice, imps[choice].ID, nodes
	return nil
}

// Admit observes, predicts and places one new container of workload w with
// v vCPUs, returning its assignment in a fresh allocation: AdmitInto's
// wrapper for callers that keep what it returns.
func (s *Scheduler) Admit(ctx context.Context, w perfsim.Workload, v int) (*Assignment, error) {
	a := new(Assignment)
	if err := s.AdmitInto(ctx, w, v, a); err != nil {
		return nil, err
	}
	return a, nil
}

// AdmitInto observes, predicts and places one new container of workload w
// with v vCPUs, writing its assignment to *dst, a slot the caller owns. It
// fails with nperr.ErrUntrained when no predictor covers v,
// nperr.ErrMachineMismatch when the predictor does not match the machine's
// enumeration, and nperr.ErrMachineFull when no feasible class fits the free
// nodes. A failed admission registers no tenant, leaves the free set
// untouched and leaves *dst exactly as it was.
func (s *Scheduler) AdmitInto(ctx context.Context, w perfsim.Workload, v int, dst *Assignment) (err error) {
	p := s.pred(v)
	imps, err := s.model(ctx, v, p)
	if err != nil {
		return err
	}

	// Phase 1 (unlocked): reserve an identity, then observe the container
	// in the predictor's two input placements (measured alone, like the
	// paper's in-place observation during the first seconds of execution)
	// and predict its vector. Observation reads no mutable scheduler
	// state, so concurrent admissions observe in parallel; only node
	// reservation below needs the shared lock. A failed admission leaves a
	// gap in the ID space, which every iterator tolerates, and hands its
	// tenant back to the pool.
	t := s.fast.getTenant(p.NumPlacements)
	defer func() {
		if err != nil {
			s.fast.putTenant(t)
		}
	}()
	t.id, t.w, t.vcpus = int(s.nextID.Add(1)-1), w, v
	obs, err := s.observePredict(ctx, w, v, imps, p, admitTrial(t.id), t.vec)
	if err != nil {
		return err
	}
	t.basePerf, t.probePerf, t.goal = obs[0], obs[1], s.goal(obs[0])

	// Phase 2 (shared lock): choose a class that fits the free nodes and
	// install it against the exact mask the choice was planned for — losing
	// the race to a concurrent admission re-plans against the new mask.
	s.structMu.RLock()
	defer s.structMu.RUnlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	for {
		free := topology.NodeSet(s.free.Load())
		choice, nodes, ok := s.chooseFitting(imps, t.vec, t.basePerf, t.goal, free)
		if !ok {
			return errFull{free.Len(), v}
		}
		claimed, err := s.install(ctx, t, imps, choice, nodes, free, dst)
		if err != nil || claimed {
			return err
		}
	}
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
// state, so callers run it unlocked and concurrent observations proceed in
// parallel.
//
// The deterministic part of each observation — the thread pinning and the
// noise-free performance model — comes from the prepared-observation cache,
// and only the per-trial noise draw runs per admission: the sample is the
// one perfsim.Run would measure in that placement, since
// perfsim.Prepared.At is Run by construction.
func (s *Scheduler) observePredict(ctx context.Context, w perfsim.Workload, v int,
	imps []placement.Important, p *core.Predictor, trialBase int, vec []float64) ([2]float64, error) {
	var obs [2]float64
	for i, pi := range [2]int{p.Base, p.Probe} {
		prep, err := s.preparedObs(ctx, w, v, imps, pi)
		if err != nil {
			return obs, err
		}
		obs[i] = prep.At(trialBase + i)
	}
	if err := p.PredictInto(vec, obs[0], obs[1]); err != nil {
		return obs, err
	}
	return obs, nil
}

// Preview describes what Admit would do for a container right now, without
// admitting it: the class Admit would choose against the current free nodes
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
// and returns the choice Admit would make against the current free nodes,
// reserving nothing. The observation draws a deterministic noise stream
// from the workload identity instead of consuming a container ID, so
// previews are repeatable and leave subsequent admissions bit-identical;
// the estimate may therefore differ marginally from the admitted
// container's own observation. Failure modes match Admit.
func (s *Scheduler) Preview(ctx context.Context, w perfsim.Workload, v int) (*Preview, error) {
	p := s.pred(v)
	imps, err := s.model(ctx, v, p)
	if err != nil {
		return nil, err
	}
	// The one read of the free mask. A preview holds no lock, so a commit
	// landing after this load makes the result stale by that one commit,
	// which the contract allows: previews are advisory, Admit re-plans
	// against the live mask and claims it by CAS. Nothing cached depends on
	// the mask except through this value.
	free := topology.NodeSet(s.free.Load())
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
	p := s.pred(v)
	if p == nil {
		return ScoreClass{}, false
	}
	return ScoreClass{Machine: s.fast.fp, Predictor: p, GoalFrac: s.cfg.goalFrac()}, true
}

// ScoreRow returns the score row of (w, v) in class, one this scheduler
// reported: entry n is what Preview answers with n nodes free, so
// row[Free().Len()] is this scheduler's Preview and, by ScoreClass's
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
// set through the scored free-set cache.
func (s *Scheduler) chooseFitting(imps []placement.Important, vec []float64, basePerf, goal float64, free topology.NodeSet) (int, topology.NodeSet, bool) {
	if idx := scanBest(imps, vec, basePerf, goal, free.Len()); idx >= 0 {
		if nodes, ok := s.bestSet(free, imps[idx].Nodes.Len()); ok {
			return idx, nodes, true
		}
	}
	return 0, 0, false
}

// freeUnion returns nodes to the free mask with an atomic union.
func (s *Scheduler) freeUnion(nodes topology.NodeSet) {
	for {
		old := s.free.Load()
		if s.free.CompareAndSwap(old, old|uint64(nodes)) {
			return
		}
	}
}

// Release evicts the container with the given ID and returns its nodes to
// the free pool. Unknown IDs fail with nperr.ErrUnknownContainer.
func (s *Scheduler) Release(ctx context.Context, id int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.structMu.RLock()
	defer s.structMu.RUnlock()
	s.books.Lock()
	t, ok := s.books.tenants[id]
	if !ok {
		s.books.Unlock()
		return fmt.Errorf("sched: releasing container %d: %w", id, nperr.ErrUnknownContainer)
	}
	delete(s.books.tenants, id)
	s.removeLive(id)
	s.books.Unlock()
	s.freeUnion(t.nodes)
	s.fast.putTenant(t)
	return nil
}

// Rebalance re-evaluates every admitted container in admission order
// against the current free nodes: a container moves when its preferred
// class (or a better concrete node set of its current class) became
// available after departures. Each move's migration is simulated with the
// paper's fast mechanism and its cost accumulated in the report.
//
// The pass is deliberately atomic: it holds the scheduler lock end to
// end so admissions never interleave with a half-applied re-packing.
// That is cheap in practice — every tenant's enumeration was already
// resolved at admission (the imps source is cache-warm), and pinning and
// migration simulation are microsecond-scale — but a Place or Release
// issued mid-pass waits for the pass to finish.
//
// On error the report of moves already committed is returned alongside the
// error: those moves mutated the free set and the tenants, and their
// migration seconds were really spent, so callers must not discard the
// partial report.
func (s *Scheduler) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	s.structMu.Lock()
	defer s.structMu.Unlock()
	rep := &RebalanceReport{}
	// The exclusive lock blocks every books mutator, so the sorted live
	// slice is stable for the whole pass and is iterated directly.
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
		avail := topology.NodeSet(s.free.Load()).Union(t.nodes)
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
		res, err := migrate.Run(ctx, prof, migrate.Fast, migrate.Config{})
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
