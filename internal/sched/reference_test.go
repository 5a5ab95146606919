package sched

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/migrate"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/topology"
)

// refScheduler is the test oracle for Scheduler: the serving rule computed
// from scratch on every call, out of the batch policy's primitives alone —
// perfsim.Run in uncached placement.Pin mappings for the two observations,
// rankClasses and bestFreeSet for the choice, predictedPerf,
// admitTrial/previewTrial for the noise streams and migrate.Run for move
// costs. It keeps its own free mask, tenant map and ID counter and shares no
// cache, pool, scanBest or shape table with the Scheduler, so a cache that
// served an inexact answer makes the two disagree. Single-threaded: the parity harness drives it in lockstep.
type refScheduler struct {
	spec    *concern.Spec
	imps    func(ctx context.Context, v int) ([]placement.Important, error)
	pred    func(v int) *core.Predictor
	cfg     ServeConfig
	free    topology.NodeSet
	nextID  int
	tenants map[int]*tenant
}

func newRefScheduler(spec *concern.Spec,
	imps func(ctx context.Context, v int) ([]placement.Important, error),
	pred func(v int) *core.Predictor, cfg ServeConfig) *refScheduler {
	return &refScheduler{
		spec: spec, imps: imps, pred: pred, cfg: cfg,
		free:    topology.FullNodeSet(spec.Machine.Topo.NumNodes),
		tenants: map[int]*tenant{},
	}
}

func (r *refScheduler) FreeNodes() topology.NodeSet { return r.free }

func (r *refScheduler) goal(basePerf float64) float64 {
	return r.cfg.goalFrac() * basePerf * (1 + headroom)
}

// model is the checks Place, Preview and Adopt share, in the Scheduler's
// order and with its error text.
func (r *refScheduler) model(ctx context.Context, v int) ([]placement.Important, *core.Predictor, error) {
	imps, err := r.imps(ctx, v)
	if err != nil {
		return nil, nil, err
	}
	p := r.pred(v)
	if p == nil {
		return nil, nil, fmt.Errorf("sched: no predictor for %d-vCPU containers: %w", v, nperr.ErrUntrained)
	}
	if p.NumPlacements != len(imps) {
		return nil, nil, fmt.Errorf("sched: predictor has %d placements, machine yields %d for %d vCPUs: %w",
			p.NumPlacements, len(imps), v, nperr.ErrMachineMismatch)
	}
	return imps, p, nil
}

// observe runs a v-vCPU container of workload w alone in the predictor's
// Base and Probe placements in turn and predicts its vector.
func (r *refScheduler) observe(w perfsim.Workload, v int, imps []placement.Important, p *core.Predictor, trialBase int) ([2]float64, []float64, error) {
	var obs [2]float64
	for i, pi := range [2]int{p.Base, p.Probe} {
		threads, err := placement.Pin(r.spec, imps[pi].Placement, v)
		if err != nil {
			return obs, nil, err
		}
		if obs[i], err = perfsim.Run(r.spec.Machine, w, threads, trialBase+i); err != nil {
			return obs, nil, err
		}
	}
	vec, err := p.Predict(obs[0], obs[1])
	return obs, vec, err
}

// choose walks the full Step 4 ranking for the first class whose node count
// fits free and scores its free node sets from scratch.
func (r *refScheduler) choose(imps []placement.Important, vec []float64, basePerf, goal float64, free topology.NodeSet) (int, topology.NodeSet, bool) {
	for _, idx := range rankClasses(imps, vec, basePerf, goal) {
		if imps[idx].Nodes.Len() > free.Len() {
			continue
		}
		if nodes, ok := bestFreeSet(r.spec.Machine, free, imps[idx].Nodes.Len()); ok {
			return idx, nodes, true
		}
	}
	return 0, 0, false
}

// rankClasses returns placement-class indices in the Step 4 preference
// order: classes predicted to meet the goal first (fewest nodes, then
// fastest predicted, then lowest index), followed by the goal-missing
// classes by descending predicted performance. It is the sort-based
// statement of the Step 4 rule that scanBest implements in one pass; the
// reference scheduler walks the whole ranking for the first class that
// fits the free nodes.
func rankClasses(imps []placement.Important, vec []float64, basePerf, goal float64) []int {
	type cand struct {
		idx   int
		nodes int
		perf  float64
	}
	cands := make([]cand, 0, len(vec))
	for i, rel := range vec {
		if rel <= 0 {
			continue
		}
		// Vector entries are base/perf: predicted perf = base / entry.
		cands = append(cands, cand{i, imps[i].Nodes.Len(), basePerf / rel})
	}
	meets := func(c cand) bool { return c.perf >= goal }
	sort.Slice(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if meets(ca) != meets(cb) {
			return meets(ca)
		}
		if meets(ca) {
			// Goal-meeting classes: cheapest first, fastest within a
			// node count.
			if ca.nodes != cb.nodes {
				return ca.nodes < cb.nodes
			}
		}
		// Best-effort classes: fastest first regardless of cost.
		if ca.perf != cb.perf {
			return ca.perf > cb.perf
		}
		return ca.idx < cb.idx
	})
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}

func refFull(free, v int) error {
	return fmt.Errorf("sched: %d free nodes cannot host a %d-vCPU container: %w", free, v, nperr.ErrMachineFull)
}

// pin pins container id's v vCPUs to class imp on nodes; a pinning must hold
// one thread per vCPU.
func (r *refScheduler) pin(id int, nodes topology.NodeSet, imp placement.Important, v int) ([]topology.ThreadID, error) {
	threads, err := placement.Pin(r.spec, placement.Placement{Nodes: nodes, PerNodeScores: imp.PerNodeScores}, v)
	if err == nil && len(threads) != v {
		err = fmt.Errorf("sched: container %d: mapping has %d threads, want %d: %w", id, len(threads), v, nperr.ErrMachineMismatch)
	}
	return threads, err
}

// sized is the rule a recorded decision must keep: as many nodes as its
// class has.
func sized(id int, nodes topology.NodeSet, imp placement.Important) error {
	if nodes.Len() != imp.Nodes.Len() {
		return fmt.Errorf("sched: container %d: %d nodes %v for a %d-node class: %w",
			id, nodes.Len(), nodes, imp.Nodes.Len(), nperr.ErrLogCorrupt)
	}
	return nil
}

func (r *refScheduler) Place(ctx context.Context, w perfsim.Workload, v int) (*Assignment, error) {
	imps, p, err := r.model(ctx, v)
	if err != nil {
		return nil, err
	}
	id := r.nextID
	r.nextID++
	obs, vec, err := r.observe(w, v, imps, p, admitTrial(id))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	goal := r.goal(obs[0])
	choice, nodes, ok := r.choose(imps, vec, obs[0], goal, r.free)
	if !ok {
		return nil, refFull(r.free.Len(), v)
	}
	threads, err := r.pin(id, nodes, imps[choice], v)
	if err != nil {
		return nil, err
	}
	r.free = r.free.Minus(nodes)
	t := &tenant{id: id, w: w, vcpus: v, threads: threads,
		class: choice, classID: imps[choice].ID, nodes: nodes,
		basePerf: obs[0], probePerf: obs[1], vec: vec, goal: goal}
	r.tenants[id] = t
	a := r.assignment(t)
	return &a, nil
}

func (r *refScheduler) Preview(ctx context.Context, w perfsim.Workload, v int) (*Preview, error) {
	imps, p, err := r.model(ctx, v)
	if err != nil {
		return nil, err
	}
	obs, vec, err := r.observe(w, v, imps, p, previewTrial(w, v))
	if err != nil {
		return nil, err
	}
	choice, nodes, ok := r.choose(imps, vec, obs[0], r.goal(obs[0]), r.free)
	if !ok {
		return nil, refFull(r.free.Len(), v)
	}
	return &Preview{
		Class: choice, ClassID: imps[choice].ID, Nodes: nodes,
		BasePerf: obs[0], PredictedPerf: predictedPerf(obs[0], vec, choice),
	}, nil
}

func (r *refScheduler) Release(ctx context.Context, id int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("sched: releasing container %d: %w", id, nperr.ErrUnknownContainer)
	}
	delete(r.tenants, id)
	r.free = r.free.Union(t.nodes)
	return nil
}

func (r *refScheduler) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	rep := &RebalanceReport{}
	for _, id := range slices.Sorted(maps.Keys(r.tenants)) {
		t := r.tenants[id]
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Examined++
		imps, err := r.imps(ctx, t.vcpus)
		if err != nil {
			return rep, err
		}
		avail := r.free.Union(t.nodes)
		choice, nodes, ok := r.choose(imps, t.vec, t.basePerf, t.goal, avail)
		if !ok {
			continue
		}
		faster := predictedPerf(t.basePerf, t.vec, choice) > predictedPerf(t.basePerf, t.vec, t.class)
		wider := nodes != t.nodes && choice == t.class &&
			r.spec.Machine.IC.Measure(nodes) > r.spec.Machine.IC.Measure(t.nodes)
		if !faster && !wider {
			continue
		}
		threads, err := r.pin(id, nodes, imps[choice], t.vcpus)
		if err != nil {
			return rep, err
		}
		prof := migrate.ProfileFor(t.w, t.vcpus)
		if nodes == t.nodes {
			prof.AnonGB, prof.PageCacheGB = 0, 0
		}
		res, err := migrate.Run(ctx, prof, migrate.Fast, migrate.Config{})
		if err != nil {
			return rep, err
		}
		rep.Moves = append(rep.Moves, RebalanceMove{
			ID: id, FromClass: t.classID, ToClass: imps[choice].ID,
			FromNodes: t.nodes, ToNodes: nodes, Seconds: res.Seconds,
		})
		rep.TotalSeconds += res.Seconds
		r.free = avail.Minus(nodes)
		t.threads, t.class, t.classID, t.nodes = threads, choice, imps[choice].ID, nodes
	}
	return rep, nil
}

func (r *refScheduler) Adopt(ctx context.Context, rec Restore) (*Assignment, error) {
	imps, p, err := r.model(ctx, rec.VCPUs)
	if err != nil {
		return nil, err
	}
	choice := slices.IndexFunc(imps, func(imp placement.Important) bool { return imp.ID == rec.ClassID })
	if choice < 0 {
		return nil, fmt.Errorf("sched: adopting container %d: class %d not in the %d-vCPU enumeration: %w",
			rec.ID, rec.ClassID, rec.VCPUs, nperr.ErrLogCorrupt)
	}
	vec, err := p.Predict(rec.BasePerf, rec.ProbePerf)
	if err != nil {
		return nil, fmt.Errorf("sched: adopting container %d: %w", rec.ID, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, exists := r.tenants[rec.ID]; exists {
		return nil, fmt.Errorf("sched: adopting container %d: ID already admitted: %w", rec.ID, nperr.ErrLogCorrupt)
	}
	if rec.Nodes.Minus(r.free) != 0 {
		return nil, fmt.Errorf("sched: adopting container %d: nodes %v not free: %w", rec.ID, rec.Nodes, nperr.ErrLogCorrupt)
	}
	if err := sized(rec.ID, rec.Nodes, imps[choice]); err != nil {
		return nil, err
	}
	threads, err := r.pin(rec.ID, rec.Nodes, imps[choice], rec.VCPUs)
	if err != nil {
		return nil, err
	}
	r.free = r.free.Minus(rec.Nodes)
	t := &tenant{id: rec.ID, w: rec.Workload, vcpus: rec.VCPUs, threads: threads,
		class: choice, classID: rec.ClassID, nodes: rec.Nodes, basePerf: rec.BasePerf, probePerf: rec.ProbePerf, vec: vec, goal: r.goal(rec.BasePerf)}
	r.tenants[rec.ID] = t
	r.nextID = max(r.nextID, rec.ID+1)
	a := r.assignment(t)
	return &a, nil
}

func (r *refScheduler) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	t, ok := r.tenants[id]
	if !ok {
		return fmt.Errorf("sched: applying move of container %d: %w", id, nperr.ErrUnknownContainer)
	}
	imps, err := r.imps(ctx, t.vcpus)
	if err != nil {
		return err
	}
	choice := slices.IndexFunc(imps, func(imp placement.Important) bool { return imp.ID == classID })
	if choice < 0 {
		return fmt.Errorf("sched: applying move of container %d: class %d not in the %d-vCPU enumeration: %w",
			id, classID, t.vcpus, nperr.ErrLogCorrupt)
	}
	avail := r.free.Union(t.nodes)
	if nodes.Minus(avail) != 0 {
		return fmt.Errorf("sched: applying move of container %d: nodes %v not free: %w", id, nodes, nperr.ErrLogCorrupt)
	}
	if err := sized(id, nodes, imps[choice]); err != nil {
		return err
	}
	threads, err := r.pin(id, nodes, imps[choice], t.vcpus)
	if err != nil {
		return err
	}
	r.free = avail.Minus(nodes)
	t.threads, t.class, t.classID, t.nodes = threads, choice, classID, nodes
	return nil
}

// Assignments returns every tenant's assignment in ascending ID order.
func (r *refScheduler) Assignments() []Assignment {
	out := make([]Assignment, 0, len(r.tenants))
	for _, id := range slices.Sorted(maps.Keys(r.tenants)) {
		out = append(out, r.assignment(r.tenants[id]))
	}
	return out
}

func (r *refScheduler) assignment(t *tenant) Assignment {
	return Assignment{
		ID: t.id, Workload: t.w.Name, VCPUs: t.vcpus,
		Class: t.classID, Nodes: t.nodes, Threads: t.threads,
		BasePerf: t.basePerf, PredictedPerf: predictedPerf(t.basePerf, t.vec, t.class),
		ProbePerf: t.probePerf,
	}
}
