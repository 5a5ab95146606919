// Package sched implements the container placement policies compared in
// the paper's §7 use case (Figure 5): the model-driven ML policy plus the
// Conservative, Aggressive and Smart-Aggressive baselines, and the packing
// experiment that measures instances-per-machine and performance-goal
// violations.
package sched

import (
	"context"
	"fmt"
	"math"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// PolicyKind names the four policies of Figure 5.
type PolicyKind int

const (
	// ML places each instance using the trained predictor: observe the
	// container in two placements, predict the full vector, and use the
	// fewest NUMA nodes that still meet the performance goal.
	ML PolicyKind = iota
	// Conservative allocates the entire machine to a single instance,
	// unpinned (Linux maps the vCPUs).
	Conservative
	// Aggressive packs the maximum number of instances, unpinned.
	Aggressive
	// SmartAggressive packs the maximum number of instances, each pinned
	// to the best minimum node set (highest interconnect bandwidth).
	SmartAggressive
)

func (k PolicyKind) String() string {
	switch k {
	case ML:
		return "ML"
	case Conservative:
		return "Conservative"
	case Aggressive:
		return "Aggressive"
	case SmartAggressive:
		return "Aggressive (Smart)"
	default:
		return fmt.Sprintf("policy(%d)", int(k))
	}
}

// Result is the outcome of packing one machine with one container type
// under one policy (one bar + star pair in Figure 5).
type Result struct {
	Policy    PolicyKind
	Goal      float64 // absolute throughput target per instance
	GoalFrac  float64 // goal as a fraction of baseline performance
	Instances int
	// ViolationPct is the mean shortfall below the goal across instances
	// and trials, as a percentage of the goal (0 = goal always met).
	ViolationPct float64
	// PerInstance holds the mean achieved throughput per instance.
	PerInstance []float64
}

// Experiment is a configured packing experiment for one machine and
// container type.
type Experiment struct {
	Machine    machines.Machine
	Spec       *concern.Spec
	V          int
	Workload   perfsim.Workload
	Placements []placement.Important
	Predictor  *core.Predictor

	// Trials is the number of noisy repetitions averaged (default 5).
	Trials int
	// Seed drives the simulated Linux mappings.
	Seed uint64
	// Headroom is the safety margin the ML policy demands above the goal
	// (default 0.12): predictions assume exclusive nodes, so the margin
	// absorbs measurement noise and cross-tenant interconnect sharing.
	Headroom float64
}

// NewExperiment validates and builds an experiment.
func NewExperiment(m machines.Machine, w perfsim.Workload, v int, pred *core.Predictor) (*Experiment, error) {
	spec := concern.FromMachine(m)
	imps, err := placement.Enumerate(spec, v)
	if err != nil {
		return nil, err
	}
	return NewExperimentPrepared(spec, imps, w, v, pred)
}

// NewExperimentPrepared builds an experiment from an already-derived
// concern spec and important-placement enumeration (e.g. a serving engine's
// memoized artifacts); spec and imps must belong together.
func NewExperimentPrepared(spec *concern.Spec, imps []placement.Important, w perfsim.Workload, v int, pred *core.Predictor) (*Experiment, error) {
	if pred != nil && pred.NumPlacements != len(imps) {
		return nil, fmt.Errorf("sched: predictor has %d placements, machine yields %d: %w",
			pred.NumPlacements, len(imps), nperr.ErrMachineMismatch)
	}
	// The packing loops predict per admitted instance; build the interval
	// table up front so the first admission doesn't pay the lazy build.
	pred.Warm()
	return &Experiment{
		Machine: spec.Machine, Spec: spec, V: v, Workload: w,
		Placements: imps, Predictor: pred,
		Trials: 5, Seed: 1, Headroom: 0.12,
	}, nil
}

// BaselinePerf returns the throughput of one instance alone in the
// predictor's baseline placement — the reference for the §7 performance
// goals ("90%, 100% and 110% of the performance observed in the baseline
// placement").
func (e *Experiment) BaselinePerf() (float64, error) {
	base := 0
	if e.Predictor != nil {
		base = e.Predictor.Base
	}
	threads, err := placement.Pin(e.Spec, e.Placements[base].Placement, e.V)
	if err != nil {
		return 0, err
	}
	var sum float64
	for trial := 0; trial < e.trials(); trial++ {
		p, err := perfsim.Run(e.Machine, e.Workload, threads, trial)
		if err != nil {
			return 0, err
		}
		sum += p
	}
	return sum / float64(e.trials()), nil
}

func (e *Experiment) trials() int {
	if e.Trials <= 0 {
		return 5
	}
	return e.Trials
}

// Run packs the machine under the given policy with the goal expressed as
// a fraction of baseline performance and returns the Figure 5 metrics.
func (e *Experiment) Run(kind PolicyKind, goalFrac float64) (*Result, error) {
	return e.RunCtx(context.Background(), kind, goalFrac)
}

// RunCtx is Run with cancellation: the context is checked before the
// packing phase and before every noisy trial.
func (e *Experiment) RunCtx(ctx context.Context, kind PolicyKind, goalFrac float64) (*Result, error) {
	basePerf, err := e.BaselinePerf()
	if err != nil {
		return nil, err
	}
	goal := goalFrac * basePerf

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var tenantsFn func(trial int) ([]perfsim.Tenant, error)
	switch kind {
	case ML:
		tenants, err := e.placeML(goal)
		if err != nil {
			return nil, err
		}
		tenantsFn = func(int) ([]perfsim.Tenant, error) { return tenants, nil }
	case Conservative:
		tenantsFn = func(trial int) ([]perfsim.Tenant, error) {
			rng := xrand.New(xrand.Mix(e.Seed, uint64(trial), 0xC095))
			threads := perfsim.LinuxMap(e.Machine, e.V, nil, rng)
			if threads == nil {
				return nil, fmt.Errorf("sched: machine cannot host one instance: %w", nperr.ErrMachineFull)
			}
			return []perfsim.Tenant{{W: e.Workload, Threads: threads}}, nil
		}
	case Aggressive:
		tenantsFn = func(trial int) ([]perfsim.Tenant, error) {
			return e.placeAggressive(trial)
		}
	case SmartAggressive:
		tenants, err := e.placeSmartAggressive()
		if err != nil {
			return nil, err
		}
		tenantsFn = func(int) ([]perfsim.Tenant, error) { return tenants, nil }
	default:
		//numalint:ignore sentinelwrap experiment-config validation; policies are compile-time constants, not wire input
		return nil, fmt.Errorf("sched: unknown policy %v", kind)
	}

	// Average violations over noisy trials (and re-drawn Linux mappings
	// for the unpinned policies).
	var instances int
	var perInstance []float64
	var violationSum float64
	violations := 0
	for trial := 0; trial < e.trials(); trial++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tenants, err := tenantsFn(trial)
		if err != nil {
			return nil, err
		}
		perfs, err := perfsim.SimulateShared(e.Machine, tenants, trial)
		if err != nil {
			return nil, err
		}
		if perInstance == nil {
			perInstance = make([]float64, len(tenants))
			instances = len(tenants)
		}
		for i, p := range perfs {
			perInstance[i] += p / float64(e.trials())
			violationSum += math.Max(0, (goal-p)/goal*100)
			violations++
		}
	}
	return &Result{
		Policy: kind, Goal: goal, GoalFrac: goalFrac,
		Instances:    instances,
		ViolationPct: violationSum / float64(violations),
		PerInstance:  perInstance,
	}, nil
}

// placeML implements the paper's Step 4 for each instance in turn: observe
// the container in the predictor's two input placements, predict the
// vector, pick the cheapest (fewest-node) placement whose predicted
// throughput still meets the goal, and pin the instance to the best
// remaining concrete node set of that class. Packing stops when the free
// nodes cannot host another instance in its chosen class.
func (e *Experiment) placeML(goal float64) ([]perfsim.Tenant, error) {
	if e.Predictor == nil {
		return nil, fmt.Errorf("sched: ML policy requires a predictor: %w", nperr.ErrUntrained)
	}
	free := topology.FullNodeSet(e.Machine.Topo.NumNodes)
	var tenants []perfsim.Tenant
	// One prediction buffer serves the whole packing loop: PredictInto is
	// allocation-free and choosePlacement only reads the vector.
	vec := make([]float64, e.Predictor.NumPlacements)
	for id := 0; ; id++ {
		// Observe in the two input placements (measured alone; the paper
		// measures in place during the first seconds of execution).
		basePerf, probePerf, err := e.observePair(id)
		if err != nil {
			return nil, err
		}
		if err := e.Predictor.PredictInto(vec, basePerf, probePerf); err != nil {
			return nil, err
		}
		choice := e.choosePlacement(vec, basePerf, goal*(1+e.Headroom))
		nodes, ok := bestFreeSet(e.Machine, free, e.Placements[choice].Nodes.Len())
		if !ok {
			break // machine full for this class
		}
		threads, err := placement.Pin(e.Spec, placement.Placement{
			Nodes:         nodes,
			PerNodeScores: e.Placements[choice].PerNodeScores,
		}, e.V)
		if err != nil {
			return nil, err
		}
		free = free.Minus(nodes)
		tenants = append(tenants, perfsim.Tenant{W: e.Workload, Threads: threads})
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("sched: ML placed no instances: %w", nperr.ErrMachineFull)
	}
	return tenants, nil
}

// observePair measures instance id alone in the predictor's Base and Probe
// placements.
func (e *Experiment) observePair(id int) (float64, float64, error) {
	var out [2]float64
	for i, pi := range []int{e.Predictor.Base, e.Predictor.Probe} {
		threads, err := placement.Pin(e.Spec, e.Placements[pi].Placement, e.V)
		if err != nil {
			return 0, 0, err
		}
		perf, err := perfsim.Run(e.Machine, e.Workload, threads, id*2+i)
		if err != nil {
			return 0, 0, err
		}
		out[i] = perf
	}
	return out[0], out[1], nil
}

// choosePlacement returns the index of the cheapest placement predicted to
// meet the goal; if none does, the fastest predicted placement: the paper's
// Step 4 rule, the one the serving scheduler scans for (scanBest), with
// every class fitting the empty machine.
func (e *Experiment) choosePlacement(vec []float64, basePerf, goal float64) int {
	return scanBest(e.Placements, vec, basePerf, goal, e.Machine.Topo.NumNodes)
}

// placeAggressive fills the machine with unpinned instances.
func (e *Experiment) placeAggressive(trial int) ([]perfsim.Tenant, error) {
	rng := xrand.New(xrand.Mix(e.Seed, uint64(trial), 0xA99))
	busy := map[topology.ThreadID]bool{}
	var tenants []perfsim.Tenant
	max := e.Machine.Topo.TotalThreads() / e.V
	for i := 0; i < max; i++ {
		threads := perfsim.LinuxMap(e.Machine, e.V, busy, rng)
		if threads == nil {
			break
		}
		for _, id := range threads {
			busy[id] = true
		}
		tenants = append(tenants, perfsim.Tenant{W: e.Workload, Threads: threads})
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("sched: aggressive placed no instances: %w", nperr.ErrMachineFull)
	}
	return tenants, nil
}

// placeSmartAggressive pins the maximum number of instances, each to the
// best remaining minimum node set ("the best minimum set of nodes, which
// we define as having the highest interconnect bandwidth", §7).
func (e *Experiment) placeSmartAggressive() ([]perfsim.Tenant, error) {
	topo := e.Machine.Topo
	minNodes := (e.V + topo.ThreadsPerNode() - 1) / topo.ThreadsPerNode()
	// The minimum node set forces the densest L2/SMT sharing available.
	l2Score := -1
	for _, p := range e.Placements {
		if p.Nodes.Len() == minNodes {
			if l2Score == -1 || p.PerNodeScores[0] < l2Score {
				l2Score = p.PerNodeScores[0]
			}
		}
	}
	if l2Score == -1 {
		return nil, fmt.Errorf("sched: no %d-node placement class exists: %w", minNodes, nperr.ErrInfeasible)
	}
	free := topology.FullNodeSet(topo.NumNodes)
	var tenants []perfsim.Tenant
	for {
		nodes, ok := bestFreeSet(e.Machine, free, minNodes)
		if !ok {
			break
		}
		threads, err := placement.Pin(e.Spec, placement.Placement{
			Nodes:         nodes,
			PerNodeScores: []int{l2Score},
		}, e.V)
		if err != nil {
			return nil, err
		}
		free = free.Minus(nodes)
		tenants = append(tenants, perfsim.Tenant{W: e.Workload, Threads: threads})
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("sched: smart-aggressive placed no instances: %w", nperr.ErrMachineFull)
	}
	return tenants, nil
}

// bestFreeSet returns the size-node subset of free with the highest
// measured interconnect bandwidth.
func bestFreeSet(m machines.Machine, free topology.NodeSet, size int) (topology.NodeSet, bool) {
	if free.Len() < size {
		return 0, false
	}
	var best topology.NodeSet
	bestBW := int64(-1)
	free.Subsets(size, func(s topology.NodeSet) {
		if bw := m.IC.Measure(s); bw > bestBW {
			best, bestBW = s, bw
		}
	})
	return best, true
}
