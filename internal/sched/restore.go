// Replay primitives for durable recovery: Adopt and ApplyMove install
// state the scheduler once committed — recorded by the fleet's write-ahead
// log — without re-running admission's observation phase. Observation
// noise streams are keyed by engine-local container IDs, and failed
// admissions consume IDs, so re-executing Place against a recovered log
// would draw different streams and diverge; adoption instead replays the
// committed decision (class, nodes, both model inputs) and recomputes the
// derived artifacts (prediction vector, goal, thread pinning), all of
// which are deterministic functions of the recorded values. A tenant
// adopted from an admission record is therefore bit-identical to the
// tenant the original Place produced — same Assignment, same rebalancing
// behavior afterwards.
package sched

import (
	"context"
	"fmt"

	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/topology"
)

// Restore is one committed admission as recorded at its commit point:
// the identity Place reserved, the class and concrete nodes it chose, and
// the two observations the model consumed. Everything else an admitted
// tenant carries is recomputed deterministically from these.
type Restore struct {
	// ID is the engine-local container ID the original admission reserved.
	ID       int
	Workload perfsim.Workload
	VCPUs    int
	// ClassID is the 1-based important-placement ID of the chosen class
	// (Assignment.Class).
	ClassID int
	// Nodes is the concrete node set the container was pinned to.
	Nodes topology.NodeSet
	// BasePerf and ProbePerf are the admission's two observations (the
	// model inputs).
	BasePerf, ProbePerf float64
}

// Verdict is all Adopt's checks beyond its books depend on, so a restart's
// ledgers (internal/fleet) ask an engine once per Verdict. A NaN
// observation, which Adopt takes, is not a bad one.
type Verdict struct {
	VCPUs, ClassID    int
	Nodes             topology.NodeSet
	BadBase, BadProbe bool
}

// Verdict is r's key to Adopt's verdict.
func (r *Restore) Verdict() Verdict {
	return Verdict{VCPUs: r.VCPUs, ClassID: r.ClassID, Nodes: r.Nodes,
		BadBase: r.BasePerf <= 0, BadProbe: r.ProbePerf <= 0}
}

// classIndex resolves a recorded 1-based important-placement ID to its
// index in the enumeration for one container size.
func classIndex(imps []placement.Important, classID int) (int, bool) {
	for i := range imps {
		if imps[i].ID == classID {
			return i, true
		}
	}
	return 0, false
}

// Adopt installs one previously committed admission: a Place whose decision
// is given. The recorded class and nodes are taken as decided, the
// prediction vector is recomputed from the recorded observations, and the
// container is installed exactly as Place would have installed it. The free
// set shrinks by r.Nodes and nextID advances past r.ID so post-recovery
// admissions never reuse a logged identity. Records inconsistent with the
// machine — unknown class, nodes of another count than the class's, nodes
// already allocated, duplicate ID — fail with nperr.ErrLogCorrupt; a missing
// predictor fails with nperr.ErrUntrained like Place, an observation <= 0
// with nperr.ErrBadObservation. Beyond the books (the ID and the free
// nodes), whether Adopt takes r depends only on r.Verdict() — never on the
// workload, the ID or an observation's value: a restart's ledgers
// (internal/fleet) take a Verdict Adopt accepted once as accepted
// (TestAdoptVerdictIsTheTuple). A new check must keep to those inputs or add
// its own to Verdict.
func (s *Scheduler) Adopt(ctx context.Context, r Restore) (_ *Assignment, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.predictor(r.VCPUs)
	imps, err := s.model(ctx, r.VCPUs, p)
	if err != nil {
		return nil, err
	}
	choice, ok := classIndex(imps, r.ClassID)
	if !ok {
		return nil, fmt.Errorf("sched: adopting container %d: class %d not in the %d-vCPU enumeration: %w",
			r.ID, r.ClassID, r.VCPUs, nperr.ErrLogCorrupt)
	}
	// The tenant and its prediction vector come from the pool Place and
	// Release share, so a replay's place/release pairs recycle one tenant;
	// a record refused from here on hands it straight back.
	t := s.fast.getTenant(p.NumPlacements)
	defer func() {
		if err != nil {
			s.fast.putTenant(t)
		}
	}()
	t.id, t.w, t.vcpus = r.ID, r.Workload, r.VCPUs
	t.basePerf, t.probePerf, t.goal = r.BasePerf, r.ProbePerf, s.goal(r.BasePerf)
	if err := p.PredictInto(t.vec, r.BasePerf, r.ProbePerf); err != nil {
		return nil, fmt.Errorf("sched: adopting container %d: %w", r.ID, err)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if _, exists := s.books.tenants[r.ID]; exists {
		return nil, fmt.Errorf("sched: adopting container %d: ID already admitted: %w", r.ID, nperr.ErrLogCorrupt)
	}
	if r.Nodes.Minus(s.FreeNodes()) != 0 {
		return nil, fmt.Errorf("sched: adopting container %d: nodes %v not free: %w", r.ID, r.Nodes, nperr.ErrLogCorrupt)
	}
	a := new(Assignment)
	if err := s.install(ctx, t, imps, choice, r.Nodes, a); err != nil {
		return nil, err
	}
	// Advance the ID allocator past every adopted identity.
	s.nextID = max(s.nextID, r.ID+1)
	return a, nil
}

// ApplyMove re-pins an admitted container to a previously committed
// intra-machine rebalance decision: the recorded destination class and
// node set are installed without re-running the move search or the
// migration simulation (the cost was recorded at commit time). Unknown
// IDs fail with nperr.ErrUnknownContainer; a class or node set
// inconsistent with the machine fails with nperr.ErrLogCorrupt.
func (s *Scheduler) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	t, ok := s.books.tenants[id]
	if !ok {
		return fmt.Errorf("sched: applying move of container %d: %w", id, nperr.ErrUnknownContainer)
	}
	imps, err := s.imps(ctx, t.vcpus)
	if err != nil {
		return err
	}
	choice, ok := classIndex(imps, classID)
	if !ok {
		return fmt.Errorf("sched: applying move of container %d: class %d not in the %d-vCPU enumeration: %w",
			id, classID, t.vcpus, nperr.ErrLogCorrupt)
	}
	avail := s.FreeNodes().Union(t.nodes)
	if nodes.Minus(avail) != 0 {
		return fmt.Errorf("sched: applying move of container %d: nodes %v not free: %w", id, nodes, nperr.ErrLogCorrupt)
	}
	return s.repin(ctx, t, imps, choice, nodes, avail)
}
