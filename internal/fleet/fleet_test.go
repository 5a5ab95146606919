package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/machines"
	"repro/internal/migrate"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// stubBackend is a minimal Backend: every admission consumes one NUMA
// node, previews report a fixed predicted performance, and failures are
// injectable. It lets the routing/consolidation logic be tested exactly,
// without training real predictors (cluster_test.go at the repo root
// integrates the fleet with real Engines). Its classes are its node counts:
// class c takes c nodes, and an admission takes class 1.
type stubBackend struct {
	m    machines.Machine
	perf float64 // preview PredictedPerf

	mu         sync.Mutex
	nextID     int
	adopts     int // Adopt calls, refused ones included
	free       topology.NodeSet
	tenants    map[int]sched.Assignment
	placeErr   error // injected Place failure
	previewErr error // injected Preview failure
	releaseErr error // injected Release failure
	// onAssignment, when set, runs at the start of the next Assignment call
	// (once), outside the stub's lock.
	onAssignment func()
	// onPlace, when set, runs at the start of every Place call, outside the
	// stub's lock.
	onPlace func()
	// onCall, when set, runs after each Adopt (adopt true) and Release the
	// stub takes, with the engine ID, under the stub's lock.
	onCall func(adopt bool, id int)
}

func newStub(m machines.Machine, perf float64) *stubBackend {
	return &stubBackend{
		m: m, perf: perf,
		free:    topology.FullNodeSet(m.Topo.NumNodes),
		tenants: map[int]sched.Assignment{},
	}
}

func (s *stubBackend) Machine() machines.Machine { return s.m }

func (s *stubBackend) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	if s.previewErr != nil {
		return nil, s.previewErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free.Empty() {
		return nil, nperr.ErrMachineFull
	}
	return &sched.Preview{PredictedPerf: s.perf, BasePerf: s.perf, Nodes: topology.NewNodeSet(s.free.Lowest())}, nil
}

func (s *stubBackend) Place(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Assignment, error) {
	a := new(sched.Assignment)
	if err := s.placeInto(w, vcpus, a); err != nil {
		return nil, err
	}
	return a, nil
}

// placeInto is Place writing the assignment to *dst, which a refusal leaves
// as it was.
func (s *stubBackend) placeInto(w perfsim.Workload, vcpus int, dst *sched.Assignment) error {
	if s.onPlace != nil {
		s.onPlace()
	}
	if s.placeErr != nil {
		return s.placeErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free.Empty() {
		return nperr.ErrMachineFull
	}
	node := s.free.Lowest()
	s.free = s.free.Remove(node)
	a := sched.Assignment{
		ID: s.nextID, Workload: w.Name, VCPUs: vcpus, Class: 1,
		Nodes: topology.NewNodeSet(node), BasePerf: 1, ProbePerf: 1, PredictedPerf: s.perf,
	}
	s.nextID++
	s.tenants[a.ID] = a
	*dst = a
	return nil
}

// placerStub is a stubBackend with the PlacerInto capability, as an Engine
// has it: the fleet admits through it into its own slot.
type placerStub struct{ *stubBackend }

func (s placerStub) PlaceInto(ctx context.Context, w perfsim.Workload, vcpus int, dst *sched.Assignment) error {
	return s.placeInto(w, vcpus, dst)
}

func (s *stubBackend) Release(ctx context.Context, id int) error {
	if s.releaseErr != nil {
		return s.releaseErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tenants[id]
	if !ok {
		return nperr.ErrUnknownContainer
	}
	s.free = s.free.Union(a.Nodes)
	delete(s.tenants, id)
	if s.onCall != nil {
		s.onCall(false, id)
	}
	return nil
}

func (s *stubBackend) Rebalance(ctx context.Context) (*sched.RebalanceReport, error) {
	return &sched.RebalanceReport{}, nil
}

func (s *stubBackend) Assignments() []sched.Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sched.Assignment, 0, len(s.tenants))
	for _, a := range s.tenants {
		out = append(out, a)
	}
	return out
}

func (s *stubBackend) Assignment(id int) (sched.Assignment, bool) {
	if hook := s.onAssignment; hook != nil {
		s.onAssignment = nil
		hook()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tenants[id]
	return a, ok
}

func (s *stubBackend) FreeNodes() topology.NodeSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free
}

// Adopt installs a recorded admission verbatim: the stub has no model to
// recompute from, so the assignment is reconstructed from the record (the
// shape replay relies on — Adopt must land exactly what was logged). It
// refuses what sched.Scheduler.Adopt refuses, in its order: a class outside
// the stub's and non-positive observations before its books, a node count
// other than the class's after them.
func (s *stubBackend) Adopt(ctx context.Context, r sched.Restore) (*sched.Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.adopts++
	if err := s.checkClass(r.ClassID); err != nil {
		return nil, fmt.Errorf("stub: adopting container %d: %w", r.ID, err)
	}
	if r.BasePerf <= 0 || r.ProbePerf <= 0 {
		return nil, fmt.Errorf("stub: adopting container %d: observations %v, %v: %w", r.ID, r.BasePerf, r.ProbePerf, nperr.ErrBadObservation)
	}
	if _, dup := s.tenants[r.ID]; dup {
		return nil, fmt.Errorf("stub: adopting container %d: ID already admitted: %w", r.ID, nperr.ErrLogCorrupt)
	}
	if r.Nodes.Minus(s.free) != 0 {
		return nil, fmt.Errorf("stub: adopting container %d: nodes not free: %w", r.ID, nperr.ErrLogCorrupt)
	}
	if r.Nodes.Len() != r.ClassID {
		return nil, fmt.Errorf("stub: adopting container %d: %d nodes for class %d: %w", r.ID, r.Nodes.Len(), r.ClassID, nperr.ErrLogCorrupt)
	}
	s.free = s.free.Minus(r.Nodes)
	a := sched.Assignment{
		ID: r.ID, Workload: r.Workload.Name, VCPUs: r.VCPUs, Class: r.ClassID,
		Nodes: r.Nodes, BasePerf: r.BasePerf, ProbePerf: r.ProbePerf,
		PredictedPerf: s.perf,
	}
	s.tenants[r.ID] = a
	if r.ID >= s.nextID {
		s.nextID = r.ID + 1
	}
	if s.onCall != nil {
		s.onCall(true, r.ID)
	}
	return &a, nil
}

func (s *stubBackend) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tenants[id]
	if !ok {
		return nperr.ErrUnknownContainer
	}
	if err := s.checkClass(classID); err != nil {
		return fmt.Errorf("stub: applying move of container %d: %w", id, err)
	}
	avail := s.free.Union(a.Nodes)
	if nodes.Minus(avail) != 0 {
		return fmt.Errorf("stub: applying move of container %d: nodes not free: %w", id, nperr.ErrLogCorrupt)
	}
	if nodes.Len() != classID {
		return fmt.Errorf("stub: applying move of container %d: %d nodes for class %d: %w", id, nodes.Len(), classID, nperr.ErrLogCorrupt)
	}
	s.free = avail.Minus(nodes)
	a.Class, a.Nodes = classID, nodes
	s.tenants[id] = a
	return nil
}

// checkClass refuses a class the stub does not have. Callers hold s.mu.
func (s *stubBackend) checkClass(class int) error {
	if class < 1 || class > s.m.Topo.NumNodes {
		return fmt.Errorf("class %d not among the stub's 1..%d: %w", class, s.m.Topo.NumNodes, nperr.ErrLogCorrupt)
	}
	return nil
}

func testWorkload(t testing.TB, name string) perfsim.Workload {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w
}

// TestPlaceAdmitsUnderTheFleetLock: an admission's backend call, its commit
// and its record are one Fleet.mu hold, so the lock is taken whenever a
// backend admits — the first candidate, and one tried after a rejection.
func TestPlaceAdmitsUnderTheFleetLock(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: FirstFit})
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	calls, free := 0, 0
	onPlace := func() {
		calls++
		if f.mu.TryLock() {
			free++
			f.mu.Unlock()
		}
	}
	a.onPlace, b.onPlace = onPlace, onPlace
	if err := errors.Join(f.Add("a", a), f.Add("b", b)); err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t, "swaptions")
	if _, err := f.Place(ctx, w, 4); err != nil {
		t.Fatal(err)
	}
	a.placeErr = nperr.ErrMachineFull
	if adm, err := f.Place(ctx, w, 4); err != nil || adm.Backend != "b" {
		t.Fatalf("with a refusing, admitted %+v, %v; want b", adm, err)
	}
	if calls != 3 || free != 0 {
		t.Fatalf("%d backend admissions, %d of them with Fleet.mu free; want 3, none", calls, free)
	}
}

func TestFleetFirstFitOrder(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: FirstFit})
	a, b := newStub(machines.AMD(), 1), newStub(machines.Intel(), 2)
	if err := f.Add("a", a); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("b", b); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("a", b); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	w := testWorkload(t, "swaptions")

	adm, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Backend != "a" || adm.ID != 0 {
		t.Fatalf("first-fit admitted on %s (fleet ID %d), want a/0", adm.Backend, adm.ID)
	}
	// Fill a; the next admission falls through to b.
	a.mu.Lock()
	a.free = 0
	a.mu.Unlock()
	adm2, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm2.Backend != "b" {
		t.Fatalf("admitted on %s with a full, want b", adm2.Backend)
	}
	// Both full: typed fleet rejection carrying the machine-full cause.
	b.mu.Lock()
	b.free = 0
	b.mu.Unlock()
	_, err = f.Place(ctx, w, 4)
	if !errors.Is(err, nperr.ErrFleetFull) || !errors.Is(err, nperr.ErrMachineFull) {
		t.Fatalf("fleet-full err = %v, want ErrFleetFull wrapping ErrMachineFull", err)
	}
	st := f.Stats()
	if st.Admitted != 2 || st.Rejected != 1 || st.Tenants != 2 {
		t.Fatalf("stats = %+v, want 2 admitted / 1 rejected / 2 tenants", st)
	}
	// Cancellation is the caller giving up, never a capacity rejection.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := f.Place(cctx, w, 4); !errors.Is(err, context.Canceled) || errors.Is(err, nperr.ErrFleetFull) {
		t.Fatalf("cancelled Place err = %v, want context.Canceled without ErrFleetFull", err)
	}
	if got := f.Stats().Rejected; got != 1 {
		t.Fatalf("cancelled Place counted as rejection (rejected = %d)", got)
	}
}

func TestFleetLeastLoadedRouting(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: LeastLoaded})
	// Same node count so utilization comparisons are transparent.
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a)
	f.Add("b", b)
	w := testWorkload(t, "swaptions")

	// Tie: add order wins.
	adm, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Backend != "a" {
		t.Fatalf("tie-break admitted on %s, want a", adm.Backend)
	}
	// a now busier: next goes to b, then the tie repeats on a.
	for _, want := range []string{"b", "a", "b"} {
		adm, err := f.Place(ctx, w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if adm.Backend != want {
			t.Fatalf("least-loaded admitted on %s, want %s", adm.Backend, want)
		}
	}
}

func TestFleetBestPredictedRouting(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: BestPredicted})
	slow, fast := newStub(machines.AMD(), 10), newStub(machines.Intel(), 20)
	f.Add("slow", slow)
	f.Add("fast", fast)
	w := testWorkload(t, "swaptions")

	adm, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Backend != "fast" {
		t.Fatalf("best-predicted admitted on %s, want fast", adm.Backend)
	}
	// A failing preview excludes the machine; routing falls to the other.
	fast.previewErr = errors.New("predictor offline")
	adm2, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm2.Backend != "slow" {
		t.Fatalf("admitted on %s with fast's preview failing, want slow", adm2.Backend)
	}
	// Preview ok but Place failing: ranking falls through too.
	fast.previewErr = nil
	fast.placeErr = errors.New("machine rebooting")
	adm3, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm3.Backend != "slow" {
		t.Fatalf("admitted on %s with fast's Place failing, want slow", adm3.Backend)
	}
}

// TestFullFleetIsNotUnhealthy: a fleet whose machines all take admissions but
// none fits the container is full, under every policy — best-predicted
// routing tries none of them, and that is no health verdict — so Place
// refuses with ErrFleetFull alone. Only a fleet none of whose machines takes
// admissions (all suspect, or all draining) adds ErrNoHealthyBackend, which
// callers back off on.
func TestFullFleetIsNotUnhealthy(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "swaptions")
	names := []string{"a", "b"}
	build := func(t *testing.T, p Policy) *Fleet {
		t.Helper()
		f := New(Config{Policy: p})
		for _, name := range names {
			if err := f.Add(name, newStub(machines.Intel(), 1)); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	refuse := func(t *testing.T, f *Fleet, unhealthy bool) {
		t.Helper()
		_, err := f.Place(ctx, w, 4)
		if !errors.Is(err, nperr.ErrFleetFull) || errors.Is(err, nperr.ErrNoHealthyBackend) != unhealthy {
			t.Fatalf("refusal %v: want ErrFleetFull, ErrNoHealthyBackend %v", err, unhealthy)
		}
	}
	for _, p := range []Policy{FirstFit, LeastLoaded, BestPredicted} {
		t.Run(p.String(), func(t *testing.T) {
			full := build(t, p)
			for i := 0; i < 2*machines.Intel().Topo.NumNodes; i++ {
				if _, err := full.Place(ctx, w, 4); err != nil {
					t.Fatalf("place %d: %v", i, err)
				}
			}
			refuse(t, full, false)

			suspect := build(t, p)
			for _, name := range names {
				for i := 0; i < 2; i++ {
					if _, _, err := suspect.MissProbe(ctx, name); err != nil {
						t.Fatal(err)
					}
				}
			}
			refuse(t, suspect, true)

			draining := build(t, p)
			for _, name := range names {
				if _, err := draining.Drain(ctx, name); err != nil {
					t.Fatal(err)
				}
			}
			refuse(t, draining, true)
		})
	}
}

// TestNonPositiveVCPUsAreInfeasible: a container of 0 or fewer vCPUs is no
// placement request at all, under every policy: Place refuses it with
// ErrInfeasible, not as a full fleet, and commits no record and counts no
// rejection.
func TestNonPositiveVCPUsAreInfeasible(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "gcc")
	for _, p := range []Policy{FirstFit, LeastLoaded, BestPredicted} {
		t.Run(p.String(), func(t *testing.T) {
			f := New(Config{Policy: p})
			if err := errors.Join(f.Add("a", newStub(machines.AMD(), 1)), f.Add("b", newStub(machines.Intel(), 2))); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Place(ctx, w, 1); err != nil {
				t.Fatal(err)
			}
			seq, st := f.Seq(), f.Stats()
			for _, v := range []int{0, -4} {
				_, err := f.Place(ctx, w, v)
				if !errors.Is(err, nperr.ErrInfeasible) || errors.Is(err, nperr.ErrFleetFull) {
					t.Fatalf("Place(%d vCPUs) err = %v, want ErrInfeasible without ErrFleetFull", v, err)
				}
			}
			if got := f.Seq(); got != seq {
				t.Errorf("refusals moved the record sequence %d -> %d", seq, got)
			}
			if got := f.Stats(); got.Rejected != st.Rejected || got.Tenants != st.Tenants {
				t.Errorf("refusals changed the stats: rejected %d -> %d, tenants %d -> %d",
					st.Rejected, got.Rejected, st.Tenants, got.Tenants)
			}
		})
	}
}

func TestFleetReleaseMapping(t *testing.T) {
	ctx := context.Background()
	f := New(Config{})
	a := newStub(machines.Intel(), 1)
	f.Add("a", a)
	w := testWorkload(t, "swaptions")

	adm1, _ := f.Place(ctx, w, 4)
	adm2, _ := f.Place(ctx, w, 4)
	if err := f.Release(ctx, adm1.ID); err != nil {
		t.Fatal(err)
	}
	if err := f.Release(ctx, adm1.ID); !errors.Is(err, nperr.ErrUnknownContainer) {
		t.Fatalf("double release err = %v, want ErrUnknownContainer", err)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.Len())
	}
	got := f.Assignments()
	if len(got) != 1 || got[0].ID != adm2.ID || got[0].Backend != "a" {
		t.Fatalf("assignments = %+v, want exactly fleet ID %d on a", got, adm2.ID)
	}
	st := f.Stats()
	if st.Released != 1 {
		t.Fatalf("released counter = %d, want 1", st.Released)
	}
}

func TestFleetRebalanceConsolidates(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "swaptions")
	cfg := Config{Policy: FirstFit, DrainBelow: 0.5}
	f := New(cfg)
	// a: 8 nodes, 1 tenant (util 0.125); b: 4 nodes, 1 tenant (util 0.25).
	// Both are below the threshold; a is emptier, so its tenant moves
	// uphill onto b, after which b (util 0.5) has no busier destination.
	a, b := newStub(machines.AMD(), 1), newStub(machines.Intel(), 1)
	// Filler tenant on b before the fleet takes it over (a backend in a
	// fleet is driven only through the fleet): b shows util 0.25 but holds
	// no fleet tenants, so it is a destination, not a source.
	if _, err := b.Place(ctx, w, 4); err != nil {
		t.Fatal(err)
	}
	f.Add("a", a)
	f.Add("b", b)
	admA, err := f.Place(ctx, w, 4) // first-fit: lands on a
	if err != nil {
		t.Fatal(err)
	}
	if admA.Backend != "a" {
		t.Fatalf("setup admission landed on %s, want a", admA.Backend)
	}

	// The expected cost of the cross-machine move is exactly the fast
	// mechanism's copy of the workload's memory profile.
	want, err := migrate.Run(ctx, migrate.ProfileFor(w, 4), migrate.Fast, migrate.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// A budget below the move cost commits nothing.
	rep, err := f.Rebalance(ctx, want.Seconds/2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 0 || rep.Examined == 0 {
		t.Fatalf("under-budget pass: %+v, want examined but no moves", rep)
	}

	rep, err = f.Rebalance(ctx, 10*want.Seconds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 1 {
		t.Fatalf("rebalance moved %d tenants, want 1: %+v", len(rep.Moves), rep)
	}
	mv := rep.Moves[0]
	if mv.From != "a" || mv.To != "b" || mv.ID != admA.ID {
		t.Fatalf("move = %+v, want fleet ID %d a -> b", mv, admA.ID)
	}
	if mv.Seconds != want.Seconds {
		t.Fatalf("move cost %g s, want the fast-mechanism cost %g s", mv.Seconds, want.Seconds)
	}
	if len(rep.Drained) != 1 || rep.Drained[0] != "a" {
		t.Fatalf("drained = %v, want [a]", rep.Drained)
	}
	if rep.TotalSeconds != want.Seconds {
		t.Fatalf("TotalSeconds = %g, want %g", rep.TotalSeconds, want.Seconds)
	}
	// The fleet mapping followed the move: releasing the fleet ID now
	// frees the node on b.
	if err := f.Release(ctx, admA.ID); err != nil {
		t.Fatal(err)
	}
	if got := b.FreeNodes().Len(); got != 3 {
		t.Fatalf("b has %d free nodes after release, want 3", got)
	}
	st := f.Stats()
	if st.Moves != 1 || st.MigrationSeconds != want.Seconds {
		t.Fatalf("stats moves/seconds = %d/%g, want 1/%g", st.Moves, st.MigrationSeconds, want.Seconds)
	}
}

func TestFleetDrainRemoveResume(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "swaptions")
	f := New(Config{Policy: FirstFit})
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a)
	f.Add("b", b)
	var ids []int
	for i := 0; i < 3; i++ { // all land on a (first-fit)
		adm, err := f.Place(ctx, w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if adm.Backend != "a" {
			t.Fatalf("setup admission landed on %s", adm.Backend)
		}
		ids = append(ids, adm.ID)
	}

	if err := f.Remove("a"); !errors.Is(err, nperr.ErrBackendNotEmpty) {
		t.Fatalf("Remove of busy backend err = %v, want ErrBackendNotEmpty", err)
	}
	if _, err := f.Drain(ctx, "ghost"); !errors.Is(err, nperr.ErrUnknownBackend) {
		t.Fatalf("Drain of unknown backend err = %v, want ErrUnknownBackend", err)
	}

	rep, err := f.Drain(ctx, "a")
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(rep.Moves) != 3 || rep.Drained[0] != "a" {
		t.Fatalf("drain report %+v, want 3 moves emptying a", rep)
	}
	for _, mv := range rep.Moves {
		if mv.From != "a" || mv.To != "b" || mv.Seconds <= 0 {
			t.Fatalf("drain move %+v, want a -> b with positive cost", mv)
		}
	}
	// Draining machines take no admissions; everything lands on b.
	adm, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Backend != "b" {
		t.Fatalf("admission landed on draining machine %s", adm.Backend)
	}
	// The drained machine is empty: Remove detaches it.
	if err := f.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Backend("a"); ok {
		t.Fatal("removed backend still resolvable")
	}
	if got := f.Names(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("names = %v, want [b]", got)
	}
	// Every moved tenant is still releasable through its fleet ID.
	for _, id := range append(ids, adm.ID) {
		if err := f.Release(ctx, id); err != nil {
			t.Fatalf("release %d after drain: %v", id, err)
		}
	}
}

// TestAssignmentsSeeTenantMovedMeanwhile: the listing answers from the
// fleet's own books in one hold. When it resolved each tenant against its
// backend after dropping the lock, a tenant moved in between was in neither
// place it looked and vanished from the listing; the stub drains the machine
// at exactly that point.
func TestAssignmentsSeeTenantMovedMeanwhile(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "swaptions")
	f := New(Config{Policy: FirstFit})
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a)
	f.Add("b", b)
	adm, err := f.Place(ctx, w, 4)
	if err != nil || adm.Backend != "a" {
		t.Fatalf("setup admission: %+v, %v", adm, err)
	}
	a.onAssignment = func() {
		if _, err := f.Drain(ctx, "a"); err != nil {
			t.Errorf("drain mid-listing: %v", err)
		}
	}
	got := f.Assignments()
	if len(got) != 1 || got[0].ID != adm.ID {
		t.Fatalf("Assignments() = %+v, want container %d listed", got, adm.ID)
	}
}

func TestFleetDrainPartialWhenFleetFull(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "swaptions")
	f := New(Config{Policy: FirstFit})
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a)
	f.Add("b", b)
	var ids []int
	for i := 0; i < 4; i++ { // fill a completely
		adm, err := f.Place(ctx, w, 4)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, adm.ID)
	}
	// b can host only 4; leave it with 2 free so 2 of a's 4 are stranded.
	if _, err := b.Place(ctx, w, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Place(ctx, w, 4); err != nil {
		t.Fatal(err)
	}

	rep, err := f.Drain(ctx, "a")
	if !errors.Is(err, nperr.ErrFleetFull) {
		t.Fatalf("partial drain err = %v, want ErrFleetFull", err)
	}
	// The destination's rejection cause rides along, so a full fleet is
	// distinguishable from an infra failure.
	if !errors.Is(err, nperr.ErrMachineFull) {
		t.Fatalf("partial drain err = %v, want the destination's ErrMachineFull joined in", err)
	}
	if rep == nil || len(rep.Moves) != 2 || rep.Examined != 4 {
		t.Fatalf("partial drain report %+v, want 2 of 4 moved", rep)
	}
	if len(rep.Drained) != 0 {
		t.Fatal("partially drained machine reported as drained")
	}
	// Still draining: no admissions on a.
	if st := f.Stats(); !st.Backends[0].Draining {
		t.Fatal("a not marked draining after partial drain")
	}

	// Capacity frees up on b (the two rehomed tenants depart): the next
	// Rebalance pass treats the draining machine as a source regardless
	// of utilization and finishes the interrupted drain.
	for _, id := range ids[:2] {
		if err := f.Release(ctx, id); err != nil {
			t.Fatalf("release %d: %v", id, err)
		}
	}
	ids = ids[2:]
	rrep, err := f.Rebalance(ctx, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrep.Moves) != 2 {
		t.Fatalf("rebalance moved %d stranded tenants off the draining machine, want 2: %+v", len(rrep.Moves), rrep)
	}
	if len(rrep.Drained) != 1 || rrep.Drained[0] != "a" {
		t.Fatalf("rebalance drained %v, want [a]", rrep.Drained)
	}
	if err := f.Remove("a"); err != nil {
		t.Fatalf("Remove after rebalance finished the drain: %v", err)
	}
	for _, id := range ids {
		if err := f.Release(ctx, id); err != nil {
			t.Fatalf("release %d: %v", id, err)
		}
	}
	// Resume on a removed backend fails typed.
	if err := f.Resume("a"); !errors.Is(err, nperr.ErrUnknownBackend) {
		t.Fatalf("Resume of removed backend err = %v, want ErrUnknownBackend", err)
	}
}

// TestFleetConcurrentPlace drives concurrent admissions, releases,
// budgeted rebalance passes and membership churn (add/drain/remove)
// through the fleet; run under -race it guards the locking — in
// particular Release's claim-before-evict protocol against cross-machine
// moves, and Place's commit check against concurrent Remove — and the
// final invariants guard the ID mapping.
func TestFleetConcurrentPlace(t *testing.T) {
	ctx := context.Background()
	// DrainBelow 0.9 makes nearly every machine a consolidation source,
	// so the rebalancer goroutine really moves tenants between backends
	// while they are being admitted and released.
	f := New(Config{Policy: LeastLoaded, DrainBelow: 0.9})
	f.Add("a", newStub(machines.AMD(), 1))
	f.Add("b", newStub(machines.Intel(), 1))
	w := testWorkload(t, "swaptions")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int
			for i := 0; i < 50; i++ {
				if adm, err := f.Place(ctx, w, 4); err == nil {
					mine = append(mine, adm.ID)
				} else if !errors.Is(err, nperr.ErrFleetFull) {
					t.Errorf("Place: %v", err)
					return
				}
				if len(mine) > 2 {
					if err := f.Release(ctx, mine[0]); err != nil {
						t.Errorf("Release: %v", err)
						return
					}
					mine = mine[1:]
				}
				f.Assignments() // unlocked-read path under churn
			}
			for _, id := range mine {
				if err := f.Release(ctx, id); err != nil {
					t.Errorf("Release: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // cross-machine moves racing the releases
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := f.Rebalance(ctx, 1000); err != nil {
				t.Errorf("Rebalance: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // membership churn racing the admissions
		defer wg.Done()
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("churn-%d", i)
			if err := f.Add(name, newStub(machines.Intel(), 1)); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
			// Drain rehomes whatever landed; Remove may still lose the
			// race with an in-flight admission, in which case the member
			// is drained again on the next attempt or simply left (the
			// final invariants hold either way).
			for attempt := 0; attempt < 3; attempt++ {
				if _, err := f.Drain(ctx, name); err != nil && !errors.Is(err, nperr.ErrFleetFull) {
					t.Errorf("Drain: %v", err)
					return
				}
				if err := f.Remove(name); err == nil {
					break
				} else if !errors.Is(err, nperr.ErrBackendNotEmpty) {
					t.Errorf("Remove: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	if f.Len() != 0 {
		t.Fatalf("%d tenants leaked", f.Len())
	}
	st := f.Stats()
	for _, b := range st.Backends {
		if b.FreeNodes != b.TotalNodes {
			t.Fatalf("backend %s has %d/%d nodes free after all releases", b.Name, b.FreeNodes, b.TotalNodes)
		}
	}
	if st.Admitted-st.Released != 0 {
		t.Fatalf("admitted %d != released %d", st.Admitted, st.Released)
	}
}

// TestStatsAllocCeiling: Stats allocates its two result slices at their
// final sizes and sorts the domains in place, so a call costs the same few
// allocations at any member count — dead members, a label no member carries
// any more and unlabeled members included.
func TestStatsAllocCeiling(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "gcc")
	for _, n := range []int{1, 8, 64} {
		f := New(Config{Policy: LeastLoaded})
		if err := f.Add("gone", newStub(machines.AMD(), 1), InDomain("rack-gone")); err != nil {
			t.Fatal(err)
		}
		if err := f.Remove("gone"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			var opts []AddOption
			if i%9 != 0 {
				opts = append(opts, InDomain(fmt.Sprintf("rack-%d", (n-i)%8)))
			}
			if err := f.Add(fmt.Sprintf("m%d", i), newStub(machines.AMD(), 1), opts...); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := f.Place(ctx, w, 4); err != nil {
				t.Fatal(err)
			}
		}
		f.Fail(ctx, "m0") // a one-member fleet strands its tenant: the error says so
		if h, _ := f.HealthOf("m0"); h != Dead {
			t.Fatalf("m0 is %v after Fail", h)
		}
		st := f.Stats()
		if len(st.Backends) != n || !slices.IsSortedFunc(st.Domains, func(a, b DomainStats) int { return cmp.Compare(a.Domain, b.Domain) }) {
			t.Fatalf("%d members: Stats lists %d backends and domains %+v", n, len(st.Backends), st.Domains)
		}
		for _, d := range st.Domains {
			if d.Domain == "rack-gone" || d.Backends == 0 {
				t.Fatalf("%d members: Stats lists a domain no member carries: %+v", n, d)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { f.Stats() }); allocs > 3 {
			t.Fatalf("Stats on a %d-member fleet allocates %.1f times, want <= 3", n, allocs)
		}
	}
}

// TestPlaceIntoAllocFree: over a backend that admits into the fleet's slot, a
// warm Place+Release allocates nothing — the Admission comes back by value,
// and the record of the tenant is the one the last release gave back.
func TestPlaceIntoAllocFree(t *testing.T) {
	ctx := context.Background()
	f := New(Config{})
	if err := f.Add("m0", placerStub{newStub(machines.AMD(), 1)}); err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t, "gcc")
	cycle := func() {
		a, err := f.Place(ctx, w, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Release(ctx, a.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("a warm place+release cycle allocates %.1f times, want 0", n)
	}
}

// TestAdmissionIsTheCallersCopy: the slot a backend admits into is the
// fleet's and the next admission overwrites it, so what Place returns must not
// alias it — nor the books, which a caller's writes must not reach.
func TestAdmissionIsTheCallersCopy(t *testing.T) {
	ctx := context.Background()
	f := New(Config{})
	if err := f.Add("m0", placerStub{newStub(machines.AMD(), 1)}); err != nil {
		t.Fatal(err)
	}
	a, err := f.Place(ctx, testWorkload(t, "gcc"), 16)
	if err != nil {
		t.Fatal(err)
	}
	kept := a
	b, err := f.Place(ctx, testWorkload(t, "canneal"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, kept) {
		t.Fatalf("placing B changed A: %+v, was %+v", a, kept)
	}
	if a.ID == b.ID || a.Assignment.Nodes == b.Assignment.Nodes || b.Assignment.Workload != "canneal" {
		t.Fatalf("A %+v and B %+v are not two admissions", a, b)
	}
	want := []Admission{a, b}
	a.Assignment.Nodes, b.Assignment.Workload = 0, "scribbled"
	if got := f.Assignments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a caller's writes reached the books: %+v, want %+v", got, want)
	}
}
