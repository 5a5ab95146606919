package sched

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/migrate"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// NewScheduler builds a scheduler whose artifacts come from the given seams,
// over a private table set: a seam may answer otherwise than the set would
// (a pin source that fails on cue), so nothing made from its answers may
// reach another scheduler. A nil pin selects the uncached placement.Pin.
// preds is registered with UsePredictor.
func NewScheduler(spec *concern.Spec,
	imps func(ctx context.Context, v int) ([]placement.Important, error),
	preds map[int]*core.Predictor,
	pin func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error),
	cfg ServeConfig) *Scheduler {
	if pin == nil {
		pin = func(_ context.Context, p placement.Placement, v int) ([]topology.ThreadID, error) {
			return placement.Pin(spec, p, v)
		}
	}
	s := usePredictors(NewSharedScheduler(NewTables(spec), new(Stats), cfg), preds)
	s.imps, s.pin = imps, pin
	return s
}

// usePredictors registers each of preds with s and returns s.
func usePredictors(s *Scheduler, preds map[int]*core.Predictor) *Scheduler {
	for v, p := range preds {
		s.UsePredictor(v, p)
	}
	return s
}

// newTestScheduler trains a quick predictor on machine m and wraps it in a
// Scheduler whose artifact sources mimic a serving engine (memoized spec
// and enumeration).
func newTestScheduler(t *testing.T, m machines.Machine, v int, cfg ServeConfig) (*Scheduler, *concern.Spec) {
	return newTestSchedulerPin(t, m, v, cfg, nil)
}

// newTestSchedulerPin is newTestScheduler with an explicit pin source (nil
// selects the default uncached pinner), for tests injecting pin failures.
func newTestSchedulerPin(t *testing.T, m machines.Machine, v int, cfg ServeConfig,
	pin func(ctx context.Context, p placement.Placement, vv int) ([]topology.ThreadID, error)) (*Scheduler, *concern.Spec) {
	t.Helper()
	spec := concern.FromMachine(m)
	imps, err := placement.Enumerate(context.Background(), spec, v)
	if err != nil {
		t.Fatal(err)
	}
	ws := append(workloads.Paper(), workloads.CorpusFrom(8, 3, []string{"flat", "bw", "lat"})...)
	ds, err := core.CollectPrepared(context.Background(), spec, imps, ws, v, core.CollectConfig{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := core.Train(context.Background(), ds, core.TrainConfig{
		Seed: 1, Forest: mlearn.ForestConfig{Trees: 10},
		SelectionTrees: 4, SelectionFolds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(spec,
		func(ctx context.Context, vv int) ([]placement.Important, error) {
			if vv != v {
				return placement.Enumerate(ctx, spec, vv)
			}
			return imps, nil
		},
		map[int]*core.Predictor{v: pred},
		pin,
		cfg)
	return s, spec
}

func TestSchedulerAdmitReleaseLifecycle(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	s, _ := newTestScheduler(t, m, 16, ServeConfig{})
	wt, _ := workloads.ByName("WTbtree")

	full := topology.FullNodeSet(m.Topo.NumNodes)
	var admitted []*Assignment
	for {
		a, err := s.Place(ctx, wt, 16)
		if err != nil {
			if !errors.Is(err, nperr.ErrMachineFull) {
				t.Fatalf("Place err = %v, want ErrMachineFull", err)
			}
			break
		}
		if len(a.Threads) != 16 {
			t.Fatalf("assignment has %d threads, want 16", len(a.Threads))
		}
		admitted = append(admitted, a)
		if len(admitted) > m.Topo.NumNodes {
			t.Fatal("runaway admission")
		}
	}
	if len(admitted) < 2 {
		t.Fatalf("admitted %d, want >= 2", len(admitted))
	}
	// Disjoint node sets, consistent free set.
	var used topology.NodeSet
	for _, a := range admitted {
		if used.Intersect(a.Nodes) != 0 {
			t.Fatal("overlapping assignments")
		}
		used = used.Union(a.Nodes)
	}
	if s.FreeNodes() != full.Minus(used) {
		t.Fatalf("free = %s, want %s", s.FreeNodes(), full.Minus(used))
	}
	if len(s.Assignments()) != len(admitted) {
		t.Fatalf("%d assignments, want %d", len(s.Assignments()), len(admitted))
	}

	// Unknown container size has no predictor.
	if _, err := s.Place(ctx, wt, 8); !errors.Is(err, nperr.ErrUntrained) {
		t.Errorf("Place(8 vCPUs) err = %v, want ErrUntrained", err)
	}

	// Release returns nodes; double release fails typed.
	if err := s.Release(ctx, admitted[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(ctx, admitted[0].ID); !errors.Is(err, nperr.ErrUnknownContainer) {
		t.Errorf("double Release err = %v, want ErrUnknownContainer", err)
	}
	if s.FreeNodes() != full.Minus(used).Union(admitted[0].Nodes) {
		t.Fatal("release did not return nodes")
	}

	// Admission works again after release.
	if _, err := s.Place(ctx, wt, 16); err != nil {
		t.Fatalf("Place after release: %v", err)
	}
}

func TestSchedulerRebalanceImproves(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	// A relaxed goal admits in the smallest (2-node) classes, so the
	// 8-node machine packs four containers and departures leave holes
	// worth rebalancing into.
	s, _ := newTestScheduler(t, m, 16, ServeConfig{GoalFrac: 0.5})
	wt, _ := workloads.ByName("WTbtree")

	// Fill the machine, then release the first container: the freed nodes
	// include the machine's best sets (bestFreeSet picks greedily), so a
	// survivor may profit from moving.
	var admitted []*Assignment
	for {
		a, err := s.Place(ctx, wt, 16)
		if err != nil {
			break
		}
		admitted = append(admitted, a)
	}
	if len(admitted) < 3 {
		t.Skipf("only %d admissions; need 3 for a meaningful rebalance", len(admitted))
	}
	if err := s.Release(ctx, admitted[0].ID); err != nil {
		t.Fatal(err)
	}

	icBefore := map[int]int64{}
	for _, a := range s.Assignments() {
		icBefore[a.ID] = m.IC.Measure(a.Nodes)
	}
	rep, err := s.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Examined != len(admitted)-1 {
		t.Fatalf("examined %d, want %d", rep.Examined, len(admitted)-1)
	}
	// No container got a worse interconnect score, and every move that
	// kept its class strictly improved it.
	for _, a := range s.Assignments() {
		if m.IC.Measure(a.Nodes) < icBefore[a.ID] {
			t.Fatalf("container %d degraded by rebalance", a.ID)
		}
	}
	for _, mv := range rep.Moves {
		if mv.Seconds <= 0 {
			t.Fatal("move without migration cost")
		}
	}
	// Rebalance is idempotent at a fixed point: a second pass moves
	// nothing.
	rep2, err := s.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Moves) != 0 {
		t.Fatalf("second rebalance moved %d containers, want 0", len(rep2.Moves))
	}

	// Cancellation: a cancelled context aborts the pass — and still hands
	// back the (empty) report of the aborted pass rather than nil.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	rep3, err := s.Rebalance(cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Rebalance err = %v, want context.Canceled", err)
	}
	if rep3 == nil {
		t.Error("cancelled Rebalance returned a nil report")
	}
}

// slowerSameSizeClass returns a class index with the same node count as
// tn's current class but a strictly lower predicted performance under tn's
// own vector (the slowest such class), or false if none exists.
func slowerSameSizeClass(tn *tenant, imps []placement.Important) (int, bool) {
	size := imps[tn.class].Nodes.Len()
	cur := predictedPerf(tn.basePerf, tn.vec, tn.class)
	best, ok := -1, false
	for i := range imps {
		if i == tn.class || imps[i].Nodes.Len() != size {
			continue
		}
		p := predictedPerf(tn.basePerf, tn.vec, i)
		if p <= 0 || p >= cur {
			continue
		}
		if !ok || p < predictedPerf(tn.basePerf, tn.vec, best) {
			best, ok = i, true
		}
	}
	return best, ok
}

// demoteTenant rewrites the tenant's class to a strictly slower class of
// the same node count, keeping its nodes — the stale state the pre-fix
// Rebalance could never repair: the best concrete node set of the faster
// class equals the tenant's current nodes, so the nodes-unchanged
// early-continue skipped the upgrade and classID stayed stale.
func demoteTenant(t *testing.T, s *Scheduler, imps []placement.Important, id int) (fromClass, toClassID int) {
	t.Helper()
	tn := s.books.tenants[id]
	slower, ok := slowerSameSizeClass(tn, imps)
	if !ok {
		t.Skipf("no slower same-size class for container %d", id)
	}
	want := tn.class
	tn.class, tn.classID = slower, imps[slower].ID
	return want, imps[want].ID
}

func TestSchedulerRebalanceAdoptsFasterClassOnSameNodes(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	// GoalFrac 0.5 admits into the smallest (2-node) classes; AMD has
	// three distinct 2-node classes, so a same-size faster class exists.
	s, _ := newTestScheduler(t, m, 16, ServeConfig{GoalFrac: 0.5})
	wt, _ := workloads.ByName("WTbtree")

	a, err := s.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	imps, err := s.imps(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, wantClassID := demoteTenant(t, s, imps, a.ID)

	rep, err := s.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 1 {
		t.Fatalf("rebalance made %d moves, want 1 (faster same-size class on identical nodes)", len(rep.Moves))
	}
	mv := rep.Moves[0]
	if mv.FromNodes != mv.ToNodes || mv.ToNodes != a.Nodes {
		t.Fatalf("move changed nodes %s -> %s, want both %s", mv.FromNodes, mv.ToNodes, a.Nodes)
	}
	if mv.ToClass != wantClassID {
		t.Fatalf("move adopted class %d, want %d", mv.ToClass, wantClassID)
	}
	got := s.Assignments()[0]
	if got.Class != wantClassID {
		t.Fatalf("tenant classID = %d after rebalance, want %d", got.Class, wantClassID)
	}
	// A same-node-set move copies no memory: its cost is exactly the fast
	// mechanism's freeze/thaw plus cpuset bookkeeping.
	prof := migrate.ProfileFor(wt, 16)
	prof.AnonGB, prof.PageCacheGB = 0, 0
	res, err := migrate.Run(ctx, prof, migrate.Fast)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Seconds != res.Seconds {
		t.Fatalf("same-nodes move cost %g s, want zero-copy fast cost %g s", mv.Seconds, res.Seconds)
	}
	// Fixed point: a second pass moves nothing.
	rep2, err := s.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Moves) != 0 {
		t.Fatalf("second rebalance moved %d containers, want 0", len(rep2.Moves))
	}
}

func TestSchedulerRebalancePartialReportOnPinFailure(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	errBoom := errors.New("pin source down")
	var spec *concern.Spec
	pinCalls, failAfter := 0, 0 // failAfter 0 = healthy
	pin := func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error) {
		pinCalls++
		if failAfter > 0 && pinCalls > failAfter {
			return nil, errBoom
		}
		return placement.Pin(spec, p, v)
	}
	s, sp := newTestSchedulerPin(t, m, 16, ServeConfig{GoalFrac: 0.5}, pin)
	spec = sp
	wt, _ := workloads.ByName("WTbtree")

	// Two tenants in 2-node classes, both demoted to a slower same-size
	// class, so the pass wants to move both.
	a1, err := s.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	imps, err := s.imps(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	demoteTenant(t, s, imps, a1.ID)
	demoteTenant(t, s, imps, a2.ID)

	// The pin source survives exactly one more call: the first move's
	// re-pin commits, the second move's re-pin fails mid-pass.
	failAfter = pinCalls + 1
	rep, err := s.Rebalance(ctx)
	if !errors.Is(err, errBoom) {
		t.Fatalf("Rebalance err = %v, want the pin failure", err)
	}
	if rep == nil {
		t.Fatal("Rebalance discarded the partial report of committed moves")
	}
	if len(rep.Moves) != 1 || rep.Moves[0].ID != a1.ID {
		t.Fatalf("partial report has moves %+v, want exactly the committed move of container %d", rep.Moves, a1.ID)
	}
	if rep.Examined != 2 {
		t.Fatalf("partial report examined %d, want 2", rep.Examined)
	}
	if rep.TotalSeconds != rep.Moves[0].Seconds || rep.TotalSeconds <= 0 {
		t.Fatalf("partial report TotalSeconds = %g, want the committed move's %g", rep.TotalSeconds, rep.Moves[0].Seconds)
	}

	// The scheduler stays consistent: with the pin source healed, the next
	// pass completes the interrupted move and then reaches a fixed point.
	failAfter = 0
	rep2, err := s.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Moves) != 1 || rep2.Moves[0].ID != a2.ID {
		t.Fatalf("healed rebalance moved %+v, want container %d", rep2.Moves, a2.ID)
	}
	rep3, err := s.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Moves) != 0 {
		t.Fatalf("fixed-point rebalance moved %d containers, want 0", len(rep3.Moves))
	}
}

func TestSchedulerAdmitPhase2FailureDiscards(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	errBoom := errors.New("pin source down")
	var spec *concern.Spec
	var cancelPhase2 context.CancelFunc // armed: cancel during the 2nd observation pin
	pinCalls, failAfter := 0, 0
	pin := func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error) {
		pinCalls++
		if failAfter > 0 && pinCalls > failAfter {
			return nil, errBoom
		}
		if cancelPhase2 != nil && pinCalls%3 == 2 {
			// Cancel while phase 1 is still observing: the pin itself
			// succeeds, so the cancellation is first seen by the phase-2
			// commit check.
			cancelPhase2()
		}
		return placement.Pin(spec, p, v)
	}
	s, sp := newTestSchedulerPin(t, m, 16, ServeConfig{}, pin)
	spec = sp
	wt, _ := workloads.ByName("WTbtree")

	full := topology.FullNodeSet(m.Topo.NumNodes)

	// Phase-2 pin failure: no tenant is registered and the free set stays
	// untouched.
	failAfter = pinCalls + 2 // both observation pins succeed, the commit pin fails
	if _, err := s.Place(ctx, wt, 16); !errors.Is(err, errBoom) {
		t.Fatalf("Place err = %v, want the pin failure", err)
	}
	failAfter = 0
	if s.FreeNodes() != full || len(s.Assignments()) != 0 {
		t.Fatalf("failed admission disturbed state: free %s (want %s), len %d (want 0)", s.FreeNodes(), full, len(s.Assignments()))
	}

	// Cancellation between phase 1 (observation) and phase 2 (commit):
	// same guarantees, and the error is the context's. A workload
	// the scheduler has not seen keeps the prepared-observation cache cold,
	// so the cancel really fires from inside this admission's observation.
	cctx, cancel := context.WithCancel(ctx)
	cancelPhase2 = cancel
	gcc, _ := workloads.ByName("gcc")
	if _, err := s.Place(cctx, gcc, 16); !errors.Is(err, context.Canceled) {
		t.Fatalf("Place err = %v, want context.Canceled", err)
	}
	cancelPhase2 = nil
	if s.FreeNodes() != full || len(s.Assignments()) != 0 {
		t.Fatalf("cancelled admission disturbed state: free %s, len %d", s.FreeNodes(), len(s.Assignments()))
	}

	// Both failures left gaps in the ID space; admission still works.
	a, err := s.Place(ctx, wt, 16)
	if err != nil {
		t.Fatalf("Place after failures: %v", err)
	}
	if a.ID != 2 {
		t.Fatalf("third admission got ID %d, want 2 (failed admissions leave gaps)", a.ID)
	}
}

// TestShortPinCommitsNothing runs each path that commits a Step 4 decision —
// Place and Adopt through install, Rebalance and ApplyMove through repin —
// against a pinner that hands back one thread too few: each must refuse, and
// leave the free mask, the books and the tenant's class and nodes as they
// were.
func TestShortPinCommitsNothing(t *testing.T) {
	ctx := context.Background()
	s, _ := newTestScheduler(t, machines.AMD(), 16, ServeConfig{GoalFrac: 0.5})
	wt, _ := workloads.ByName("WTbtree")
	a, err := s.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	imps, err := s.imps(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The tenant now sits in a slower class than its best on its own nodes,
	// so Rebalance wants to move it and ApplyMove has a class to go back to.
	_, fasterID := demoteTenant(t, s, imps, a.ID)
	short := false
	pin := s.pin
	s.pin = func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error) {
		threads, err := pin(ctx, p, v)
		if short && err == nil {
			threads = threads[:len(threads)-1]
		}
		return threads, err
	}
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Place", func() error { _, err := s.Place(ctx, wt, 16); return err }},
		{"Adopt", func() error {
			r := restoreOf(a)
			r.ID, r.Nodes = a.ID+100, shrink(s.FreeNodes(), a.Nodes.Len())
			_, err := s.Adopt(ctx, r)
			return err
		}},
		{"Rebalance", func() error { _, err := s.Rebalance(ctx); return err }},
		{"ApplyMove", func() error { return s.ApplyMove(ctx, a.ID, fasterID, a.Nodes) }},
	} {
		books, free := s.Assignments(), s.FreeNodes()
		short = true
		err := tc.op()
		short = false
		if !errors.Is(err, nperr.ErrMachineMismatch) {
			t.Errorf("%s with a short pin: err = %v, want ErrMachineMismatch", tc.name, err)
		}
		if got := s.Assignments(); !reflect.DeepEqual(got, books) {
			t.Errorf("%s with a short pin changed the books:\n got %+v\nwant %+v", tc.name, got, books)
		}
		if s.FreeNodes() != free {
			t.Errorf("%s with a short pin: free mask %s, was %s", tc.name, s.FreeNodes(), free)
		}
	}
	// Healed, the move the short pin refused goes through.
	if err := s.ApplyMove(ctx, a.ID, fasterID, a.Nodes); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceSharesMapping: an assignment's Threads is the table set's pinning
// itself, after Place and Adopt (install) and after a Rebalance or ApplyMove
// re-pin (repin) — the tenant keeps the slice Tables.Pin returned, and
// nobody copies it.
func TestPlaceSharesMapping(t *testing.T) {
	ctx := context.Background()
	pm := trainParityModel(t, machines.AMD(), 16)
	ts, st := NewTables(pm.spec), new(Stats)
	cfg := ServeConfig{GoalFrac: 0.5}
	s1, s2 := usePredictors(NewSharedScheduler(ts, st, cfg), pm.preds), usePredictors(NewSharedScheduler(ts, st, cfg), pm.preds)
	imps, err := ts.Placements(ctx, 16, st)
	if err != nil {
		t.Fatal(err)
	}
	shares := func(what string, s *Scheduler, id int) {
		t.Helper()
		a, ok := s.Assignment(id)
		if !ok {
			t.Fatalf("%s: container %d not admitted", what, id)
		}
		i, _ := classIndex(imps, a.Class)
		want, err := ts.Pin(ctx, placement.Placement{Nodes: a.Nodes, PerNodeScores: imps[i].PerNodeScores}, a.VCPUs, st)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Threads) != len(want) || &a.Threads[0] != &want[0] {
			t.Fatalf("%s: Threads %v is not the table set's pinning of class %d on %s", what, a.Threads, a.Class, a.Nodes)
		}
	}
	wt, _ := workloads.ByName("WTbtree")
	a, err := s1.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	shares("Place", s1, a.ID)
	if _, err := s2.Adopt(ctx, restoreOf(a)); err != nil {
		t.Fatal(err)
	}
	shares("Adopt", s2, a.ID)

	// s1's tenant is demoted and Rebalance moves it back; s2's replays the
	// demotion as a move.
	demoteTenant(t, s1, imps, a.ID)
	slower, _ := s1.Assignment(a.ID)
	rep, err := s1.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 1 {
		t.Fatalf("rebalance made %d moves, want 1", len(rep.Moves))
	}
	shares("Rebalance", s1, a.ID)
	if err := s2.ApplyMove(ctx, a.ID, slower.Class, a.Nodes); err != nil {
		t.Fatal(err)
	}
	shares("ApplyMove", s2, a.ID)
}

func TestSchedulerPreview(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	s, _ := newTestScheduler(t, m, 16, ServeConfig{})
	wt, _ := workloads.ByName("WTbtree")

	pv, err := s.Preview(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if pv.PredictedPerf <= 0 || pv.BasePerf <= 0 || pv.Nodes.Empty() {
		t.Fatalf("implausible preview %+v", pv)
	}
	// Previews are repeatable and reserve nothing.
	pv2, err := s.Preview(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if *pv != *pv2 {
		t.Fatalf("previews differ: %+v vs %+v", pv, pv2)
	}
	if len(s.Assignments()) != 0 || s.FreeNodes() != topology.FullNodeSet(m.Topo.NumNodes) {
		t.Fatal("preview mutated scheduler state")
	}
	// The preview matches the class the real admission chooses on the
	// same free set.
	a, err := s.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Class != pv.ClassID || a.Nodes != pv.Nodes {
		t.Fatalf("admission chose class %d on %s, preview promised class %d on %s",
			a.Class, a.Nodes, pv.ClassID, pv.Nodes)
	}
	// Untrained sizes fail typed.
	if _, err := s.Preview(ctx, wt, 8); !errors.Is(err, nperr.ErrUntrained) {
		t.Errorf("Preview(8 vCPUs) err = %v, want ErrUntrained", err)
	}
}
