package sched

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// twinSchedulers trains one predictor and wraps it in two independent
// Schedulers sharing the same artifact sources — the shape of recovery,
// where a fresh scheduler is rebuilt over the same trained engine state
// and must adopt its way back to the original's exact books.
func twinSchedulers(t *testing.T, m machines.Machine, v int, cfg ServeConfig) (*Scheduler, *Scheduler) {
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
	mk := func() *Scheduler {
		return NewScheduler(spec,
			func(ctx context.Context, vv int) ([]placement.Important, error) {
				if vv != v {
					return placement.Enumerate(ctx, spec, vv)
				}
				return imps, nil
			},
			map[int]*core.Predictor{v: pred},
			nil, cfg)
	}
	return mk(), mk()
}

// shrink drops the lowest nodes of set until at most n remain.
func shrink(set topology.NodeSet, n int) topology.NodeSet {
	for set.Len() > n {
		set = set.Remove(set.Lowest())
	}
	return set
}

// restoreOf captures the replay record Adopt needs from a live assignment.
func restoreOf(a *Assignment) Restore {
	wl, _ := workloads.ByName(a.Workload)
	return Restore{
		ID: a.ID, Workload: wl, VCPUs: a.VCPUs, ClassID: a.Class,
		Nodes: a.Nodes, BasePerf: a.BasePerf, ProbePerf: a.ProbePerf,
	}
}

func TestAdoptReproducesAdmit(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	s1, s2 := twinSchedulers(t, m, 16, ServeConfig{GoalFrac: 0.5})
	wt, _ := workloads.ByName("WTbtree")

	// Place a fixed count — deliberately short of full, because a FAILED
	// admission consumes an engine ID that is never recorded (adoption
	// does not replicate ID gaps; DESIGN.md documents the consequence).
	var admitted []*Assignment
	for i := 0; i < 3; i++ {
		a, err := s1.Place(ctx, wt, 16)
		if err != nil {
			t.Skipf("machine packed only %d of 3 admissions: %v", i, err)
		}
		admitted = append(admitted, a)
	}

	// Adopt every committed admission onto the twin: each adopted
	// assignment must equal the original byte for byte (threads and
	// predicted performance included — both are recomputed, not copied).
	for _, a := range admitted {
		got, err := s2.Adopt(ctx, restoreOf(a))
		if err != nil {
			t.Fatalf("Adopt(%d): %v", a.ID, err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("adopted assignment diverged:\n got %+v\nwant %+v", got, a)
		}
	}
	if !reflect.DeepEqual(s2.Assignments(), s1.Assignments()) {
		t.Fatal("Assignments() diverged after adoption")
	}
	if s2.FreeNodes() != s1.FreeNodes() {
		t.Fatalf("free sets diverged: %s vs %s", s2.FreeNodes(), s1.FreeNodes())
	}

	// nextID advanced past every adopted identity: the next real admission
	// on either scheduler draws the same ID and the same noise streams, so
	// post-recovery behavior stays aligned with the uncrashed original.
	a1, err1 := s1.Place(ctx, wt, 16)
	a2, err2 := s2.Place(ctx, wt, 16)
	if err1 != nil || err2 != nil {
		t.Fatalf("post-adoption admissions: %v, %v", err1, err2)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("post-adoption admission diverged:\n got %+v\nwant %+v", a2, a1)
	}
	admitted = append(admitted, a1)

	// The recomputed prediction vectors drive rebalancing identically.
	if err := s1.Release(ctx, admitted[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := s2.Release(ctx, admitted[0].ID); err != nil {
		t.Fatal(err)
	}
	r1, err1 := s1.Rebalance(ctx)
	r2, err2 := s2.Rebalance(ctx)
	if err1 != nil || err2 != nil {
		t.Fatalf("rebalances: %v, %v", err1, err2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("rebalance reports diverged:\n got %+v\nwant %+v", r2, r1)
	}
	if !reflect.DeepEqual(s2.Assignments(), s1.Assignments()) {
		t.Fatal("Assignments() diverged after rebalance")
	}
}

func TestAdoptRejectsInconsistentRecords(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	s1, s2 := twinSchedulers(t, m, 16, ServeConfig{})
	wt, _ := workloads.ByName("WTbtree")

	a, err := s1.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := restoreOf(a)
	if _, err := s2.Adopt(ctx, r); err != nil {
		t.Fatal(err)
	}

	// Duplicate identity.
	if _, err := s2.Adopt(ctx, r); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("duplicate Adopt err = %v, want ErrLogCorrupt", err)
	}
	// Nodes already allocated.
	dup := r
	dup.ID = r.ID + 100
	if _, err := s2.Adopt(ctx, dup); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("occupied-nodes Adopt err = %v, want ErrLogCorrupt", err)
	}
	// Class not in the enumeration.
	bad := r
	bad.ID, bad.ClassID, bad.Nodes = r.ID+101, 1<<20, s2.FreeNodes()
	if _, err := s2.Adopt(ctx, bad); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("unknown-class Adopt err = %v, want ErrLogCorrupt", err)
	}
	// Untrained size fails like Place.
	untr := r
	untr.ID, untr.VCPUs = r.ID+102, 8
	if _, err := s2.Adopt(ctx, untr); !errors.Is(err, nperr.ErrUntrained) {
		t.Errorf("untrained Adopt err = %v, want ErrUntrained", err)
	}

	// Nodes of another count than the class's: the record's free-sized
	// node set relabelled to a class of another size.
	imps, err := s2.imps(ctx, r.VCPUs)
	if err != nil {
		t.Fatal(err)
	}
	other := slices.IndexFunc(imps, func(imp placement.Important) bool { return imp.Nodes.Len() != r.Nodes.Len() })
	if other < 0 {
		t.Fatal("every class has the record's node count")
	}
	books, free := s2.Assignments(), s2.FreeNodes()
	sz := r
	sz.ID, sz.ClassID, sz.Nodes = r.ID+103, imps[other].ID, shrink(free, r.Nodes.Len())
	if _, err := s2.Adopt(ctx, sz); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("class-size Adopt of %d nodes %s as the %d-node class %d err = %v, want ErrLogCorrupt",
			sz.Nodes.Len(), sz.Nodes, imps[other].Nodes.Len(), sz.ClassID, err)
	}

	// ApplyMove: unknown ID, unknown class, then a class of another size.
	if err := s2.ApplyMove(ctx, 9999, r.ClassID, r.Nodes); !errors.Is(err, nperr.ErrUnknownContainer) {
		t.Errorf("ApplyMove(unknown) err = %v, want ErrUnknownContainer", err)
	}
	if err := s2.ApplyMove(ctx, r.ID, 1<<20, r.Nodes); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("ApplyMove(bad class) err = %v, want ErrLogCorrupt", err)
	}
	if err := s2.ApplyMove(ctx, r.ID, imps[other].ID, r.Nodes); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("ApplyMove(%d nodes as the %d-node class %d) err = %v, want ErrLogCorrupt",
			r.Nodes.Len(), imps[other].Nodes.Len(), imps[other].ID, err)
	}
	if !reflect.DeepEqual(s2.Assignments(), books) || s2.FreeNodes() != free {
		t.Errorf("refused records changed the books or the free mask %s (was %s)", s2.FreeNodes(), free)
	}
}

// TestAdoptVerdictIsTheTuple pins what Adopt's doc promises a restart's
// ledgers: beyond its books, whether Adopt takes a record depends only on its
// Verdict. A record under another workload, another ID and other positive or
// NaN observations has the Verdict of one Adopt took, and Adopt takes it
// too; an observation <= 0 gives another Verdict, which Adopt refuses.
func TestAdoptVerdictIsTheTuple(t *testing.T) {
	ctx := context.Background()
	s1, s2 := twinSchedulers(t, machines.AMD(), 16, ServeConfig{})
	wt, _ := workloads.ByName("WTbtree")
	other, _ := workloads.ByName("gcc")
	a, err := s1.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := restoreOf(a)
	cycle := func(r Restore) error {
		got, err := s2.Adopt(ctx, r)
		if err != nil {
			return err
		}
		return s2.Release(ctx, got.ID)
	}
	if err := cycle(r); err != nil {
		t.Fatal(err)
	}
	for i, obs := range [][2]float64{{r.BasePerf * 3, r.ProbePerf / 7}, {1e-9, 1e9}, {math.NaN(), 1}, {1, math.NaN()}} {
		again := r
		again.ID, again.Workload, again.BasePerf, again.ProbePerf = r.ID+1+i, other, obs[0], obs[1]
		if again.Verdict() != r.Verdict() {
			t.Errorf("observations %v under %s, ID %d: Verdict %+v, want %+v", obs, other.Name, again.ID, again.Verdict(), r.Verdict())
		}
		if err := cycle(again); err != nil {
			t.Errorf("observations %v under %s, ID %d: %v", obs, other.Name, again.ID, err)
		}
	}
	for i, obs := range [][2]float64{{0, 1}, {1, -1}, {math.Inf(-1), 1}} {
		bad := r
		bad.ID, bad.BasePerf, bad.ProbePerf = r.ID+10+i, obs[0], obs[1]
		if bad.Verdict() == r.Verdict() {
			t.Errorf("observations %v: Verdict %+v, the accepted record's", obs, bad.Verdict())
		}
		if err := cycle(bad); !errors.Is(err, nperr.ErrBadObservation) {
			t.Errorf("observations %v: err = %v, want ErrBadObservation", obs, err)
		}
	}
}

func TestApplyMoveReplaysRebalance(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	s1, s2 := twinSchedulers(t, m, 16, ServeConfig{GoalFrac: 0.5})
	wt, _ := workloads.ByName("WTbtree")

	var admitted []*Assignment
	for {
		a, err := s1.Place(ctx, wt, 16)
		if err != nil {
			break
		}
		admitted = append(admitted, a)
		if _, err := s2.Adopt(ctx, restoreOf(a)); err != nil {
			t.Fatal(err)
		}
	}
	if len(admitted) < 3 {
		t.Skipf("only %d admissions; need 3", len(admitted))
	}
	// Free a hole on s1 and rebalance it; replay the committed moves onto
	// s2 without re-running the search.
	if err := s1.Release(ctx, admitted[0].ID); err != nil {
		t.Fatal(err)
	}
	rep, err := s1.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) == 0 {
		t.Skip("rebalance moved nothing; replay has nothing to prove")
	}
	if err := s2.Release(ctx, admitted[0].ID); err != nil {
		t.Fatal(err)
	}
	for _, mv := range rep.Moves {
		if err := s2.ApplyMove(ctx, mv.ID, mv.ToClass, mv.ToNodes); err != nil {
			t.Fatalf("ApplyMove(%d): %v", mv.ID, err)
		}
	}
	if !reflect.DeepEqual(s2.Assignments(), s1.Assignments()) {
		t.Fatal("Assignments() diverged after move replay")
	}
	if s2.FreeNodes() != s1.FreeNodes() {
		t.Fatalf("free sets diverged: %s vs %s", s2.FreeNodes(), s1.FreeNodes())
	}
}

// TestAdoptAllocCeiling bounds what replaying one place/release pair
// allocates on a warm scheduler: the returned assignment and the uncached
// pin's result and scratch — the tenant and the assignment share that result,
// neither copies it. The tenant and its prediction vector come back from the
// pool Release fills (an adoption before that paid for both, and some hundred
// more for the pin).
func TestAdoptAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	ctx := context.Background()
	s1, s2 := twinSchedulers(t, machines.AMD(), 16, ServeConfig{})
	wt, _ := workloads.ByName("WTbtree")
	a, err := s1.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	r := restoreOf(a)
	cycle := func() {
		if _, err := s2.Adopt(ctx, r); err != nil {
			t.Fatal(err)
		}
		if err := s2.Release(ctx, r.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n > 3 {
		t.Fatalf("a warm Adopt+Release cycle allocates %.1f times, want <= 3", n)
	}
}

// TestAdoptErrorPathsLeakNothing replays each kind of record Adopt refuses a
// thousand times over: the books, the free mask and the ID allocator must be
// exactly as the last good adoption left them, and the pooled tenant must go
// back every time — a thousand refusals draw on the pool's constructor no
// more than one does.
func TestAdoptErrorPathsLeakNothing(t *testing.T) {
	ctx := context.Background()
	s1, s2 := twinSchedulers(t, machines.AMD(), 16, ServeConfig{})
	wt, _ := workloads.ByName("WTbtree")
	a, err := s1.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	good := restoreOf(a)
	if _, err := s2.Adopt(ctx, good); err != nil {
		t.Fatal(err)
	}
	// A pin that fails, or hands back one thread too few, refuses a record
	// every earlier check accepted; pinDown and shortPin arm them.
	errPin := errors.New("pin source down")
	pinDown, shortPin := false, false
	pin := s2.pin
	s2.pin = func(ctx context.Context, p placement.Placement, v int) ([]topology.ThreadID, error) {
		if pinDown {
			return nil, errPin
		}
		threads, err := pin(ctx, p, v)
		if shortPin && err == nil {
			threads = threads[:len(threads)-1]
		}
		return threads, err
	}
	made := 0
	s2.fast.pool.New = func() any { made++; return new(tenant) }

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	fresh := func(mut func(*Restore)) Restore {
		r := good
		r.ID, r.Nodes = good.ID+100, shrink(s2.FreeNodes(), good.Nodes.Len())
		mut(&r)
		return r
	}
	for _, tc := range []struct {
		name              string
		ctx               context.Context
		r                 Restore
		pinDown, shortPin bool
		want              error
	}{
		{name: "unpredictable observation", ctx: ctx, r: fresh(func(r *Restore) { r.BasePerf = 0 }), want: nperr.ErrBadObservation},
		{name: "cancelled context", ctx: cancelled, r: fresh(func(*Restore) {}), want: context.Canceled},
		{name: "duplicate ID", ctx: ctx, r: good, want: nperr.ErrLogCorrupt},
		{name: "nodes not free", ctx: ctx, r: fresh(func(r *Restore) { r.Nodes = good.Nodes }), want: nperr.ErrLogCorrupt},
		{name: "unknown class", ctx: ctx, r: fresh(func(r *Restore) { r.ClassID = 1 << 20 }), want: nperr.ErrLogCorrupt},
		{name: "class-size mismatch", ctx: ctx, r: fresh(func(r *Restore) { r.Nodes = r.Nodes.Remove(r.Nodes.Lowest()) }), want: nperr.ErrLogCorrupt},
		{name: "pin failure", ctx: ctx, r: fresh(func(*Restore) {}), pinDown: true, want: errPin},
		{name: "short pin", ctx: ctx, r: fresh(func(*Restore) {}), shortPin: true, want: nperr.ErrMachineMismatch},
	} {
		books, free, next := s2.Assignments(), s2.FreeNodes(), s2.nextID
		made, pinDown, shortPin = 0, tc.pinDown, tc.shortPin
		for i := 0; i < 1000; i++ {
			_, err := s2.Adopt(tc.ctx, tc.r)
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: Adopt err = %v, want %v", tc.name, err, tc.want)
			}
		}
		pinDown, shortPin = false, false
		if !reflect.DeepEqual(s2.Assignments(), books) || len(s2.Assignments()) != len(books) {
			t.Errorf("%s: books changed: %+v, were %+v", tc.name, s2.Assignments(), books)
		}
		if s2.FreeNodes() != free {
			t.Errorf("%s: free mask %s, was %s", tc.name, s2.FreeNodes(), free)
		}
		if got := s2.nextID; got != next {
			t.Errorf("%s: nextID %d, was %d", tc.name, got, next)
		}
		// A collection empties the pool, so a few draws are fair; one per
		// refusal is the leak.
		if !raceEnabled && made > 20 {
			t.Errorf("%s: 1000 refusals drew %d new tenants from the pool", tc.name, made)
		}
	}

	// What was refused left nothing behind: the same record, sound, adopts.
	if _, err := s2.Adopt(ctx, fresh(func(*Restore) {})); err != nil {
		t.Fatalf("sound record after the refusals: %v", err)
	}
}
