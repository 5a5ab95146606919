package numaplace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/interconnect"
	"repro/internal/migrate"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// quickEngine returns an Engine on machine m with a fast train/collect
// configuration for tests.
func quickEngine(m Machine) *Engine {
	return New(m,
		numaplaceTestCollect(),
		WithTrainConfig(TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 10},
			SelectionTrees: 4, SelectionFolds: 3,
		}),
	)
}

func numaplaceTestCollect() Option {
	return WithCollectConfig(CollectConfig{Trials: 2})
}

// TestEnginePlacementsParity asserts the Engine path returns bit-identical
// enumerations and pinnings to the direct pipeline, for every machine.
func TestEnginePlacementsParity(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		m Machine
		v int
	}{{AMD(), 16}, {Intel(), 24}, {Zen(), 16}, {HaswellCoD(), 12}} {
		want, err := placement.Enumerate(ctx, concern.FromMachine(tc.m), tc.v)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(tc.m)
		got, err := eng.Placements(ctx, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Engine.Placements differs from placement.Enumerate", tc.m.Topo.Name)
		}
		// Pin parity for every important placement.
		for _, p := range want {
			direct, err := placement.Pin(concern.FromMachine(tc.m), p.Placement, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			viaEngine, err := eng.Pin(ctx, p.Placement, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(viaEngine, direct) {
				t.Errorf("%s %s: Engine.Pin differs", tc.m.Topo.Name, p)
			}
			// Second call must come from cache and stay identical.
			cached, err := eng.Pin(ctx, p.Placement, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cached, direct) {
				t.Errorf("%s %s: cached Engine.Pin differs", tc.m.Topo.Name, p)
			}
		}
		if s := eng.Stats(); s.PinHits == 0 {
			t.Errorf("%s: no pin cache hits recorded", tc.m.Topo.Name)
		}
	}
}

// machineOfItsOwn returns the AMD machine with one link widened by a
// process-unique amount: a model no other engine has met, so an engine of it
// starts with a cold table set however many tests ran before (and -count).
func machineOfItsOwn() Machine { return amdWidened(ownModels.Add(1)) }

var ownModels atomic.Int64

// amdWidened is the AMD machine with its first link extra MB/s wider.
func amdWidened(extra int64) Machine {
	m := AMD()
	ic := interconnect.NewGraph(m.Topo.NumNodes)
	for a := range m.Topo.NumNodes {
		for b := a + 1; b < m.Topo.NumNodes; b++ {
			if bw := m.IC.LinkBandwidth(topology.NodeID(a), topology.NodeID(b)); bw > 0 {
				ic.AddLink(topology.NodeID(a), topology.NodeID(b), bw+extra)
				extra = 0
			}
		}
	}
	m.IC = ic
	return m
}

// TestEngineConcurrentPlacements hammers one Engine from many goroutines
// (run it under -race) and asserts single-flight behaviour: the expensive
// enumeration runs exactly once per (machine, vcpus) key while every
// caller receives the same bit-identical result.
func TestEngineConcurrentPlacements(t *testing.T) {
	ctx := context.Background()
	m := machineOfItsOwn()
	eng := New(m)
	want, err := placement.Enumerate(ctx, concern.FromMachine(m), 16)
	if err != nil {
		t.Fatal(err)
	}
	want8, err := placement.Enumerate(ctx, concern.FromMachine(m), 8)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	var wg sync.WaitGroup
	results := make([][]Important, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := 16
			if g%4 == 3 {
				v = 8
			}
			results[g], errs[g] = eng.Placements(ctx, v)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		ref := want
		if g%4 == 3 {
			ref = want8
		}
		if !reflect.DeepEqual(results[g], ref) {
			t.Fatalf("goroutine %d: result differs from serial enumeration", g)
		}
	}
	s := eng.Stats()
	if s.Enumerations != 2 { // one per distinct vcpus key
		t.Errorf("enumerations = %d, want 2 (single-flight per key)", s.Enumerations)
	}
	if s.PlacementHits != goroutines-2 {
		t.Errorf("placement hits = %d, want %d", s.PlacementHits, goroutines-2)
	}
}

// TestEngineCollectTrainParity asserts the Engine's cached-artifact
// collection and training produce bit-identical results to the stateless
// pipeline in internal/core, called directly.
func TestEngineCollectTrainParity(t *testing.T) {
	ctx := context.Background()
	m := Intel()
	ws := append(PaperWorkloads(), workloads.CorpusFrom(10, 3, []string{"flat", "bw", "lat"})...)
	cfg := TrainConfig{
		Seed: 1, Forest: mlearn.ForestConfig{Trees: 10},
		SelectionTrees: 4, SelectionFolds: 3,
	}

	eng := quickEngine(m)
	ds, err := eng.Collect(ctx, ws, 24)
	if err != nil {
		t.Fatal(err)
	}
	wantDS, err := core.Collect(ctx, m, ws, 24, CollectConfig{Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds.Perf, wantDS.Perf) {
		t.Fatal("Engine.Collect performance matrix differs from core.Collect")
	}

	pred, err := eng.Train(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	wantPred, err := core.Train(ctx, wantDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Base != wantPred.Base || pred.Probe != wantPred.Probe {
		t.Fatalf("Engine.Train chose pair (%d,%d), want (%d,%d)",
			pred.Base, pred.Probe, wantPred.Base, wantPred.Probe)
	}
	wi := ds.WorkloadIndex("WTbtree")
	a, err := pred.Predict(ds.Perf[wi][pred.Base], ds.Perf[wi][pred.Probe])
	if err != nil {
		t.Fatal(err)
	}
	b, err := wantPred.Predict(ds.Perf[wi][pred.Base], ds.Perf[wi][pred.Probe])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Engine-trained predictor disagrees with core.Train")
	}

	// Train must have registered the predictor for online use.
	if _, ok := eng.Predictor(24); !ok {
		t.Fatal("Train did not register the predictor")
	}
	vec, err := eng.Predict(24, ds.Perf[wi][pred.Base], ds.Perf[wi][pred.Probe])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vec, a) {
		t.Fatal("Engine.Predict disagrees with Predictor.Predict")
	}
	if _, err := eng.Predict(24, -1, 1200); !errors.Is(err, ErrBadObservation) {
		t.Errorf("Predict(-1) err = %v, want ErrBadObservation", err)
	}

	// The zero-alloc serving variant must agree bit-for-bit.
	into := make([]float64, pred.NumPlacements)
	if err := eng.PredictInto(into, 24, ds.Perf[wi][pred.Base], ds.Perf[wi][pred.Probe]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(into, vec) {
		t.Fatal("Engine.PredictInto disagrees with Engine.Predict")
	}
	if err := eng.PredictInto(into, 99, 1000, 1200); !errors.Is(err, ErrUntrained) {
		t.Errorf("PredictInto(untrained size) err = %v, want ErrUntrained", err)
	}
}

// TestEngineCancellation covers the cancellation satellite: a context
// cancelled before or during Collect/Train/Placements returns ctx.Err()
// promptly and leaves the Engine fully usable.
func TestEngineCancellation(t *testing.T) {
	m := AMD()

	t.Run("pre-cancelled", func(t *testing.T) {
		eng := quickEngine(m)
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.Placements(cancelled, 16); !errors.Is(err, context.Canceled) {
			t.Errorf("Placements err = %v, want context.Canceled", err)
		}
		if _, err := eng.Collect(cancelled, PaperWorkloads(), 16); !errors.Is(err, context.Canceled) {
			t.Errorf("Collect err = %v, want context.Canceled", err)
		}
	})

	t.Run("mid-collect", func(t *testing.T) {
		eng := quickEngine(m)
		if _, err := eng.Placements(context.Background(), 16); err != nil {
			t.Fatal(err)
		}
		// Collect checks its context before each placement's pinning and
		// each workload's row. A collection is too fast for a timed cancel
		// to land inside it reliably, so the context cancels itself at its
		// 100th check: with 13 placements and 218 workloads that is in
		// the middle of the rows.
		ws := append(PaperWorkloads(), workloads.CorpusFrom(200, 7,
			[]string{"flat", "bw", "lat", "smt-averse", "cache"})...)
		parent, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &cancelAtCheck{Context: parent, cancel: cancel, n: 100}
		if _, err := eng.Collect(ctx, ws, 16); !errors.Is(err, context.Canceled) {
			t.Fatalf("Collect err = %v, want context.Canceled", err)
		}
		// "Promptly": the check that saw the cancellation was the last.
		if got := ctx.calls.Load(); got != ctx.n {
			t.Fatalf("Collect checked its context %d times, want it to return at check %d", got, ctx.n)
		}
		assertEngineUsable(t, eng)
	})

	t.Run("mid-train", func(t *testing.T) {
		eng := quickEngine(m)
		ds, err := eng.Collect(context.Background(), PaperWorkloads(), 16)
		if err != nil {
			t.Fatal(err)
		}
		// The pair search checks its context once per candidate pair, when
		// the pair's cross-validation returns: AMD's 13 placements make 78
		// pairs, so the context cancels itself during the search, at its
		// 30th check. Pool workers still finishing a pair when it cancels
		// each check once more, so the count past the 30th depends on the
		// worker count and is not pinned.
		parent, cancel := context.WithCancel(context.Background())
		defer cancel()
		ctx := &cancelAtCheck{Context: parent, cancel: cancel, n: 30}
		if _, err := eng.Train(ctx, ds); !errors.Is(err, context.Canceled) {
			t.Fatalf("Train err = %v, want context.Canceled", err)
		}
		if got := ctx.calls.Load(); got < ctx.n {
			t.Fatalf("Train checked its context %d times, want the cancel at check %d", got, ctx.n)
		}
		// A cancelled Train must not have registered a predictor.
		if _, ok := eng.Predictor(16); ok {
			t.Fatal("cancelled Train registered a predictor")
		}
		assertEngineUsable(t, eng)
	})
}

// cancelAtCheck is a context that cancels itself at the n-th call of Err,
// so a cancellation lands at a known point of a loop that checks it.
type cancelAtCheck struct {
	context.Context
	cancel context.CancelFunc
	n      int64
	calls  atomic.Int64
}

func (c *cancelAtCheck) Err() error {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// assertEngineUsable verifies the Engine still serves correct results
// after a cancelled operation.
func assertEngineUsable(t *testing.T, eng *Engine) {
	t.Helper()
	ctx := context.Background()
	imps, err := eng.Placements(ctx, 16)
	if err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
	if len(imps) != 13 {
		t.Fatalf("placements after cancellation = %d, want 13", len(imps))
	}
	if _, err := eng.Collect(ctx, PaperWorkloads()[:6], 16); err != nil {
		t.Fatalf("Collect after cancellation: %v", err)
	}
}

// TestEngineTypedErrors asserts the documented sentinels surface through
// errors.Is at the API boundary.
func TestEngineTypedErrors(t *testing.T) {
	ctx := context.Background()
	eng := New(AMD())

	// 11 vCPUs: no balanced feasible node count on an 8x8 machine.
	if _, err := eng.Placements(ctx, 11); !errors.Is(err, ErrInfeasible) {
		t.Errorf("Placements(11) err = %v, want ErrInfeasible", err)
	}
	if _, err := eng.Predict(16, 1000, 1200); !errors.Is(err, ErrUntrained) {
		t.Errorf("Predict without predictor err = %v, want ErrUntrained", err)
	}
	wt, _ := WorkloadByName("WTbtree")
	if _, err := eng.Place(ctx, wt, 16); !errors.Is(err, ErrUntrained) {
		t.Errorf("Place without predictor err = %v, want ErrUntrained", err)
	}
	if err := eng.Release(ctx, 42); !errors.Is(err, ErrUnknownContainer) {
		t.Errorf("Release unknown err = %v, want ErrUnknownContainer", err)
	}

	// Cross-machine dataset: train on an Intel dataset with an AMD engine.
	intel := quickEngine(Intel())
	ds, err := intel.Collect(ctx, append(PaperWorkloads(),
		workloads.CorpusFrom(5, 3, []string{"flat"})...), 24)
	if err != nil {
		t.Fatal(err)
	}
	amd := quickEngine(AMD())
	if _, err := amd.Train(ctx, ds); !errors.Is(err, ErrMachineMismatch) {
		t.Errorf("cross-machine Train err = %v, want ErrMachineMismatch", err)
	}
}

// TestEngineServing drives the online Place/Release/Rebalance lifecycle:
// admissions pack the machine with disjoint pinned node sets, the machine
// eventually fills (ErrMachineFull), releases free nodes, and rebalancing
// keeps invariants while never making a container worse.
func TestEngineServing(t *testing.T) {
	ctx := context.Background()
	m := AMD()
	eng := quickEngine(m)
	ws := append(PaperWorkloads(), workloads.CorpusFrom(10, 3, []string{"flat", "bw", "lat"})...)
	ds, err := eng.Collect(ctx, ws, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Train(ctx, ds); err != nil {
		t.Fatal(err)
	}

	wt, _ := WorkloadByName("WTbtree")
	var admitted []*Assignment
	for {
		a, err := eng.Place(ctx, wt, 16)
		if err != nil {
			if !errors.Is(err, ErrMachineFull) {
				t.Fatalf("Place err = %v, want ErrMachineFull at capacity", err)
			}
			break
		}
		admitted = append(admitted, a)
		if len(admitted) > 8 {
			t.Fatal("admitted more containers than the machine has nodes")
		}
	}
	if len(admitted) < 2 {
		t.Fatalf("admitted %d containers, want at least 2", len(admitted))
	}
	// Node sets must be pairwise disjoint and consistent with FreeNodes.
	var used, free = admitted[0].Nodes, eng.FreeNodes()
	for _, a := range admitted[1:] {
		if used.Intersect(a.Nodes) != 0 {
			t.Fatalf("containers share nodes: %s overlaps %s", used, a.Nodes)
		}
		used = used.Union(a.Nodes)
	}
	if used.Intersect(free) != 0 {
		t.Fatalf("free set %s overlaps used %s", free, used)
	}
	if got := eng.Assignments(); len(got) != len(admitted) {
		t.Fatalf("Assignments() = %d entries, want %d", len(got), len(admitted))
	}

	// Release the first container and rebalance survivors.
	if err := eng.Release(ctx, admitted[0].ID); err != nil {
		t.Fatal(err)
	}
	before := map[int]Assignment{}
	for _, a := range eng.Assignments() {
		before[a.ID] = a
	}
	rep, err := eng.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Examined != len(admitted)-1 {
		t.Fatalf("rebalance examined %d, want %d", rep.Examined, len(admitted)-1)
	}
	// Moves must strictly improve interconnect bandwidth (same class) or
	// predicted performance, and never shrink the per-container state.
	for _, mv := range rep.Moves {
		b := before[mv.ID]
		if mv.FromNodes != b.Nodes {
			t.Fatalf("move %d: FromNodes %s != prior %s", mv.ID, mv.FromNodes, b.Nodes)
		}
		if mv.ToClass == mv.FromClass &&
			m.IC.Measure(mv.ToNodes) <= m.IC.Measure(mv.FromNodes) {
			t.Fatalf("move %d did not improve bandwidth", mv.ID)
		}
		if mv.Seconds <= 0 {
			t.Fatalf("move %d: non-positive migration time", mv.ID)
		}
	}
	// Invariants hold after rebalance.
	var used2 uint64
	for _, a := range eng.Assignments() {
		if uint64(a.Nodes)&used2 != 0 {
			t.Fatal("rebalanced containers share nodes")
		}
		used2 |= uint64(a.Nodes)
	}

	// Concurrent serving smoke under -race: parallel Place/Release churn.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				a, err := eng.Place(ctx, wt, 16)
				if err != nil {
					continue // machine full is expected under churn
				}
				_ = eng.Release(ctx, a.ID)
			}
		}()
	}
	wg.Wait()
}

// TestEngineConcurrentStress hammers one Engine with concurrent admissions,
// releases and rebalance passes beside readers of its snapshots, previews and
// free set. Run under -race it guards the machine lock, the one thing that
// makes the single-threaded scheduler safe for concurrent use and lets Preview
// and FreeNodes read without it; every snapshot must book each node at most
// once, and at the end no tenant may be left and every node must be free.
func TestEngineConcurrentStress(t *testing.T) {
	ctx := context.Background()
	m := AMD()
	pred, _ := trainedEngine(t, ctx, m, 16).Predictor(16)
	eng := New(m, WithPredictor(16, pred), WithServeConfig(ServeConfig{GoalFrac: 0.5}))
	wt, _ := WorkloadByName("WTbtree")

	var writers, readers sync.WaitGroup
	for g := 0; g < 6; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			var mine []int
			for i := 0; i < 30; i++ {
				if a, err := eng.Place(ctx, wt, 16); err == nil {
					mine = append(mine, a.ID)
				} else if !errors.Is(err, ErrMachineFull) {
					t.Errorf("Place: %v", err)
					return
				}
				if len(mine) > 1 {
					if err := eng.Release(ctx, mine[0]); err != nil {
						t.Errorf("Release: %v", err)
						return
					}
					mine = mine[1:]
				}
			}
			for _, id := range mine {
				if err := eng.Release(ctx, id); err != nil {
					t.Errorf("Release: %v", err)
				}
			}
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 15; i++ {
			if _, err := eng.Rebalance(ctx); err != nil {
				t.Errorf("Rebalance: %v", err)
				return
			}
		}
	}()
	done := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var booked topology.NodeSet
			for _, a := range eng.Assignments() {
				if a.Nodes.Intersect(booked) != 0 {
					t.Errorf("snapshot books nodes %s twice (container %d)", a.Nodes.Intersect(booked), a.ID)
					return
				}
				booked = booked.Union(a.Nodes)
			}
			if _, err := eng.Preview(ctx, wt, 16); err != nil && !errors.Is(err, ErrMachineFull) {
				t.Errorf("Preview: %v", err)
				return
			}
			_ = eng.FreeNodes()
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()

	if n := len(eng.Assignments()); n != 0 {
		t.Fatalf("%d tenants leaked", n)
	}
	if free := eng.FreeNodes(); free != topology.FullNodeSet(m.Topo.NumNodes) {
		t.Fatalf("free = %s after all releases, want the full set", free)
	}
}

// TestEnginePlaceAllocCeiling bounds what one warm admission allocates on a
// single engine: a place+release cycle keeps its assignment, which shares the
// memoized pinning with the pooled tenant, and nothing per cache probe (the
// admission before the exact-memoised fast path paid about 40).
func TestEnginePlaceAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	ctx := context.Background()
	eng := trainedEngine(t, ctx, AMD(), 16)
	wt, _ := WorkloadByName("WTbtree")
	cycle := func() {
		a, err := eng.Place(ctx, wt, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(ctx, a.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the enumeration, pinning and observation caches
	if n := testing.AllocsPerRun(200, cycle); n > 1 {
		t.Fatalf("a warm Engine place+release cycle allocates %.1f times, want <= 1", n)
	}
}

// TestEnginePlaceIntoAllocCeiling: admitting into a slot the caller owns
// takes the one allocation Place keeps away too, so a warm place+release
// cycle through PlaceInto allocates nothing.
func TestEnginePlaceIntoAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	ctx := context.Background()
	eng := trainedEngine(t, ctx, AMD(), 16)
	wt, _ := WorkloadByName("WTbtree")
	var a Assignment
	cycle := func() {
		if err := eng.PlaceInto(ctx, wt, 16, &a); err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(ctx, a.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the enumeration, pinning and observation caches
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("a warm Engine PlaceInto+Release cycle allocates %.1f times, want 0", n)
	}
}

// assignmentBits is a's memory, byte for byte: the slice and string headers
// and the floats' bit patterns (NaN payloads included), which == and
// reflect.DeepEqual do not compare.
func assignmentBits(a *Assignment) []byte {
	return bytes.Clone(unsafe.Slice((*byte)(unsafe.Pointer(a)), unsafe.Sizeof(*a)))
}

// sentinelThreads backs a sentinel pinning off the stack, which moves (and
// its pointers with it) when it grows.
var sentinelThreads = [3]topology.ThreadID{7, 7, 7}

// TestRefusedPlaceIntoLeavesDst: PlaceInto writes the caller's slot only when
// the admission succeeds. Refused on a full machine, for an untrained size or
// for a cancelled request, it leaves a sentinel-filled slot bit for bit as it
// was, so a caller trying one machine after another may pass the same slot
// to each.
func TestRefusedPlaceIntoLeavesDst(t *testing.T) {
	ctx := context.Background()
	eng := trainedEngine(t, ctx, AMD(), 16)
	wt, _ := WorkloadByName("WTbtree")
	var placed Assignment
	for {
		err := eng.PlaceInto(ctx, wt, 16, &placed)
		if errors.Is(err, ErrMachineFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	dst := Assignment{
		ID: -7, Workload: "sentinel", VCPUs: 99, Class: 42, Nodes: 0b1010,
		Threads:  sentinelThreads[:],
		BasePerf: math.Float64frombits(0x7ff8_dead_beef_0001), PredictedPerf: -1, ProbePerf: math.Inf(1),
	}
	want := assignmentBits(&dst)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		vcpus int
		is    error
	}{
		{"full machine", ctx, 16, ErrMachineFull},
		{"untrained size", ctx, 8, ErrUntrained},
		{"cancelled", cancelled, 16, context.Canceled},
	} {
		if err := eng.PlaceInto(tc.ctx, wt, tc.vcpus, &dst); !errors.Is(err, tc.is) {
			t.Fatalf("%s: PlaceInto err = %v, want %v", tc.name, err, tc.is)
		}
		if got := assignmentBits(&dst); !bytes.Equal(got, want) {
			t.Fatalf("%s: a refused PlaceInto wrote its slot:\ngot  %x\nwant %x", tc.name, got, want)
		}
	}
}

// TestEngineApplyMove drives the Engine's replay wrapper directly: a tenant
// re-pinned to the class and nodes another admission chose holds exactly that
// admission's assignment (class, nodes, the memoized pinning), the free set
// follows, and records the machine cannot take fail as the scheduler says.
func TestEngineApplyMove(t *testing.T) {
	ctx := context.Background()
	eng := trainedEngine(t, ctx, AMD(), 16)
	wt, _ := WorkloadByName("WTbtree")
	first, err := eng.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Release(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	if err := eng.ApplyMove(ctx, first.ID, second.Class, second.Nodes); err != nil {
		t.Fatal(err)
	}
	got, ok := eng.Assignment(first.ID)
	if !ok {
		t.Fatal("moved tenant is gone")
	}
	if got.Class != second.Class || got.Nodes != second.Nodes || !reflect.DeepEqual(got.Threads, second.Threads) {
		t.Fatalf("after ApplyMove: class %d nodes %v threads %v, want class %d nodes %v threads %v",
			got.Class, got.Nodes, got.Threads, second.Class, second.Nodes, second.Threads)
	}
	full := topology.FullNodeSet(AMD().Topo.NumNodes)
	if free := eng.FreeNodes(); free != full.Minus(second.Nodes) {
		t.Fatalf("free nodes after ApplyMove = %v, want %v", free, full.Minus(second.Nodes))
	}

	other, err := eng.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		id, cls int
		nodes   topology.NodeSet
		is      error
	}{
		{"unknown container", 1 << 20, got.Class, first.Nodes, ErrUnknownContainer},
		{"unknown class", first.ID, 1 << 20, first.Nodes, nperr.ErrLogCorrupt},
		{"taken nodes", first.ID, got.Class, other.Nodes, nperr.ErrLogCorrupt},
	} {
		if err := eng.ApplyMove(ctx, tc.id, tc.cls, tc.nodes); !errors.Is(err, tc.is) {
			t.Fatalf("%s: ApplyMove err = %v, want %v", tc.name, err, tc.is)
		}
	}
	if again, _ := eng.Assignment(first.ID); !reflect.DeepEqual(again, got) {
		t.Fatalf("a refused ApplyMove changed the tenant: %+v, want %+v", again, got)
	}
	for _, id := range []int{first.ID, other.ID} {
		if err := eng.Release(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if free := eng.FreeNodes(); free != full {
		t.Fatalf("free nodes after releasing everything = %v, want %v", free, full)
	}
}

// TestNewMachineOfKnownModelIsWarm is what one table set per machine model
// buys a fleet: once an engine of a model has served a shape, an engine
// made for another machine of that model previews, places and adopts it
// without enumerating, pinning, preparing an observation or searching a
// free set.
func TestNewMachineOfKnownModelIsWarm(t *testing.T) {
	ctx := context.Background()
	extra := ownModels.Add(1)
	first := trainedEngine(t, ctx, amdWidened(extra), 16)
	wt, _ := WorkloadByName("WTbtree")
	serve := func(eng *Engine) EngineStats {
		t.Helper()
		if _, err := eng.Preview(ctx, wt, 16); err != nil {
			t.Fatal(err)
		}
		a, err := eng.Place(ctx, wt, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(ctx, a.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Adopt(ctx, RestoreRecord{ID: a.ID, Workload: wt, VCPUs: 16, ClassID: a.Class,
			Nodes: a.Nodes, BasePerf: a.BasePerf, ProbePerf: a.ProbePerf}); err != nil {
			t.Fatal(err)
		}
		return eng.Stats()
	}
	if st := serve(first); st.Enumerations == 0 || st.PinRuns == 0 || st.Prepares == 0 || st.Searches == 0 {
		t.Fatalf("the model's first engine did no cold work: %+v", st)
	}
	p, _ := first.Predictor(16)
	st := serve(New(amdWidened(extra), WithPredictor(16, p)))
	if st.Enumerations != 0 || st.PinRuns != 0 || st.Prepares != 0 || st.Searches != 0 {
		t.Fatalf("a second engine of a served model did cold work: %+v", st)
	}
	if st.PlacementHits == 0 || st.PinHits == 0 {
		t.Fatalf("a second engine of a served model counted no hits: %+v", st)
	}
}

// TestTableSetRetainsNoPredictor guards what the process-wide table sets may
// hold: they live as long as the process, so a predictor reachable from one
// would keep every model the process ever trained. A trained engine that
// served and was dropped must leave its predictor collectable.
func TestTableSetRetainsNoPredictor(t *testing.T) {
	ctx := context.Background()
	wp := func() weak.Pointer[Predictor] {
		eng := trainedEngine(t, ctx, AMD(), 16)
		wt, _ := WorkloadByName("WTbtree")
		if _, err := eng.Preview(ctx, wt, 16); err != nil {
			t.Fatal(err)
		}
		a, err := eng.Place(ctx, wt, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(ctx, a.ID); err != nil {
			t.Fatal(err)
		}
		p, _ := eng.Predictor(16)
		return weak.Make(p)
	}()
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("a dropped engine's predictor is still reachable: something process-wide holds it")
	}
}

// TestFacadePipeline exercises the public API end to end on the Intel
// machine: placements, collection, training, prediction, persistence.
func TestFacadePipeline(t *testing.T) {
	ctx := context.Background()
	eng := New(Intel(),
		numaplaceTestCollect(),
		WithTrainConfig(TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 20},
			SelectionTrees: 6, SelectionFolds: 3,
		}),
	)
	placements, err := eng.Placements(ctx, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 7 {
		t.Fatalf("placements = %d, want 7", len(placements))
	}

	ws := append(PaperWorkloads(), workloads.CorpusFrom(15, 3, []string{"flat", "bw", "lat"})...)
	ds, err := eng.Collect(ctx, ws, 24)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Train(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}

	wt, ok := WorkloadByName("WTbtree")
	if !ok {
		t.Fatal("WTbtree missing")
	}
	wi := ds.WorkloadIndex(wt.Name)
	vec, err := eng.Predict(24, ds.Perf[wi][pred.Base], ds.Perf[wi][pred.Probe])
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 7 {
		t.Fatalf("vector length %d", len(vec))
	}
	// WiredTiger prefers few nodes on Intel (Fig. 1); even this reduced-
	// fidelity model must not recommend spreading it over 3-4 nodes.
	best := BestPlacement(vec)
	if placements[best].Nodes.Len() > 2 {
		t.Errorf("predicted best placement %s, want 1-2 nodes", placements[best].Nodes)
	}

	// Persistence round trip through the facade.
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := loaded.Predict(ds.Perf[wi][pred.Base], ds.Perf[wi][pred.Probe])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vec, v2) {
		t.Fatal("loaded predictor disagrees")
	}
}

// TestPackingExperimentIsSchedExperiment: the Engine's Figure 5 experiment,
// built from its memoized enumeration and (for a nil predictor) the one it
// serves, packs exactly as sched.NewExperiment does from scratch on the same
// machine, workload, size and predictor, under every policy.
func TestPackingExperimentIsSchedExperiment(t *testing.T) {
	ctx := context.Background()
	eng := trainedEngine(t, ctx, AMD(), 16)
	pred, _ := eng.Predictor(16)
	w, _ := WorkloadByName("WTbtree")
	ref, err := sched.NewExperiment(ctx, AMD(), w, 16, pred)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Predictor{nil, pred} {
		exp, err := eng.NewPackingExperiment(ctx, w, 16, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []sched.PolicyKind{sched.ML, sched.Conservative, sched.Aggressive, sched.SmartAggressive} {
			got, err := exp.Run(ctx, kind, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(ctx, kind, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v (predictor %p): engine packs %+v, sched %+v", kind, p, got, want)
			}
		}
	}
}

// TestOptionOrder: New resolves every option before it builds the scheduler
// and registers WithPredictor's predictors, so WithPredictor and
// WithServeConfig make one engine in either order — the same score class,
// goal included, and the same Place — and WithPredictor alone serves at once.
func TestOptionOrder(t *testing.T) {
	ctx := context.Background()
	pred, _ := trainedEngine(t, ctx, AMD(), 16).Predictor(16)
	wt, _ := WorkloadByName("WTbtree")
	serve := WithServeConfig(ServeConfig{GoalFrac: 0.5})
	var classes [2]sched.ScoreClass
	var places [2]*Assignment
	for i, e := range []*Engine{New(AMD(), WithPredictor(16, pred), serve), New(AMD(), serve, WithPredictor(16, pred))} {
		var ok bool
		if classes[i], ok = e.ScoreClass(16); !ok || classes[i].Predictor != pred || classes[i].GoalFrac != 0.5 {
			t.Fatalf("engine %d: ScoreClass = %+v, %v; want the predictor at goal 0.5", i, classes[i], ok)
		}
		var err error
		if places[i], err = e.Place(ctx, wt, 16); err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	if classes[0] != classes[1] || !reflect.DeepEqual(places[0], places[1]) {
		t.Fatalf("option order changed the engine: classes %+v / %+v, places %+v / %+v", classes[0], classes[1], places[0], places[1])
	}
	alone := New(AMD(), WithPredictor(16, pred))
	if class, ok := alone.ScoreClass(16); !ok || class.Predictor != pred || class.GoalFrac != 1 {
		t.Fatalf("WithPredictor alone: ScoreClass = %+v, %v", class, ok)
	}
	if _, err := alone.Place(ctx, wt, 16); err != nil {
		t.Fatalf("WithPredictor alone: %v", err)
	}
}

// TestEditedModelCannotCrashPlace replays the model-file crash: a saved
// predictor edited to observe placement 99 of a machine with 13 used to
// load, register through WithPredictor and panic inside the first Place.
// The load now refuses it; nothing on the way to Place may panic.
func TestEditedModelCannotCrashPlace(t *testing.T) {
	ctx := context.Background()
	pred, _ := trainedEngine(t, ctx, AMD(), 16).Predictor(16)
	var buf bytes.Buffer
	if err := pred.Save(&buf); err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(buf.Bytes(), fmt.Appendf(nil, `"base":%d`, pred.Base), []byte(`"base":99`), 1)
	if bytes.Equal(edited, buf.Bytes()) {
		t.Fatal("the saved model has no base field to edit")
	}
	wt, _ := WorkloadByName("WTbtree")
	place := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("loading and placing with the edited model panicked: %v", r)
			}
		}()
		p, err := LoadPredictor(bytes.NewReader(edited))
		if err != nil {
			return err
		}
		_, err = New(AMD(), WithPredictor(16, p)).Place(ctx, wt, 16)
		return err
	}
	if err := place(); err == nil {
		t.Fatal("a model observing placement 99 of 13 was served")
	}
}

// TestFacadeMigration exercises the migration surface: the paper's fast
// mechanism beats default Linux migration by an order of magnitude.
func TestFacadeMigration(t *testing.T) {
	ctx := context.Background()
	eng := New(AMD())
	wt, _ := WorkloadByName("postgres-tpcc")
	p := MigrationProfileFor(wt, 16)
	fast, err := eng.Migrate(ctx, p, MigrateFast, migrate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	linux, err := eng.Migrate(ctx, p, MigrateDefaultLinux, migrate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if linux.Seconds/fast.Seconds < 10 {
		t.Errorf("TPC-C speedup %.1fx, want order of magnitude", linux.Seconds/fast.Seconds)
	}
}
