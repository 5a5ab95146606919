package numaplace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/workloads"
)

// trainedEngine builds a quick Engine on m with a predictor trained for
// the given container size.
func trainedEngine(t *testing.T, ctx context.Context, m Machine, vcpus int) *Engine {
	t.Helper()
	eng := quickEngine(m)
	ws := append(PaperWorkloads(), workloads.CorpusFrom(10, 3, []string{"flat", "bw", "lat"})...)
	ds, err := eng.Collect(ctx, ws, vcpus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Train(ctx, ds); err != nil {
		t.Fatal(err)
	}
	return eng
}

// testCluster builds a heterogeneous AMD+Intel cluster with both engines
// trained for 16-vCPU containers.
func testCluster(t *testing.T, ctx context.Context, cfg ClusterConfig) *Cluster {
	t.Helper()
	cl := NewCluster(cfg)
	if err := cl.Add("amd-0", trainedEngine(t, ctx, AMD(), 16)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add("intel-0", trainedEngine(t, ctx, Intel(), 16)); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestClusterHeterogeneousServing(t *testing.T) {
	ctx := context.Background()
	cl := testCluster(t, ctx, ClusterConfig{Policy: RouteBestPredicted})
	wt, _ := WorkloadByName("WTbtree")

	// Fill the fleet: admissions route across both machines until neither
	// can host another container.
	var admitted []*ClusterAssignment
	backends := map[string]int{}
	for {
		a, err := cl.Place(ctx, wt, 16)
		if err != nil {
			if !errors.Is(err, ErrFleetFull) {
				t.Fatalf("Place err = %v, want ErrFleetFull at capacity", err)
			}
			break
		}
		admitted = append(admitted, a)
		backends[a.Backend]++
		if len(admitted) > 12 {
			t.Fatal("runaway admission")
		}
	}
	if len(admitted) < 3 {
		t.Fatalf("fleet admitted %d containers, want >= 3", len(admitted))
	}
	if len(backends) != 2 {
		t.Fatalf("admissions used backends %v, want both machines", backends)
	}
	// BestPredicted on an empty fleet starts on the machine with the
	// higher predicted performance; the faster Intel cores should win the
	// first admission.
	if admitted[0].Backend != "intel-0" {
		t.Errorf("first admission on %s, want intel-0 (highest predicted perf)", admitted[0].Backend)
	}

	st := cl.Stats()
	if st.Tenants != len(admitted) || st.Utilization <= 0 {
		t.Fatalf("stats %+v inconsistent with %d admissions", st, len(admitted))
	}
	if got := cl.Assignments(); len(got) != len(admitted) {
		t.Fatalf("Assignments() = %d, want %d", len(got), len(admitted))
	}

	// Drain one machine: its tenants rehome onto the other if it has
	// room, or the drain reports the stranded remainder; either way the
	// fleet keeps serving and every fleet ID stays valid.
	rep, err := cl.Drain(ctx, "amd-0")
	if err != nil && !errors.Is(err, ErrFleetFull) {
		t.Fatalf("Drain: %v", err)
	}
	for _, mv := range rep.Moves {
		if mv.From != "amd-0" || mv.To != "intel-0" || mv.Seconds <= 0 {
			t.Fatalf("drain move %+v, want amd-0 -> intel-0 with positive migration cost", mv)
		}
	}
	for _, a := range admitted {
		if err := cl.Release(ctx, a.ID); err != nil {
			t.Fatalf("release fleet ID %d after drain: %v", a.ID, err)
		}
	}
	if cl.Len() != 0 {
		t.Fatalf("%d tenants left after releasing all", cl.Len())
	}
	if err := cl.Remove("amd-0"); err != nil {
		t.Fatalf("Remove of drained empty machine: %v", err)
	}
	if got := cl.Names(); len(got) != 1 || got[0] != "intel-0" {
		t.Fatalf("names = %v, want [intel-0]", got)
	}

	// Untrained container sizes are rejected fleet-wide with the causes
	// joined in.
	if _, err := cl.Place(ctx, wt, 8); !errors.Is(err, ErrFleetFull) || !errors.Is(err, ErrUntrained) {
		t.Errorf("Place(8 vCPUs) err = %v, want ErrFleetFull wrapping ErrUntrained", err)
	}
}

func TestClusterRebalanceBudget(t *testing.T) {
	ctx := context.Background()
	cl := testCluster(t, ctx, ClusterConfig{Policy: RouteFirstFit, DrainBelow: 0.9})
	wt, _ := WorkloadByName("WTbtree")

	// One tenant on each machine (first admission fills amd-0 partially;
	// place a second and release the first so only the second's machine
	// keeps a tenant — then admit once more).
	a1, err := cl.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cl.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}

	// Zero budget: the pass examines but commits no cross-machine moves
	// and runs no intra passes.
	rep, err := cl.Rebalance(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 0 || rep.TotalSeconds != 0 {
		t.Fatalf("zero-budget pass spent %g s on %d moves", rep.TotalSeconds, len(rep.Moves))
	}

	// A generous budget lets the fleet consolidate the emptier machine
	// onto the busier one (DrainBelow 0.9 treats both as candidates).
	rep, err = cl.Rebalance(ctx, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalSeconds > 1e6 {
		t.Fatalf("pass overspent the budget: %g s", rep.TotalSeconds)
	}
	for _, mv := range rep.Moves {
		if mv.Seconds <= 0 {
			t.Fatalf("cross-machine move %+v without migration cost", mv)
		}
	}
	// Fleet IDs survive any moves.
	for _, id := range []int{a1.ID, a2.ID} {
		if err := cl.Release(ctx, id); err != nil {
			t.Fatalf("release %d after rebalance: %v", id, err)
		}
	}
}

// TestClusterConcurrentPlace drives concurrent admissions and releases
// across the cluster's backends; under -race it guards the fleet/engine
// lock interplay (cluster lock strictly before engine locks).
func TestClusterConcurrentPlace(t *testing.T) {
	ctx := context.Background()
	cl := testCluster(t, ctx, ClusterConfig{Policy: RouteLeastLoaded})
	wt, _ := WorkloadByName("WTbtree")

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int
			for i := 0; i < 12; i++ {
				if a, err := cl.Place(ctx, wt, 16); err == nil {
					mine = append(mine, a.ID)
				} else if !errors.Is(err, ErrFleetFull) {
					t.Errorf("Place: %v", err)
					return
				}
				if len(mine) > 1 {
					if err := cl.Release(ctx, mine[0]); err != nil {
						t.Errorf("Release: %v", err)
						return
					}
					mine = mine[1:]
				}
			}
			for _, id := range mine {
				if err := cl.Release(ctx, id); err != nil {
					t.Errorf("Release: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := cl.Rebalance(ctx, 30); err != nil {
				t.Errorf("Rebalance: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if cl.Len() != 0 {
		t.Fatalf("%d tenants leaked", cl.Len())
	}
	for _, b := range cl.Stats().Backends {
		if b.FreeNodes != b.TotalNodes {
			t.Fatalf("machine %s holds %d/%d nodes after all releases", b.Name, b.FreeNodes, b.TotalNodes)
		}
	}
}

// TestClusterFailover exercises the crash path end to end on real
// Engines: machine death rehomes tenants without losing a record, stats
// surface health and domains, and Revive fences the stale books.
func TestClusterFailover(t *testing.T) {
	ctx := context.Background()
	cl := NewCluster(ClusterConfig{Policy: RouteFirstFit, SpreadDomains: true})
	if err := cl.Add("amd-0", trainedEngine(t, ctx, AMD(), 16), InDomain("rack-0")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add("intel-0", trainedEngine(t, ctx, Intel(), 16), InDomain("rack-1")); err != nil {
		t.Fatal(err)
	}
	wt, _ := WorkloadByName("WTbtree")

	// First-fit would stack both replicas on amd-0; the domain spread
	// pushes the second onto the other rack.
	a1, err := cl.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cl.Place(ctx, wt, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Backend != "amd-0" || a2.Backend != "intel-0" {
		t.Fatalf("replicas on %s/%s, want amd-0/intel-0 (domain spread)", a1.Backend, a2.Backend)
	}

	before := cl.Assignments()
	rep, err := cl.Fail(ctx, "amd-0")
	if err != nil && !errors.Is(err, ErrNoHealthyBackend) {
		t.Fatalf("Fail: %v", err)
	}
	if got, want := len(rep.Moves)+rep.Stranded, 1; got != want {
		t.Fatalf("failover accounted for %d tenants, want %d (report %+v)", got, want, rep)
	}
	if h, _ := cl.HealthOf("amd-0"); h != ClusterDead {
		t.Fatalf("health after Fail = %v, want dead", h)
	}

	// Record conservation: the fleet-wide ID set is unchanged.
	after := cl.Assignments()
	if len(after) != len(before) {
		t.Fatalf("tenant records %d -> %d across failover", len(before), len(after))
	}
	for i := range before {
		if after[i].ID != before[i].ID {
			t.Fatalf("fleet ID set changed: %v -> %v", before[i].ID, after[i].ID)
		}
	}

	st := cl.Stats()
	if st.Backends[0].Health != ClusterDead || st.Backends[0].FreeNodes != 0 {
		t.Fatalf("dead machine stats = %+v, want dead with capacity written off", st.Backends[0])
	}
	if len(st.Domains) != 2 || st.Domains[0].Dead != 1 {
		t.Fatalf("domain stats = %+v, want rack-0 reporting its dead machine", st.Domains)
	}
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}

	// A heartbeat from the dead machine is refused until Revive fences it.
	if _, err := cl.Heartbeat("amd-0"); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("heartbeat on dead = %v, want ErrBackendDown", err)
	}
	fenced, err := cl.Revive(ctx, "amd-0")
	if err != nil {
		t.Fatal(err)
	}
	if fenced != len(rep.Moves) {
		t.Fatalf("revive fenced %d, want %d (one per rehomed tenant)", fenced, len(rep.Moves))
	}
	if h, _ := cl.HealthOf("amd-0"); h != ClusterHealthy {
		t.Fatalf("health after Revive = %v, want healthy", h)
	}
	eng, _ := cl.Engine("amd-0")
	if used := 8 - eng.FreeNodes().Len(); used != rep.Stranded*2 {
		// Each 16-vCPU container holds 2 AMD nodes; only tenants still
		// mapped here (stranded, kept) may occupy the revived machine.
		t.Fatalf("revived machine has %d nodes in use, want %d", used, rep.Stranded*2)
	}

	// Everything releases cleanly, wherever each tenant ended up.
	for _, a := range cl.Assignments() {
		if err := cl.Release(ctx, a.ID); err != nil {
			t.Fatalf("release %d: %v", a.ID, err)
		}
	}
	if cl.Len() != 0 {
		t.Fatalf("%d tenants leaked after failover round-trip", cl.Len())
	}
}

// TestClusterAdmitAllocCeiling bounds what one warm admission allocates on
// a fleet that looks like a running one: 64 machines of two models sharing
// one predictor each, best-predicted routing with domain spreading, 60 %
// full. Routing reads a memoized cell order over the live cells, the
// fleet's record of a tenant is recycled from the last release and the
// engine admits into the Admission the fleet returns, so a place+release
// cycle allocates that Admission alone — not per machine, no engine-side
// assignment and no copy of the pinning. The preview fan-out this replaced
// allocated 110 times here.
func TestClusterAdmitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the engine's tenants are pooled; sync.Pool is lossy under the race detector")
	}
	ctx := context.Background()
	models := []Machine{AMD(), Intel()}
	cl := NewCluster(ClusterConfig{Policy: RouteBestPredicted, SpreadDomains: true})
	for i, m := range models {
		pred, _ := trainedEngine(t, ctx, m, 16).Predictor(16)
		for j := i; j < 64; j += len(models) {
			if err := cl.Add(fmt.Sprintf("m%d", j), New(m, WithPredictor(16, pred)), InDomain(fmt.Sprintf("rack-%d", j%8))); err != nil {
				t.Fatal(err)
			}
		}
	}
	paper := PaperWorkloads()
	var resident []int
	for i := 0; ; i++ {
		a, err := cl.Place(ctx, paper[i%len(paper)], 16)
		if errors.Is(err, ErrFleetFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		resident = append(resident, a.ID)
	}
	for i, id := range resident {
		if i%5 < 2 { // thin to 60 %
			if err := cl.Release(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	wt, _ := WorkloadByName("WTbtree")
	cycle := func() {
		a, err := cl.Place(ctx, wt, 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Release(ctx, a.ID); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the chosen engine's pinning and observation caches
	if n := testing.AllocsPerRun(200, cycle); n > 1 {
		t.Fatalf("a warm 64-machine best-predicted place+release cycle allocates %.1f times, want <= 1", n)
	}
}
