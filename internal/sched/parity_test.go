package sched

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// newParityPair trains one predictor and wraps the same artifacts (spec,
// enumeration, predictor) in two schedulers: the cached fast path and the
// frozen Recompute reference. Sharing the artifacts is what reduces every
// divergence to the admission path itself — the two schedulers consume
// bit-identical model inputs.
func newParityPair(t *testing.T, m machines.Machine, cfg ServeConfig, sizes ...int) (fast, ref *Scheduler) {
	t.Helper()
	spec := concern.FromMachine(m)
	ws := append(workloads.Paper(), workloads.CorpusFrom(8, 3, []string{"flat", "bw", "lat"})...)
	imps := map[int][]placement.Important{}
	preds := map[int]*core.Predictor{}
	for _, v := range sizes {
		var err error
		if imps[v], err = placement.Enumerate(spec, v); err != nil {
			t.Fatal(err)
		}
		ds, err := core.CollectPrepared(context.Background(), spec, imps[v], ws, v, core.CollectConfig{Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		preds[v], err = core.Train(ds, core.TrainConfig{
			Seed: 1, Forest: mlearn.ForestConfig{Trees: 10},
			SelectionTrees: 4, SelectionFolds: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	build := func(cfg ServeConfig) *Scheduler {
		return NewScheduler(spec,
			func(ctx context.Context, v int) ([]placement.Important, error) {
				if is, ok := imps[v]; ok {
					return is, nil
				}
				return placement.EnumerateCtx(ctx, spec, v)
			},
			func(v int) *core.Predictor { return preds[v] },
			nil,
			cfg)
	}
	refCfg := cfg
	refCfg.Recompute = true
	return build(cfg), build(refCfg)
}

// sameErr fails unless both paths returned the same outcome: both nil, or
// both the identical error text and the same sentinel under errors.Is (the
// text alone would not notice a chain that stopped unwrapping).
func sameErr(t *testing.T, op string, fast, ref error) {
	t.Helper()
	switch {
	case (fast == nil) != (ref == nil):
		t.Fatalf("%s: fast err = %v, recompute err = %v", op, fast, ref)
	case fast != nil && fast.Error() != ref.Error():
		t.Fatalf("%s: fast err %q, recompute err %q", op, fast, ref)
	}
	for _, sentinel := range []error{nperr.ErrMachineFull, nperr.ErrUntrained, nperr.ErrUnknownContainer} {
		if errors.Is(fast, sentinel) != errors.Is(ref, sentinel) {
			t.Fatalf("%s: errors.Is(%v) differs: fast %v, recompute %v", op, sentinel, fast, ref)
		}
	}
}

// TestSchedulerParityTrace drives the cached fast path and the frozen
// recompute path through one identical randomized 500-op trace — admits
// across several workloads, releases of random live tenants, releases of
// unknown IDs, previews and rebalance passes — and asserts every returned
// assignment, preview, report and error is deeply identical, as is the
// final scheduler state. A third scheduler then adopts the survivors from
// the fast scheduler's own assignments (the recovery path) and must land
// on the same books. Run under -race this is also the parity suite's
// concurrency guard: the fast path's caches fill and hit while the trace
// churns the free mask through admit/release/rebalance cycles.
func TestSchedulerParityTrace(t *testing.T) {
	ctx := context.Background()
	m := machines.AMD()
	// GoalFrac 0.5 admits into the smallest classes, so the trace packs
	// several tenants, fills the machine (exercising the ErrMachineFull
	// arm on both paths) and leaves holes worth rebalancing into.
	fast, ref := newParityPair(t, m, ServeConfig{GoalFrac: 0.5}, 16)

	names := []string{"WTbtree", "gcc", "canneal", "streamcluster", "pca"}
	ws := make([]perfsim.Workload, 0, len(names))
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}

	rng := xrand.New(0x9e3779b97f4a7c15)
	var live []int // IDs admitted and not yet released (identical on both)
	admits, releases, previews, rebalances := 0, 0, 0, 0
	for op := 0; op < 500; op++ {
		switch k := rng.Intn(100); {
		case k < 45: // admit
			admits++
			w := ws[rng.Intn(len(ws))]
			af, errF := fast.Admit(ctx, w, 16)
			ar, errR := ref.Admit(ctx, w, 16)
			sameErr(t, "Admit", errF, errR)
			if errF != nil {
				continue
			}
			if !reflect.DeepEqual(af, ar) {
				t.Fatalf("op %d: Admit(%s) diverged:\nfast      %+v\nrecompute %+v", op, w.Name, af, ar)
			}
			live = append(live, af.ID)
		case k < 72: // release a live tenant
			releases++
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			sameErr(t, "Release", fast.Release(ctx, id), ref.Release(ctx, id))
			live = append(live[:i], live[i+1:]...)
		case k < 77: // release an unknown ID: identical typed failure
			sameErr(t, "Release(unknown)", fast.Release(ctx, 1<<30), ref.Release(ctx, 1<<30))
		case k < 90: // preview
			previews++
			w := ws[rng.Intn(len(ws))]
			pf, errF := fast.Preview(ctx, w, 16)
			pr, errR := ref.Preview(ctx, w, 16)
			sameErr(t, "Preview", errF, errR)
			if errF == nil && *pf != *pr {
				t.Fatalf("op %d: Preview(%s) diverged:\nfast      %+v\nrecompute %+v", op, w.Name, pf, pr)
			}
		default: // rebalance
			rebalances++
			rf, errF := fast.Rebalance(ctx)
			rr, errR := ref.Rebalance(ctx)
			sameErr(t, "Rebalance", errF, errR)
			if !reflect.DeepEqual(rf, rr) {
				t.Fatalf("op %d: Rebalance diverged:\nfast      %+v\nrecompute %+v", op, rf, rr)
			}
		}
	}
	if admits == 0 || releases == 0 || previews == 0 || rebalances == 0 {
		t.Fatalf("degenerate trace: %d admits, %d releases, %d previews, %d rebalances",
			admits, releases, previews, rebalances)
	}

	// Final state: identical books, identical free mask, per-ID lookups
	// agree with the snapshot on both paths.
	fa, ra := fast.Assignments(), ref.Assignments()
	if !reflect.DeepEqual(fa, ra) {
		t.Fatalf("final assignments diverged:\nfast      %+v\nrecompute %+v", fa, ra)
	}
	if fast.Free() != ref.Free() {
		t.Fatalf("final free masks diverged: fast %s, recompute %s", fast.Free(), ref.Free())
	}
	for _, a := range fa {
		gf, okF := fast.Assignment(a.ID)
		gr, okR := ref.Assignment(a.ID)
		if !okF || !okR || !reflect.DeepEqual(gf, gr) {
			t.Fatalf("Assignment(%d) diverged: fast %+v (%v), recompute %+v (%v)", a.ID, gf, okF, gr, okR)
		}
	}

	// Recovery leg: adopt the fast scheduler's survivors into a fresh
	// fast-path scheduler from their current assignments — exactly what
	// the fleet's restore replays — and require identical books. Adopted
	// tenants must then rebalance identically to the originals.
	restored, _ := newParityPair(t, m, ServeConfig{GoalFrac: 0.5}, 16)
	for _, a := range fa {
		w, ok := workloads.ByName(a.Workload)
		if !ok {
			t.Fatalf("assignment names unknown workload %q", a.Workload)
		}
		if _, err := restored.Adopt(ctx, Restore{
			ID: a.ID, Workload: w, VCPUs: a.VCPUs, ClassID: a.Class,
			Nodes: a.Nodes, BasePerf: a.BasePerf, ProbePerf: a.ProbePerf,
		}); err != nil {
			t.Fatalf("Adopt(%d): %v", a.ID, err)
		}
	}
	if got := restored.Assignments(); !reflect.DeepEqual(got, fa) {
		t.Fatalf("restored assignments diverged:\nrestored %+v\noriginal %+v", got, fa)
	}
	if restored.Free() != fast.Free() {
		t.Fatalf("restored free mask %s, original %s", restored.Free(), fast.Free())
	}
	rf, errF := fast.Rebalance(ctx)
	rr, errR := restored.Rebalance(ctx)
	sameErr(t, "post-restore Rebalance", errF, errR)
	if !reflect.DeepEqual(rf, rr) {
		t.Fatalf("post-restore Rebalance diverged:\nrestored %+v\noriginal %+v", rr, rf)
	}
}

// TestPreviewParityResident is the exactness check on fleet-shaped traffic:
// the paper catalog at four sizes previewed against a resident population
// that randomized admits, releases and rebalances keep churning, so the
// free mask moves between two previews of the same shape — the case the
// shape table exists for. After every operation every shape is previewed
// on both paths and must agree field for field and error for error.
func TestPreviewParityResident(t *testing.T) {
	ctx := context.Background()
	residentSizes := []int{8, 16, 24, 32}
	fast, ref := newParityPair(t, machines.AMD(), ServeConfig{GoalFrac: 0.5}, residentSizes...)
	paper := workloads.Paper()
	ops := 300
	if testing.Short() {
		ops = 60
	}
	rng := xrand.New(7)
	var live []int
	masks := map[uint64]bool{}
	full, fit := 0, 0
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(100); {
		case k < 55 || len(live) == 0:
			w, v := paper[rng.Intn(len(paper))], residentSizes[rng.Intn(len(residentSizes))]
			af, errF := fast.Admit(ctx, w, v)
			ar, errR := ref.Admit(ctx, w, v)
			sameErr(t, "Admit", errF, errR)
			if errF == nil {
				if !reflect.DeepEqual(af, ar) {
					t.Fatalf("op %d: Admit(%s, %d) diverged:\nfast      %+v\nrecompute %+v", op, w.Name, v, af, ar)
				}
				live = append(live, af.ID)
			}
		case k < 92:
			i := rng.Intn(len(live))
			sameErr(t, "Release", fast.Release(ctx, live[i]), ref.Release(ctx, live[i]))
			live = append(live[:i], live[i+1:]...)
		default:
			rf, errF := fast.Rebalance(ctx)
			rr, errR := ref.Rebalance(ctx)
			sameErr(t, "Rebalance", errF, errR)
			if !reflect.DeepEqual(rf, rr) {
				t.Fatalf("op %d: Rebalance diverged:\nfast      %+v\nrecompute %+v", op, rf, rr)
			}
		}
		if fast.Free() != ref.Free() {
			t.Fatalf("op %d: free masks diverged: fast %s, recompute %s", op, fast.Free(), ref.Free())
		}
		masks[uint64(fast.Free())] = true
		for _, w := range paper {
			for _, v := range residentSizes {
				pf, errF := fast.Preview(ctx, w, v)
				pr, errR := ref.Preview(ctx, w, v)
				sameErr(t, "Preview", errF, errR)
				if errF != nil {
					full++
					continue
				}
				fit++
				if *pf != *pr {
					t.Fatalf("op %d: Preview(%s, %d) at %s diverged:\nfast      %+v\nrecompute %+v",
						op, w.Name, v, fast.Free(), pf, pr)
				}
			}
		}
	}
	if len(masks) < 16 || full == 0 || fit == 0 {
		t.Fatalf("degenerate trace: %d distinct masks over %d ops, %d rejected and %d fitting previews",
			len(masks), ops, full, fit)
	}
	t.Logf("%d ops, %d distinct masks, %d fitting and %d rejected previews", ops, len(masks), fit, full)
}

// TestPreviewWarmAllocs gates what a mask change costs a warm preview:
// with the shape table and the best sets of both masks cached, swinging the
// free mask between two previews of one shape allocates nothing beyond the
// returned *Preview.
func TestPreviewWarmAllocs(t *testing.T) {
	ctx := context.Background()
	fast, _ := newParityPair(t, machines.AMD(), ServeConfig{GoalFrac: 0.5}, 16)
	w, _ := workloads.ByName("WTbtree")
	a, err := fast.Admit(ctx, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	masks := [2]uint64{uint64(fast.Free()), uint64(fast.Free().Union(a.Nodes))}
	for _, m := range masks {
		fast.free.Store(m)
		if _, err := fast.Preview(ctx, w, 16); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		fast.free.Store(masks[i%2])
		i++
		if _, err := fast.Preview(ctx, w, 16); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("warm Preview after a mask change: %.0f allocs/op, want at most the returned *Preview", n)
	}
}

// TestCowCacheBound fills a cowCache far past max: the map never holds more
// than max entries, and whatever a key still maps to is the value stored
// under that key — starting a fresh map drops entries, it never crosses
// them.
func TestCowCacheBound(t *testing.T) {
	c := cowCache[int, int]{max: 8}
	for k := 0; k < 100; k++ {
		c.put(k, k*k)
		if n := len(*c.m.Load()); n > c.max {
			t.Fatalf("after %d puts the map holds %d entries, max %d", k+1, n, c.max)
		}
		if v, ok := c.get(k); !ok || v != k*k {
			t.Fatalf("get(%d) right after put = %d, %v", k, v, ok)
		}
		for old := 0; old < k; old++ {
			if v, ok := c.get(old); ok && v != old*old {
				t.Fatalf("get(%d) = %d after %d puts, want %d or a miss", old, v, k+1, old*old)
			}
		}
	}
	if _, ok := c.get(0); ok {
		t.Fatal("key 0 survived 99 later puts into a cache of 8")
	}
}
