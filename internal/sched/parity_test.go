package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// parityModel is one machine's trained artifacts (spec, enumeration and
// predictor per size) that a Scheduler and its refScheduler are built over.
// Sharing them is what reduces every divergence to the admission path
// itself — both consume bit-identical model inputs.
type parityModel struct {
	spec  *concern.Spec
	imps  map[int][]placement.Important
	preds map[int]*core.Predictor
}

func trainParityModel(tb testing.TB, m machines.Machine, sizes ...int) *parityModel {
	tb.Helper()
	return trainParityModelSeed(tb, m, 1, sizes...)
}

// trainParityModelSeed is trainParityModel with the training seed given: a
// second seed trains a second predictor per size for the same machine.
func trainParityModelSeed(tb testing.TB, m machines.Machine, seed uint64, sizes ...int) *parityModel {
	tb.Helper()
	pm := &parityModel{spec: concern.FromMachine(m), imps: map[int][]placement.Important{}, preds: map[int]*core.Predictor{}}
	ws := append(workloads.Paper(), workloads.CorpusFrom(8, 3, []string{"flat", "bw", "lat"})...)
	for _, v := range sizes {
		var err error
		if pm.imps[v], err = placement.Enumerate(context.Background(), pm.spec, v); err != nil {
			tb.Fatal(err)
		}
		ds, err := core.CollectPrepared(context.Background(), pm.spec, pm.imps[v], ws, v, core.CollectConfig{Trials: 2})
		if err != nil {
			tb.Fatal(err)
		}
		pm.preds[v], err = core.Train(context.Background(), ds, core.TrainConfig{
			Seed: seed, Forest: mlearn.ForestConfig{Trees: 10},
			SelectionTrees: 4, SelectionFolds: 3,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return pm
}

// pair builds a fresh Scheduler and a fresh refScheduler over the model.
func (pm *parityModel) pair(cfg ServeConfig) (*Scheduler, *refScheduler) {
	imps := func(ctx context.Context, v int) ([]placement.Important, error) {
		if is, ok := pm.imps[v]; ok {
			return is, nil
		}
		return placement.Enumerate(ctx, pm.spec, v)
	}
	return NewScheduler(pm.spec, imps, pm.preds, nil, cfg),
		newRefScheduler(pm.spec, imps, func(v int) *core.Predictor { return pm.preds[v] }, cfg)
}

// newParityPair trains one predictor per size on m and builds a Scheduler
// and its reference over it.
func newParityPair(t *testing.T, m machines.Machine, cfg ServeConfig, sizes ...int) (*Scheduler, *refScheduler) {
	return trainParityModel(t, m, sizes...).pair(cfg)
}

// paritySentinels are the classes an error must fall in alike on both sides
// (the text alone would not notice a chain that stopped unwrapping).
var paritySentinels = []error{
	nperr.ErrMachineFull, nperr.ErrUntrained, nperr.ErrUnknownContainer,
	nperr.ErrLogCorrupt, nperr.ErrMachineMismatch, nperr.ErrBadObservation, context.Canceled,
}

// sameErr reports how two outcomes differ, nil when both are nil or both
// carry the identical text and the same sentinels under errors.Is.
func sameErr(got, want error) error {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Errorf("scheduler err = %v, reference err = %v", got, want)
	case got != nil && got.Error() != want.Error():
		return fmt.Errorf("scheduler err %q, reference err %q", got, want)
	}
	for _, sentinel := range paritySentinels {
		if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
			return fmt.Errorf("errors.Is(%v) differs: scheduler %v, reference %v", sentinel, got, want)
		}
	}
	return nil
}

// lockstep drives a Scheduler and its refScheduler through the same
// operations over the workloads ws at the sizes, tracking the live tenant
// IDs (identical on both). Each operation runs on both sides and returns a
// non-nil error naming the first divergence: the outcome, the error text or
// sentinel, the result, or the free mask after.
type lockstep struct {
	s     *Scheduler
	ref   *refScheduler
	ws    []perfsim.Workload
	sizes []int
	live  []int
}

func (l *lockstep) diff(op string, errS, errR error, got, want any) error {
	if err := sameErr(errS, errR); err != nil {
		return fmt.Errorf("%s: %v", op, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s diverged:\nscheduler %+v\nreference %+v", op, got, want)
	}
	if l.s.FreeNodes() != l.ref.FreeNodes() {
		return fmt.Errorf("after %s: free masks diverged: scheduler %s, reference %s", op, l.s.FreeNodes(), l.ref.FreeNodes())
	}
	return nil
}

func (l *lockstep) admit(ctx context.Context, w perfsim.Workload, v int) error {
	got, errS := l.s.Place(ctx, w, v)
	want, errR := l.ref.Place(ctx, w, v)
	if got != nil {
		l.live = append(l.live, got.ID)
	}
	return l.diff(fmt.Sprintf("Place(%s, %d)", w.Name, v), errS, errR, got, want)
}

func (l *lockstep) preview(ctx context.Context, w perfsim.Workload, v int) (*Preview, error) {
	got, errS := l.s.Preview(ctx, w, v)
	want, errR := l.ref.Preview(ctx, w, v)
	return got, l.diff(fmt.Sprintf("Preview(%s, %d) at %s", w.Name, v, l.s.FreeNodes()), errS, errR, got, want)
}

func (l *lockstep) release(ctx context.Context, id int) error {
	if i := slices.Index(l.live, id); i >= 0 {
		l.live = slices.Delete(l.live, i, i+1)
	}
	return l.diff(fmt.Sprintf("Release(%d)", id), l.s.Release(ctx, id), l.ref.Release(ctx, id), nil, nil)
}

// readopt releases live tenant id and adopts its Restore back — how a
// cross-machine move lands on its destination — and requires the adopted
// tenant to be the one released.
func (l *lockstep) readopt(ctx context.Context, id int) error {
	a, _ := l.s.Assignment(id)
	if err := l.release(ctx, id); err != nil {
		return err
	}
	r := restoreOf(&a)
	got, errS := l.s.Adopt(ctx, r)
	want, errR := l.ref.Adopt(ctx, r)
	if got != nil {
		l.live = append(l.live, id)
	}
	if err := l.diff(fmt.Sprintf("Adopt(%d)", id), errS, errR, got, want); err != nil {
		return err
	}
	if got == nil || !reflect.DeepEqual(*got, a) {
		return fmt.Errorf("re-adopted %d differs:\nreleased %+v\nadopted  %+v", id, a, got)
	}
	return nil
}

// moveTo replays a move of live tenant id: arg picks the class and, among
// the node sets of its size the tenant could use (its own nodes plus the
// free ones), the set — the class's own nodes when none fits. ok reports
// whether both sides took it.
func (l *lockstep) moveTo(ctx context.Context, id, arg int) (ok bool, err error) {
	a, _ := l.s.Assignment(id)
	imps, err := l.s.imps(ctx, a.VCPUs)
	if err != nil {
		return false, err
	}
	imp := imps[arg%len(imps)]
	var sets []topology.NodeSet
	l.s.FreeNodes().Union(a.Nodes).Subsets(imp.Nodes.Len(), func(s topology.NodeSet) { sets = append(sets, s) })
	nodes := imp.Nodes
	if len(sets) > 0 {
		nodes = sets[arg/len(imps)%len(sets)]
	}
	errS := l.s.ApplyMove(ctx, id, imp.ID, nodes)
	errR := l.ref.ApplyMove(ctx, id, imp.ID, nodes)
	return errS == nil, l.diff(fmt.Sprintf("ApplyMove(%d, class %d, %s)", id, imp.ID, nodes), errS, errR, nil, nil)
}

// The operations step applies.
const (
	opAdmit = iota
	opRelease
	opPreview
	opRebalance
	opAdopt
	opMove
	numOps
)

// step applies operation op to both sides. arg picks the workload and size
// (admit, preview), the tenant (release — one past the live tenants is an
// unknown ID — re-adopt, move) and the move's target. applied is false when
// there was no tenant to act on or both sides refused a move.
func (l *lockstep) step(ctx context.Context, op, arg int) (applied bool, err error) {
	w, v := l.ws[arg%len(l.ws)], l.sizes[arg/len(l.ws)%len(l.sizes)]
	switch op {
	case opAdmit:
		return true, l.admit(ctx, w, v)
	case opRelease:
		if j := arg % (len(l.live) + 1); j < len(l.live) {
			return true, l.release(ctx, l.live[j])
		}
		return true, l.release(ctx, 1<<30)
	case opPreview:
		_, err := l.preview(ctx, w, v)
		return true, err
	case opRebalance:
		got, errS := l.s.Rebalance(ctx)
		want, errR := l.ref.Rebalance(ctx)
		return true, l.diff("Rebalance", errS, errR, got, want)
	}
	if len(l.live) == 0 {
		return false, nil
	}
	id := l.live[arg%len(l.live)]
	if op == opAdopt {
		return true, l.readopt(ctx, id)
	}
	return l.moveTo(ctx, id, arg/len(l.live))
}

// weighted draws an operation with the given per-operation weights, which
// sum to 100.
func weighted(rng *xrand.SplitMix64, weights [numOps]int) int {
	k := rng.Intn(100)
	for op, w := range weights {
		if k < w {
			return op
		}
		k -= w
	}
	return numOps - 1
}

// same compares the full books: the snapshots, the free masks, and every
// per-ID lookup against the snapshot.
func (l *lockstep) same() error {
	got, want := l.s.Assignments(), l.ref.Assignments()
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("assignments diverged:\nscheduler %+v\nreference %+v", got, want)
	}
	if l.s.FreeNodes() != l.ref.FreeNodes() {
		return fmt.Errorf("free masks diverged: scheduler %s, reference %s", l.s.FreeNodes(), l.ref.FreeNodes())
	}
	for _, a := range want {
		if g, ok := l.s.Assignment(a.ID); !ok || !reflect.DeepEqual(g, a) {
			return fmt.Errorf("Assignment(%d) = %+v (%v), snapshot %+v", a.ID, g, ok, a)
		}
	}
	return nil
}

func workloadsNamed(tb testing.TB, names ...string) []perfsim.Workload {
	tb.Helper()
	ws := make([]perfsim.Workload, 0, len(names))
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			tb.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestSchedulerParityTrace drives the Scheduler and the reference through
// one identical randomized 500-op trace — admits across several workloads,
// releases of random live tenants and of unknown IDs, previews, rebalance
// passes, re-adoptions (release, then Adopt the tenant's record back) and
// replayed moves onto random fitting node sets — and asserts every returned
// assignment, preview, report, error and free mask is deeply identical, as
// are the final books. A third scheduler then adopts the survivors (the
// recovery path) and must land on the same books.
func TestSchedulerParityTrace(t *testing.T) {
	ctx := context.Background()
	model := trainParityModel(t, machines.AMD(), 16)
	// GoalFrac 0.5 admits into the smallest classes, so the trace packs
	// several tenants, fills the machine (exercising the ErrMachineFull
	// arm on both sides) and leaves holes worth rebalancing into.
	cfg := ServeConfig{GoalFrac: 0.5}
	s, ref := model.pair(cfg)
	l := &lockstep{s: s, ref: ref, ws: workloadsNamed(t, "WTbtree", "gcc", "canneal", "streamcluster", "pca"), sizes: []int{16}}

	rng := xrand.New(0x9e3779b97f4a7c15)
	var applied [numOps]int // admit, release, preview, rebalance, adopt, move
	for i := 0; i < 500; i++ {
		op := weighted(rng, [numOps]int{42, 26, 12, 8, 6, 6})
		ok, err := l.step(ctx, op, rng.Intn(1<<16))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if ok {
			applied[op]++
		}
	}
	t.Logf("applied (admit, release, preview, rebalance, adopt, move): %v", applied)
	if slices.Contains(applied[:], 0) {
		t.Fatalf("degenerate trace: applied (admit, release, preview, rebalance, adopt, move) %v", applied)
	}
	if err := l.same(); err != nil {
		t.Fatalf("final state: %v", err)
	}

	// Recovery leg: adopt the survivors into a fresh scheduler from their
	// current assignments — exactly what the fleet's restore replays — and
	// require identical books. Adopted tenants must then rebalance
	// identically to the originals.
	fa := s.Assignments()
	restored, _ := model.pair(cfg)
	for i := range fa {
		if _, err := restored.Adopt(ctx, restoreOf(&fa[i])); err != nil {
			t.Fatalf("Adopt(%d): %v", fa[i].ID, err)
		}
	}
	if got := restored.Assignments(); !reflect.DeepEqual(got, fa) {
		t.Fatalf("restored assignments diverged:\nrestored %+v\noriginal %+v", got, fa)
	}
	if restored.FreeNodes() != s.FreeNodes() {
		t.Fatalf("restored free mask %s, original %s", restored.FreeNodes(), s.FreeNodes())
	}
	rf, errF := s.Rebalance(ctx)
	rr, errR := restored.Rebalance(ctx)
	if err := sameErr(errR, errF); err != nil {
		t.Fatalf("post-restore Rebalance: %v", err)
	}
	if !reflect.DeepEqual(rf, rr) {
		t.Fatalf("post-restore Rebalance diverged:\nrestored %+v\noriginal %+v", rr, rf)
	}
}

// TestPreviewParityResident is the exactness check on fleet-shaped traffic:
// the paper catalog at four sizes previewed against a resident population
// that randomized admits, releases and rebalances keep churning, so the
// free mask moves between two previews of the same shape — the case the
// shape table exists for. After every operation every shape is previewed
// on both sides and must agree field for field and error for error.
func TestPreviewParityResident(t *testing.T) {
	ctx := context.Background()
	sizes := []int{8, 16, 24, 32}
	s, ref := newParityPair(t, machines.AMD(), ServeConfig{GoalFrac: 0.5}, sizes...)
	l := &lockstep{s: s, ref: ref, ws: workloads.Paper(), sizes: sizes}
	ops := 300
	if testing.Short() {
		ops = 60
	}
	rng := xrand.New(7)
	masks := map[uint64]bool{}
	full, fit := 0, 0
	for i := 0; i < ops; i++ {
		if _, err := l.step(ctx, weighted(rng, [numOps]int{55, 37, 0, 8}), rng.Intn(1<<16)); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		masks[uint64(s.FreeNodes())] = true
		for _, w := range l.ws {
			for _, v := range sizes {
				pv, err := l.preview(ctx, w, v)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if pv == nil {
					full++
				} else {
					fit++
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

// TestReferenceCatchesPoisonedCache guards against an oracle that agrees
// with anything: a scored free-set entry for the live mask overwritten with
// another node set of the same size, and a prepared observation overwritten
// with one made from another placement's threads, must each make the next
// Place diverge from the reference.
func TestReferenceCatchesPoisonedCache(t *testing.T) {
	ctx := context.Background()
	model := trainParityModel(t, machines.AMD(), 16)
	cfg := ServeConfig{GoalFrac: 0.5}
	w, _ := workloads.ByName("WTbtree")
	imps, p := model.imps[16], model.preds[16]
	// One tenant resident, so the live mask is not the full one.
	resident := func() *lockstep {
		s, ref := model.pair(cfg)
		l := &lockstep{s: s, ref: ref}
		if err := l.admit(ctx, w, 16); err != nil {
			t.Fatal(err)
		}
		return l
	}

	// The scored free set the next admission will look up: the class size
	// it will choose, computed as Place computes it.
	l := resident()
	vec := make([]float64, p.NumPlacements)
	obs, err := l.s.observePredict(ctx, w, 16, imps, p, admitTrial(l.s.nextID), vec)
	if err != nil {
		t.Fatal(err)
	}
	free := l.s.FreeNodes()
	class := scanBest(imps, vec, obs[0], cfg.goalFrac()*obs[0]*(1+headroom), free.Len())
	if class < 0 {
		t.Fatal("the next admission fits nowhere")
	}
	size := imps[class].Nodes.Len()
	best, _ := bestFreeSet(model.spec.Machine, free, size)
	other := best
	free.Subsets(size, func(s topology.NodeSet) {
		if other == best {
			other = s
		}
	})
	if other == best {
		t.Fatalf("%s has one %d-node subset; nothing to poison with", free, size)
	}
	l.s.fast.best.put(bestKey{free: free, size: size}, other)
	if err := l.admit(ctx, w, 16); err == nil {
		t.Fatalf("free-set entry (%s, %d) poisoned with %s in place of %s went undetected", free, size, other, best)
	}

	// The prepared observation of the base placement, replaced by one made
	// from the first other placement whose sample differs.
	l = resident()
	trial := admitTrial(l.s.nextID)
	truth, err := l.s.preparedObs(ctx, w, 16, imps, p.Base)
	if err != nil {
		t.Fatal(err)
	}
	var poison perfsim.Prepared
	for j := range imps {
		threads, err := placement.Pin(model.spec, imps[j].Placement, 16)
		if err != nil {
			t.Fatal(err)
		}
		if poison, err = perfsim.Prepare(model.spec.Machine, w, threads); err != nil {
			t.Fatal(err)
		}
		if poison.At(trial) != truth.At(trial) {
			break
		}
	}
	if poison.At(trial) == truth.At(trial) {
		t.Fatal("every placement observes alike; nothing to poison with")
	}
	l.s.fast.obs.put(obsKey{name: w.Name, v: 16, pi: p.Base}, &obsEntry{w: w, prep: poison})
	if err := l.admit(ctx, w, 16); err == nil {
		t.Fatal("a prepared observation poisoned with another placement's threads went undetected")
	}
}

// FuzzSchedulerParity decodes each input byte into one operation — its
// residue mod numOps picks admit, release, preview, rebalance, re-adopt or
// replayed move, the quotient the workload, size, tenant or target — applies
// it to a fresh Scheduler and a fresh reference, and requires equal results,
// errors and free masks after every operation and equal books at the end.
// The predictors are trained once per process.
func FuzzSchedulerParity(f *testing.F) {
	sizes := []int{16, 8}
	model := trainParityModel(f, machines.AMD(), sizes...)
	ws := workloadsNamed(f, "WTbtree", "gcc", "canneal", "streamcluster", "pca")
	for _, seed := range [][]byte{
		{0, 6, 12, 18, 24, 30, 36, 42, 3, 1, 7, 3, 2, 8},
		{0, 0, 0, 0, 0, 4, 5, 11, 17, 3, 10, 9},
		{30, 30, 30, 30, 1, 13, 3, 5, 23, 2, 4, 10, 3},
		{1, 2, 3, 4, 5},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		ctx := context.Background()
		s, ref := model.pair(ServeConfig{GoalFrac: 0.5})
		l := &lockstep{s: s, ref: ref, ws: ws, sizes: sizes}
		for i, b := range ops {
			if _, err := l.step(ctx, int(b)%numOps, int(b)/numOps); err != nil {
				t.Fatalf("op %d (byte %d): %v", i, b, err)
			}
		}
		if err := l.same(); err != nil {
			t.Fatal(err)
		}
	})
}

// sharedLockstep builds two lockstep pairs whose Schedulers share one table
// set, as two engines of one machine model do, but serve with different
// predictors (models a and b, trained on the same machine) and different
// goals. Each Scheduler enumerates and pins through the set; each reference
// recomputes from its own model, sharing nothing.
func sharedLockstep(a, b *parityModel, ws []perfsim.Workload, sizes []int) (*Tables, [2]*lockstep) {
	ts := NewTables(a.spec)
	var sides [2]*lockstep
	for i, pm := range [2]*parityModel{a, b} {
		cfg := ServeConfig{GoalFrac: []float64{0.5, 0.8}[i]}
		_, ref := pm.pair(cfg)
		sides[i] = &lockstep{s: usePredictors(NewSharedScheduler(ts, new(Stats), cfg), pm.preds), ref: ref, ws: ws, sizes: sizes}
	}
	return ts, sides
}

// sharedOnce checks that two Schedulers sharing ts did each piece of cold
// work once between them: every prepared observation and every scored free
// set in the set was made by exactly one of them.
func sharedOnce(ts *Tables, sides [2]*lockstep) error {
	var prepares, searches int64
	for _, l := range sides {
		prepares += l.s.fast.st.Prepares.Load()
		searches += l.s.fast.st.Searches.Load()
	}
	if obs := cacheLen(&ts.obs); prepares != obs {
		return fmt.Errorf("%d observations prepared for %d in the shared set", prepares, obs)
	}
	if best := cacheLen(&ts.best); searches != best {
		return fmt.Errorf("%d free sets searched for %d in the shared set", searches, best)
	}
	return nil
}

func cacheLen[K comparable, V any](c *cowCache[K, V]) int64 {
	if m := c.m.Load(); m != nil {
		return int64(len(*m))
	}
	return 0
}

// TestSharedTablesParity drives two Schedulers over one table set — two
// engines of one model with different predictors and goals — each in
// lockstep with its own reference, through one 400-op trace that interleaves
// their operations. An entry one side made that the other then read
// inexactly — a key missing an input it depends on, a predictor or goal
// reaching the shared set — makes that side diverge from its oracle.
func TestSharedTablesParity(t *testing.T) {
	ctx := context.Background()
	sizes := []int{16, 8}
	ts, sides := sharedLockstep(trainParityModel(t, machines.AMD(), sizes...),
		trainParityModelSeed(t, machines.AMD(), 2, sizes...),
		workloadsNamed(t, "WTbtree", "gcc", "canneal", "streamcluster", "pca"), sizes)
	rng := xrand.New(0x5eed)
	var applied [2][numOps]int
	for i := 0; i < 400; i++ {
		side, op := rng.Intn(2), weighted(rng, [numOps]int{42, 26, 12, 8, 6, 6})
		ok, err := sides[side].step(ctx, op, rng.Intn(1<<16))
		if err != nil {
			t.Fatalf("op %d on side %d: %v", i, side, err)
		}
		if ok {
			applied[side][op]++
		}
	}
	t.Logf("applied per side (admit, release, preview, rebalance, adopt, move): %v", applied)
	for side, l := range sides {
		if slices.Contains(applied[side][:], 0) {
			t.Fatalf("degenerate trace on side %d: %v", side, applied[side])
		}
		if err := l.same(); err != nil {
			t.Fatalf("side %d final state: %v", side, err)
		}
	}
	if err := sharedOnce(ts, sides); err != nil {
		t.Fatal(err)
	}
}

// FuzzSharedTablesParity is FuzzSchedulerParity over TestSharedTablesParity's
// two sides: each byte's low bit picks the side, the rest decodes into one
// operation as there.
func FuzzSharedTablesParity(f *testing.F) {
	sizes := []int{16, 8}
	a := trainParityModel(f, machines.AMD(), sizes...)
	b := trainParityModelSeed(f, machines.AMD(), 2, sizes...)
	ws := workloadsNamed(f, "WTbtree", "gcc", "canneal", "streamcluster", "pca")
	for _, seed := range [][]byte{
		{0, 1, 12, 13, 24, 25, 36, 37, 6, 7, 2, 3, 14, 15},
		{0, 0, 1, 1, 60, 61, 8, 9, 10, 11, 4, 5, 22, 23},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		ctx := context.Background()
		ts, sides := sharedLockstep(a, b, ws, sizes)
		for i, by := range ops {
			if _, err := sides[by&1].step(ctx, int(by>>1)%numOps, int(by>>1)/numOps); err != nil {
				t.Fatalf("op %d (byte %d): %v", i, by, err)
			}
		}
		for side, l := range sides {
			if err := l.same(); err != nil {
				t.Fatalf("side %d: %v", side, err)
			}
		}
		if err := sharedOnce(ts, sides); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPreviewWarmAllocs gates what a mask change costs a warm preview:
// with the shape table and the best sets of both masks cached, swinging the
// free mask between two previews of one shape allocates nothing beyond the
// returned *Preview.
func TestPreviewWarmAllocs(t *testing.T) {
	ctx := context.Background()
	fast, _ := newParityPair(t, machines.AMD(), ServeConfig{GoalFrac: 0.5}, 16)
	w, _ := workloads.ByName("WTbtree")
	a, err := fast.Place(ctx, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	masks := [2]uint64{uint64(fast.FreeNodes()), uint64(fast.FreeNodes().Union(a.Nodes))}
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
