package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// The oracle: routing as it was before the class pass — preview every
// candidate, stable-sort by score, stable-partition by domain occupancy read
// off a walk of the tenant map. The pass must return its order and its
// rejections for every fleet state.

type oracleScored struct {
	m     *member
	score float64
}

func oracleSort(sc []oracleScored) []*member {
	slices.SortStableFunc(sc, func(a, b oracleScored) int { return cmp.Compare(a.score, b.score) })
	out := make([]*member, 0, len(sc))
	for _, s := range sc {
		out = append(out, s.m)
	}
	return out
}

func oracleByPreview(ctx context.Context, mems []*member, w perfsim.Workload, vcpus int) ([]*member, []error) {
	var errs []error
	var sc []oracleScored
	for _, m := range mems {
		pv, err := m.b.Preview(ctx, w, vcpus)
		if err != nil {
			errs = append(errs, &previewErr{m.name, err})
			continue
		}
		sc = append(sc, oracleScored{m, -pv.PredictedPerf})
	}
	return oracleSort(sc), errs
}

func oracleSpread(ranked []*member, occupied map[string]bool) []*member {
	var out []*member
	for _, m := range ranked {
		if !occupied[m.domain] {
			out = append(out, m)
		}
	}
	for _, m := range ranked {
		if occupied[m.domain] {
			out = append(out, m)
		}
	}
	return out
}

// oracleCandidates is the admission order and the preview rejections.
// Callers hold no lock; the fleet is quiescent.
func oracleCandidates(ctx context.Context, f *Fleet, w perfsim.Workload, vcpus int) ([]*member, []error) {
	var mems []*member
	for _, m := range f.members {
		if m.accepting() {
			mems = append(mems, m)
		}
	}
	var errs []error
	switch f.cfg.Policy {
	case LeastLoaded:
		sc := make([]oracleScored, len(mems))
		for i, m := range mems {
			sc[i] = oracleScored{m, m.utilization()}
		}
		mems = oracleSort(sc)
	case BestPredicted:
		mems, errs = oracleByPreview(ctx, mems, w, vcpus)
	}
	if f.cfg.SpreadDomains {
		mems = oracleSpread(mems, occupiedWalk(f, w.Name, -1))
	}
	return mems, errs
}

// oracleDests is the destination order of moving tenant id off its machine.
func oracleDests(ctx context.Context, f *Fleet, id int, minUtil float64) []*member {
	rec := f.tenants[id]
	var sc []oracleScored
	for _, d := range f.members {
		if d == rec.mem || !d.accepting() {
			continue
		}
		if u := d.utilization(); u > minUtil {
			sc = append(sc, oracleScored{d, -u})
		}
	}
	dests := oracleSort(sc)
	if f.cfg.Policy == BestPredicted {
		dests, _ = oracleByPreview(ctx, dests, rec.w, rec.vcpus)
	}
	if f.cfg.SpreadDomains {
		dests = oracleSpread(dests, occupiedWalk(f, rec.w.Name, id))
	}
	return dests
}

func memberNames(mems []*member) string {
	names := make([]string, len(mems))
	for i, m := range mems {
		names[i] = m.name
	}
	return strings.Join(names, " ")
}

func errorTexts(errs []error) string {
	texts := make([]string, len(errs))
	for i, err := range errs {
		texts[i] = err.Error()
	}
	return strings.Join(texts, "; ")
}

// CheckRouting compares the pass with the oracle for an admission of
// (w, vcpus) against f's current, quiescent state: the candidate order and
// the preview rejections. It returns the number of classes the pass met.
// Exported for the tests over real Engines (package fleet_test: this package
// cannot import the root one).
func (f *Fleet) CheckRouting(ctx context.Context, w perfsim.Workload, vcpus int) (classes int, err error) {
	var s routeScratch
	q := routeQuery{by: f.cfg.Policy.scoring(), w: w, vcpus: vcpus}
	got, err := f.candidates(ctx, &s, &q)
	if err != nil {
		return 0, err
	}
	want, wantErrs := oracleCandidates(ctx, f, w, vcpus)
	if g, w := memberNames(got), memberNames(want); g != w {
		return 0, fmt.Errorf("candidates [%s], a preview fan-out ranks [%s]", g, w)
	}
	if g, w := errorTexts(s.rejections(ctx, &q)), errorTexts(wantErrs); g != w {
		return 0, fmt.Errorf("rejections %q, a preview fan-out collects %q", g, w)
	}
	return len(s.classes), nil
}

// checkDestOrder compares both steps of a move's destination order for
// tenant id with the oracle.
func (f *Fleet) checkDestOrder(ctx context.Context, id int, minUtil float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	rec := f.tenants[id]
	dests, err := f.orderDestsLocked(ctx, rec, f.eligibleDestsLocked(rec.mem, minUtil))
	if err != nil {
		return err
	}
	if g, w := memberNames(dests), memberNames(oracleDests(ctx, f, id, minUtil)); g != w {
		return fmt.Errorf("moving %d off %s above %.2f: destinations [%s], the oracle orders [%s]", id, rec.mem.name, minUtil, g, w)
	}
	return nil
}

// rowStub is a stubBackend whose preview depends on its free-node count, as
// an engine's does: row[n] is the predicted performance with n nodes free,
// and the preview fails where it is not positive.
type rowStub struct {
	*stubBackend
	row []float64
}

func (s *rowStub) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	if s.previewErr != nil {
		return nil, s.previewErr
	}
	free := s.FreeNodes().Len()
	if s.row[free] <= 0 {
		return nil, fmt.Errorf("stub: %d free nodes cannot host it: %w", free, nperr.ErrMachineFull)
	}
	return &sched.Preview{PredictedPerf: s.row[free]}, nil
}

// stubClass is what the classed stubs of one score class share: the token,
// the row, and the injected failures that hit every preview of the class.
type stubClass struct {
	token   sched.ScoreClass
	m       machines.Machine
	row     []float64
	rowErr  error
	decline bool
	rows    int // ScoreRow calls
}

// classedStub is a rowStub with the ScoreClasser capability.
type classedStub struct {
	rowStub
	class *stubClass
}

func (s *classedStub) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	if s.class.rowErr != nil {
		return nil, s.class.rowErr
	}
	return s.rowStub.Preview(ctx, w, vcpus)
}

// ScoreClass declines while a failure is injected into this stub alone: it
// no longer previews as its class does.
func (s *classedStub) ScoreClass(vcpus int) (sched.ScoreClass, bool) {
	return s.class.token, !s.class.decline && s.previewErr == nil
}

func (s *classedStub) ScoreRow(ctx context.Context, w perfsim.Workload, vcpus int, class sched.ScoreClass) ([]sched.Score, error) {
	s.class.rows++
	if class != s.class.token {
		return nil, fmt.Errorf("stub: asked for the row of a class it is not in")
	}
	if s.class.rowErr != nil {
		return nil, s.class.rowErr
	}
	row := make([]sched.Score, len(s.class.row))
	for n, perf := range s.class.row {
		row[n] = sched.Score{Class: -1}
		if perf > 0 {
			row[n] = sched.Score{Class: 0, Perf: perf}
		}
	}
	return row, nil
}

// randomRow draws a by-free-count row from a small set of values, so equal
// scores recur within a row and across rows; the first entries are often
// zero (nothing fits in few nodes).
func randomRow(rng *xrand.SplitMix64, nodes int) []float64 {
	row := make([]float64, nodes+1)
	for n := 1 + rng.Intn(3); n <= nodes; n++ {
		row[n] = float64(1 + rng.Intn(4))
	}
	return row
}

// routeFleet is a random fleet of mixed stubs under test.
type routeFleet struct {
	f       *Fleet
	names   []string
	stubs   []*stubBackend // the plain stub inside each backend
	classes []*stubClass
	live    []int
}

var routeWorkloads = []string{"swaptions", "streamcluster", "canneal"}

// newRouteFleet builds n members: plain stubs with one fixed preview score
// (drawn from few values, or all distinct), unclassed stubs with a row of
// their own, and classed stubs sharing a few classes — over labeled and
// unlabeled domains.
func newRouteFleet(t *testing.T, rng *xrand.SplitMix64, cfg Config, n int, distinct bool) *routeFleet {
	t.Helper()
	rf := &routeFleet{f: New(cfg)}
	models := []machines.Machine{machines.AMD(), machines.Intel()}
	for c := 0; c < 1+rng.Intn(3); c++ {
		m := models[rng.Intn(len(models))]
		rf.classes = append(rf.classes, &stubClass{
			token: sched.ScoreClass{Machine: uint64(c + 1)}, m: m, row: randomRow(rng, m.Topo.NumNodes),
		})
	}
	domains := []string{"", "", "rack-0", "rack-1", "rack-2"}
	for i := 0; i < n; i++ {
		m := models[rng.Intn(len(models))]
		perf := float64(1 + rng.Intn(4))
		if distinct {
			perf = float64(n - i)
		}
		var b Backend
		var stub *stubBackend
		switch k := rng.Intn(10); {
		case k < 3 || distinct:
			stub = newStub(m, perf)
			b = stub
		case k < 5:
			stub = newStub(m, perf)
			b = &rowStub{stub, randomRow(rng, m.Topo.NumNodes)}
		default:
			class := rf.classes[rng.Intn(len(rf.classes))]
			stub = newStub(class.m, perf)
			b = &classedStub{rowStub{stub, class.row}, class}
		}
		name := fmt.Sprintf("m%d", i)
		if err := rf.f.Add(name, b, InDomain(domains[rng.Intn(len(domains))])); err != nil {
			t.Fatal(err)
		}
		rf.names = append(rf.names, name)
		rf.stubs = append(rf.stubs, stub)
	}
	return rf
}

// perturb applies one random operation: admissions and releases move free
// counts and occupancy, drains, missed probes and failures close and kill
// members (and run moves), injected errors fail previews.
func (rf *routeFleet) perturb(t *testing.T, ctx context.Context, rng *xrand.SplitMix64) {
	f, name := rf.f, rf.names[rng.Intn(len(rf.names))]
	stub := rf.stubs[rng.Intn(len(rf.stubs))]
	class := rf.classes[rng.Intn(len(rf.classes))]
	switch k := rng.Intn(100); {
	case k < 50:
		if adm, err := f.Place(ctx, testWorkload(t, routeWorkloads[rng.Intn(len(routeWorkloads))]), 4); err == nil {
			rf.live = append(rf.live, adm.ID)
		}
	case k < 65 && len(rf.live) > 0:
		i := rng.Intn(len(rf.live))
		if err := f.Release(ctx, rf.live[i]); err != nil {
			t.Fatal(err)
		}
		rf.live = append(rf.live[:i], rf.live[i+1:]...)
	case k < 70:
		f.Drain(ctx, name) // a partial drain is a result
	case k < 74:
		f.Resume(name)
	case k < 80:
		f.MissProbe(ctx, name)
		f.MissProbe(ctx, name)
	case k < 83:
		f.Heartbeat(name)
	case k < 86:
		f.Fail(ctx, name)
	case k < 88:
		f.Revive(ctx, name)
	case k < 92:
		stub.previewErr = fmt.Errorf("observation failed: %w", nperr.ErrUntrained)
	case k < 94:
		stub.previewErr = nil
	case k < 96:
		class.rowErr = fmt.Errorf("no row: %w", nperr.ErrMachineMismatch)
	case k < 98:
		class.rowErr = nil
	default:
		class.decline = !class.decline
	}
}

// TestRoutePassIsTheFanOut checks the class pass against the preview
// fan-out over random fleet states: every policy, domain spreading on and
// off, classed and unclassed backends mixed, equal and all-distinct scores,
// drained, suspect and dead members, failing previews and failing rows — the
// admission's candidate order and rejection message, and the destination
// order of moving a resident tenant.
func TestRoutePassIsTheFanOut(t *testing.T) {
	ctx := context.Background()
	rng := xrand.New(16)
	errInjected := errors.New("injected place failure")
	states := 0
	for trial := 0; trial < 240; trial++ {
		cfg := Config{
			Policy:        Policy(trial % 3),
			SpreadDomains: rng.Intn(2) == 0,
			Health:        HealthConfig{FailoverBudgetSeconds: -1},
		}
		rf := newRouteFleet(t, rng, cfg, 1+rng.Intn(24), trial%8 == 7)
		f := rf.f
		for step := 0; step < 10; step++ {
			for ops := rng.Intn(8); ops >= 0; ops-- {
				rf.perturb(t, ctx, rng)
			}
			states++
			w := testWorkload(t, routeWorkloads[rng.Intn(len(routeWorkloads))])
			if _, err := f.CheckRouting(ctx, w, 4); err != nil {
				t.Fatalf("trial %d step %d (%s, spread %v): %v", trial, step, cfg.Policy, cfg.SpreadDomains, err)
			}
			for _, id := range rf.live {
				for _, minUtil := range []float64{-1, 0.25} {
					if err := f.checkDestOrder(ctx, id, minUtil); err != nil {
						t.Fatalf("trial %d step %d (%s, spread %v): %v", trial, step, cfg.Policy, cfg.SpreadDomains, err)
					}
				}
			}

			// The rejection as Place words it, when every candidate refuses.
			cands, errs := oracleCandidates(ctx, f, w, 4)
			for _, m := range cands {
				errs = append(errs, fmt.Errorf("%s: %w", m.name, errInjected))
			}
			errs = append(errs, nperr.ErrFleetFull)
			if len(cands) == 0 {
				errs = append(errs, nperr.ErrNoHealthyBackend)
			}
			want := fmt.Errorf("fleet: placing %d-vCPU %q: %w", 4, w.Name, errors.Join(errs...))
			for _, s := range rf.stubs {
				s.placeErr = errInjected
			}
			_, err := f.Place(ctx, w, 4)
			for _, s := range rf.stubs {
				s.placeErr = nil
			}
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("trial %d step %d (%s): Place rejected with\n%v\nthe fan-out words it\n%v", trial, step, cfg.Policy, err, want)
			}
			if errors.Is(err, nperr.ErrNoHealthyBackend) != (len(cands) == 0) || !errors.Is(err, nperr.ErrFleetFull) {
				t.Fatalf("trial %d step %d: rejection %v carries the wrong sentinels for %d candidates", trial, step, err, len(cands))
			}
		}
	}
	if states < 2000 {
		t.Fatalf("checked %d states, want at least 2000", states)
	}
}

// TestRouteOneRowPerClass pins the point of the pass: a fleet of classed
// backends is scored from one row per class, whatever its size, and a
// backend that declines is previewed instead.
func TestRouteOneRowPerClass(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: BestPredicted})
	classes := []*stubClass{
		{token: sched.ScoreClass{Machine: 1}, m: machines.AMD(), row: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{token: sched.ScoreClass{Machine: 2}, m: machines.Intel(), row: []float64{0, 9, 9, 9, 9}},
	}
	for i := 0; i < 64; i++ {
		class := classes[i%2]
		b := &classedStub{rowStub{newStub(class.m, 0), class.row}, class}
		if err := f.Add(fmt.Sprintf("m%d", i), b); err != nil {
			t.Fatal(err)
		}
	}
	w := testWorkload(t, "swaptions")
	adm, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Backend != "m1" {
		t.Fatalf("admitted on %s, want m1: the first machine of the class promising 9", adm.Backend)
	}
	if classes[0].rows != 1 || classes[1].rows != 1 {
		t.Fatalf("one admission over 64 machines fetched %d and %d rows, want one per class", classes[0].rows, classes[1].rows)
	}
	classes[1].decline = true
	if n, err := f.CheckRouting(ctx, w, 4); err != nil || n != 1 {
		t.Fatalf("with one class declining the pass met %d classes (err %v), want 1", n, err)
	}
}

// TestRouteManyClasses drives the pass far past the few classes a real fleet
// has: every member its own class, every score distinct.
func TestRouteManyClasses(t *testing.T) {
	const classes = 24
	ctx := context.Background()
	f := New(Config{Policy: BestPredicted, SpreadDomains: true})
	m := machines.Intel()
	for i := 0; i < classes; i++ {
		class := &stubClass{token: sched.ScoreClass{Machine: uint64(i + 1)}, m: m,
			row: []float64{0, float64(i%7 + 1), float64(i + 1), float64(i + 1), float64(i + 1)}}
		b := &classedStub{rowStub{newStub(m, 0), class.row}, class}
		if err := f.Add(fmt.Sprintf("m%d", i), b, InDomain(fmt.Sprintf("rack-%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	w := testWorkload(t, "canneal")
	for i := 0; i < classes*m.Topo.NumNodes; i++ {
		if n, err := f.CheckRouting(ctx, w, 4); err != nil || n != classes {
			t.Fatalf("admission %d: %d classes, err %v", i, n, err)
		}
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
	}
	if _, err := f.Place(ctx, w, 4); !errors.Is(err, nperr.ErrFleetFull) {
		t.Fatalf("a full fleet answered %v", err)
	}
}
