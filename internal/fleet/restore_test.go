package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"testing"

	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
)

// replayEach is Restore as a per-record replay: the snapshot's records, then
// each log record above its sequence, redone on the real backends in log
// order. It is the oracle the replay into ledgers is held to.
func (f *Fleet) replayEach(ctx context.Context, st *State, recs []Record, lookup WorkloadLookup) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.unusedLocked(); err != nil {
		return err
	}
	defer f.rebuildIndexLocked()
	if st != nil {
		if err := f.applyStateLocked(ctx, st, lookup); err != nil {
			return err
		}
	}
	return f.replayLogLocked(ctx, recs, lookup)
}

// stubBuild makes a fresh fleet of stubs, the stubs in add order.
type stubBuild func() (*Fleet, []*stubBackend)

// stubFleetBuild is stubFleet as a stubBuild.
func stubFleetBuild(t testing.TB, cfg Config) stubBuild {
	return func() (*Fleet, []*stubBackend) {
		f, stubs := stubFleet(t, cfg)
		return f, []*stubBackend{stubs["a"], stubs["b"], stubs["c"]}
	}
}

// twinRestore is a log restored by Restore into a fleet of stubs, compared
// with the same log replayed by replayEach into another.
type twinRestore struct {
	f     *Fleet
	stubs []*stubBackend
	err   error  // Restore's
	diff  string // how Restore differs from replayEach, "" if in nothing
}

// replayErrSentinels are the refusals a replay can carry.
var replayErrSentinels = []error{nperr.ErrLogCorrupt, nperr.ErrUnknownContainer, nperr.ErrBadObservation,
	nperr.ErrBackendDown, nperr.ErrUntrained, nperr.ErrMachineMismatch, nperr.ErrInfeasible}

// failedRecord is the record a replay error names.
var failedRecord = regexp.MustCompile(`^fleet: (?:replaying|restoring snapshot) record \d+ \([^)]*\)`)

// restoreBoth restores st and recs by Restore and by replayEach, each into a
// fleet build makes. The two must both fail, at the same record and with the
// same sentinels, or both succeed with the same books, and with stubs that
// hold the same entries (dead machines' orphans included), have the same
// nodes free and would hand out the same next engine ID.
func restoreBoth(build stubBuild, st *State, recs []Record) twinRestore {
	ctx := context.Background()
	got, gotStubs := build()
	want, wantStubs := build()
	run := twinRestore{f: got, stubs: gotStubs, err: got.Restore(ctx, st, recs, lookupWorkload)}
	werr := want.replayEach(ctx, st, recs, lookupWorkload)
	if (run.err == nil) != (werr == nil) {
		run.diff = fmt.Sprintf("Restore: %v; replayEach: %v", run.err, werr)
		return run
	}
	if run.err != nil {
		at, wat := failedRecord.FindString(run.err.Error()), failedRecord.FindString(werr.Error())
		if at == "" || at != wat {
			run.diff = fmt.Sprintf("Restore failed at %q (%v), replayEach at %q (%v)", at, run.err, wat, werr)
		}
		for _, s := range replayErrSentinels {
			if errors.Is(run.err, s) != errors.Is(werr, s) {
				run.diff = fmt.Sprintf("Restore: %v; replayEach: %v: they differ on %v", run.err, werr, s)
			}
		}
		return run
	}
	if run.diff = fleetDiff(want, got); run.diff != "" {
		return run
	}
	for i, g := range gotStubs {
		if run.diff = stubDiff(wantStubs[i], g); run.diff != "" {
			run.diff = fmt.Sprintf("stub %d: %s", i, run.diff)
			return run
		}
	}
	return run
}

// stubDiff says how stub got differs from want: its entries, its free nodes
// or its next engine ID.
func stubDiff(want, got *stubBackend) string {
	entries := func(s *stubBackend) []sched.Assignment {
		as := s.Assignments()
		slices.SortFunc(as, func(a, b sched.Assignment) int { return a.ID - b.ID })
		return as
	}
	if w, g := entries(want), entries(got); !same(g, w) {
		return fmt.Sprintf("entries %+v, want %+v", g, w)
	}
	if w, g := want.FreeNodes(), got.FreeNodes(); g != w {
		return fmt.Sprintf("nodes %v free, want %v", g, w)
	}
	want.mu.Lock()
	got.mu.Lock()
	defer want.mu.Unlock()
	defer got.mu.Unlock()
	if got.nextID != want.nextID {
		return fmt.Sprintf("next engine ID %d, want %d", got.nextID, want.nextID)
	}
	return ""
}

// TestRestoreEqualsReplayEach holds Restore to replayEach over the churn
// trace (a dead machine with orphans and its revival included), from the log
// alone and from a snapshot and its tail; TestEveryLogPrefixReplays does it
// for every prefix of a longer trace.
func TestRestoreEqualsReplayEach(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Policy: LeastLoaded, Health: HealthConfig{FailoverBudgetSeconds: -1}}
	f, _ := stubFleet(t, cfg)
	p := &memPersister{}
	f.SetPersister(p)
	w := testWorkload(t, "swaptions")
	for range 2 {
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(t, ctx, f)
	recs := p.records()
	build := stubFleetBuild(t, cfg)
	for _, st := range []*State{nil, p.snap} {
		run := restoreBoth(build, st, recs)
		if run.err != nil || run.diff != "" {
			t.Fatalf("snapshot %v: %v %s", st != nil, run.err, run.diff)
		}
		requireFleetEqual(t, f, run.f)
	}
}

// TestRestoreAdoptCallsDoNotGrowWithChurn: on a log shaped like
// BenchmarkRecovery's — a few resident tenants, then admissions each released
// at once — ending in a machine's death and failover, which leaves orphans on
// it, Restore adopts no more often than once per distinct tuple, survivor and
// orphan and once per backend; twice the churn adopts no more.
func TestRestoreAdoptCallsDoNotGrowWithChurn(t *testing.T) {
	cfg := Config{Policy: LeastLoaded}
	build := stubFleetBuild(t, cfg)
	adopts := func(pairs int) (calls, bound int) {
		t.Helper()
		ctx := context.Background()
		f, _ := build()
		p := &memPersister{}
		f.SetPersister(p)
		w := testWorkload(t, "swaptions")
		for i := range 8 + pairs {
			adm, err := f.Place(ctx, w, 4)
			if err != nil {
				t.Fatal(err)
			}
			if i >= 8 {
				if err := f.Release(ctx, adm.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		if rep, err := f.Fail(ctx, "a"); err != nil || len(rep.Moves) == 0 {
			t.Fatalf("fail moved %v (%v), want a tenant moved off", rep, err)
		}
		recs := p.records()
		run := restoreBoth(build, nil, recs)
		if run.err != nil || run.diff != "" {
			t.Fatalf("%d pairs: %v %s", pairs, run.err, run.diff)
		}
		type tuple struct {
			backend string
			v       sched.Verdict
		}
		tuples := map[tuple]bool{}
		for _, r := range recs {
			rr := restoreOf(&r, perfsim.Workload{}, r.VCPUs)
			v := rr.Verdict()
			switch r.Type {
			case RecPlace:
				tuples[tuple{r.Backend, v}] = true
			case RecMove:
				tuples[tuple{r.Dest, v}] = true
			}
		}
		entries := 0
		for _, s := range run.stubs {
			calls += s.adopts
			entries += len(s.Assignments())
		}
		orphans := entries - run.f.Len()
		if orphans == 0 {
			t.Fatalf("%d pairs: the dead machine holds no orphans", pairs)
		}
		return calls, len(tuples) + run.f.Len() + orphans + len(run.stubs)
	}
	calls, bound := adopts(500)
	if calls > bound {
		t.Fatalf("Restore made %d Adopt calls, more than tuples + survivors + orphans + backends = %d", calls, bound)
	}
	if twice, _ := adopts(1000); twice != calls {
		t.Fatalf("twice the churn made %d Adopt calls, once %d", twice, calls)
	}
}

// TestRestoreAdoptsOnlyAtTheInstall: a restart from a snapshot and a churned
// tail leaves nothing on an engine until the install. Before it, each Adopt
// judges a verdict key and is released again at once; the install then
// adopts each survivor once, after at most one adopt and release that sets
// the ID allocator. So Restore adopts at most once per distinct (backend,
// verdict) tuple of the snapshot and the tail, once per survivor and once
// per backend, however long the tail.
func TestRestoreAdoptsOnlyAtTheInstall(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Policy: LeastLoaded}
	f, _ := stubFleet(t, cfg)
	p := &memPersister{}
	f.SetPersister(p)
	w := testWorkload(t, "swaptions")
	var ids []int
	for range 16 {
		adm, err := f.Place(ctx, w, 4)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, adm.ID)
	}
	if _, err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ids); i += 2 {
		if err := f.Release(ctx, ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 200 { // every 20th stays
		adm, err := f.Place(ctx, w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if i%20 != 0 {
			if err := f.Release(ctx, adm.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	type call struct {
		adopt bool
		id    int
	}
	calls := map[*stubBackend][]call{}
	build := func() (*Fleet, []*stubBackend) {
		f, stubs := stubFleetBuild(t, cfg)()
		for _, s := range stubs {
			s.onCall = func(adopt bool, id int) { calls[s] = append(calls[s], call{adopt, id}) }
		}
		return f, stubs
	}
	run := restoreBoth(build, p.snap, p.records())
	if run.err != nil || run.diff != "" {
		t.Fatalf("%v %s", run.err, run.diff)
	}
	requireFleetEqual(t, f, run.f)

	type tuple struct {
		backend string
		v       sched.Verdict
	}
	tuples, placed := map[tuple]bool{}, 0
	for _, recs := range [][]Record{p.snap.Records, p.records()} {
		for _, r := range recs {
			rr := restoreOf(&r, perfsim.Workload{}, r.VCPUs)
			switch r.Type {
			case RecPlace:
				tuples[tuple{r.Backend, rr.Verdict()}] = true
				placed++
			case RecMove:
				tuples[tuple{r.Dest, rr.Verdict()}] = true
				placed++
			}
		}
	}
	adopts, survivors := 0, 0
	for i, s := range run.stubs {
		adopts += s.adopts
		held := s.Assignments()
		survivors += len(held)
		log := calls[s]
		judged := len(log) - len(held)
		if judged < 0 || judged%2 != 0 {
			t.Fatalf("stub %d: %d calls for %d entries held: %v", i, len(log), len(held), log)
		}
		for j := 0; j < judged; j += 2 {
			if !log[j].adopt || log[j+1].adopt || log[j+1].id != log[j].id {
				t.Fatalf("stub %d: calls %d and %d before the install are %v, want an Adopt and the Release of its ID", i, j, j+1, log[j:j+2])
			}
		}
		var got, want []call
		for j, a := range held {
			got, want = append(got, log[judged+j]), append(want, call{true, a.ID})
		}
		slices.SortFunc(got, func(a, b call) int { return a.id - b.id })
		slices.SortFunc(want, func(a, b call) int { return a.id - b.id })
		if !slices.Equal(got, want) {
			t.Fatalf("stub %d: the install made %v, want an Adopt of each of %v", i, got, want)
		}
	}
	bound := len(tuples) + survivors + len(run.stubs)
	if adopts > bound {
		t.Fatalf("Restore made %d Adopt calls, more than tuples + survivors + backends = %d", adopts, bound)
	}
	if bound >= placed {
		t.Fatalf("the bound %d is not below one Adopt per placement (%d): the tail churns too little to test it", bound, placed)
	}
}

// TestRestoreSetsTheAllocatorBeforeAMove: a tenant the tail places with the
// highest engine ID, in a tuple an earlier one had the engine accept, and
// releases again, is never adopted by a judging. The install adopts and
// releases it on the empty engine before any survivor, so the allocator
// ends past its ID — also when a snapshot tenant then moved onto nodes it
// held, and when it had moved off them before its release.
func TestRestoreSetsTheAllocatorBeforeAMove(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Policy: FirstFit}
	f, _ := stubFleet(t, cfg)
	p := &memPersister{}
	f.SetPersister(p)
	adm, err := f.Place(ctx, testWorkload(t, "swaptions"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	low := adm.Assignment.Nodes.Lowest()
	n1, n2 := topology.NewNodeSet(low+1), topology.NewNodeSet(low+2)
	place := func(id, engineID int) Record {
		return Record{Type: RecPlace, ID: id, Backend: adm.Backend, Workload: "swaptions", VCPUs: 4,
			EngineID: engineID, ClassID: 1, Nodes: n1, BasePerf: 1, ProbePerf: 1}
	}
	release := func(id int) Record {
		return Record{Type: RecRelease, ID: id, Backend: adm.Backend, Workload: "swaptions", VCPUs: 4}
	}
	move := func(id, engineID int, to topology.NodeSet) Record {
		return Record{Type: RecIntraMove, ID: id, Backend: adm.Backend, EngineID: engineID, ClassID: 1, Nodes: to}
	}
	early, last := adm.ID+1, adm.ID+2 // engine IDs 3 and 5
	for _, tail := range [][]Record{
		{place(early, 3), release(early), place(last, 5), release(last), move(adm.ID, adm.Assignment.ID, n1)},
		{place(early, 3), move(early, 3, n2), release(early),
			place(last, 5), move(last, 5, n2), move(adm.ID, adm.Assignment.ID, n1), release(last)},
	} {
		for i := range tail {
			tail[i].Seq = p.snap.Seq + uint64(i) + 1
		}
		if run := restoreBoth(stubFleetBuild(t, cfg), p.snap, tail); run.err != nil || run.diff != "" {
			t.Errorf("tail of %d records: %v %s", len(tail), run.err, run.diff)
		}
	}
}

// FuzzRestoreMatchesReplay mutates one record of a valid stub trace — its
// nodes, class, engine ID, type, backend, either observation (0, negative,
// NaN or another positive value) or vCPU count — or drops or duplicates one,
// in the log or, with fromSnap, in a snapshot taken two places in, and holds
// Restore to replayEach on the result (restoreBoth).
func FuzzRestoreMatchesReplay(f *testing.F) {
	observations := []float64{0, -1, math.NaN(), 2.5}
	for _, seed := range []struct {
		at       uint16
		what     uint8
		val      uint16
		fromSnap bool
	}{{3, 0, 1, false}, {5, 1, 9, false}, {6, 2, 0, false}, {8, 3, 2, false}, {9, 4, 1, false}, {12, 5, 0, false},
		{12, 6, 0, false}, {20, 3, 4, false}, {1, 0, 7, false}, {3, 0, 2, true}, {4, 1, 3, true}, {2, 5, 0, true},
		{5, 7, 0, false}, {6, 7, 2, false}, {7, 8, 1, false}, {9, 9, 8, false}, {3, 7, 2, true}, {4, 9, 2, true}} {
		f.Add(seed.at, seed.what, seed.val, seed.fromSnap)
	}
	cfg := Config{Policy: LeastLoaded, Health: HealthConfig{FailoverBudgetSeconds: -1}}
	var (
		snap *State
		log  []Record
	)
	f.Fuzz(func(t *testing.T, at uint16, what uint8, val uint16, fromSnap bool) {
		if log == nil {
			ctx := context.Background()
			live, _ := stubFleet(t, cfg)
			p := &memPersister{}
			live.SetPersister(p)
			for range 2 {
				if _, err := live.Place(ctx, testWorkload(t, "swaptions"), 4); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := live.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			churn(t, ctx, live)
			snap, log = p.snap, p.records()
		}
		var st *State
		recs := slices.Clone(log)
		damaged := &recs
		if fromSnap {
			st = &State{}
			*st = *snap
			st.Records = slices.Clone(snap.Records)
			damaged = &st.Records
		}
		i := int(at) % len(*damaged)
		r := &(*damaged)[i]
		switch what % 10 {
		case 0:
			r.Nodes ^= topology.NodeSet(1) << (val % 10)
		case 1:
			r.ClassID = int(val % 10)
		case 2:
			r.EngineID = int(val % 16)
		case 3:
			r.Type = RecordType(val % 14) // one past the last type
		case 4:
			r.Backend = []string{"a", "b", "c", "zz"}[val%4]
		case 5:
			*damaged = slices.Delete(*damaged, i, i+1)
		case 6:
			*damaged = slices.Insert(*damaged, i, (*damaged)[i])
		case 7:
			r.BasePerf = observations[val%uint16(len(observations))]
		case 8:
			r.ProbePerf = observations[val%uint16(len(observations))]
		case 9:
			r.VCPUs = int(val % 9)
		}
		for j := range *damaged {
			(*damaged)[j].Seq = uint64(j + 1)
		}
		if run := restoreBoth(stubFleetBuild(t, cfg), st, recs); run.diff != "" {
			t.Fatal(run.diff)
		}
	})
}
