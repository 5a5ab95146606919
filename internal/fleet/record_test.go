package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// memPersister is an in-memory Persister: appends accumulate, Commit
// tracks the highest committed sequence (and can be made to fail), and
// Snapshot stores the last State handed to it.
type memPersister struct {
	mu        sync.Mutex
	recs      []Record
	committed uint64
	commitErr error
	snap      *State
	snapErr   error
}

func (p *memPersister) Append(r Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.recs = append(p.recs, r)
}

func (p *memPersister) Commit(seq uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.commitErr != nil {
		return p.commitErr
	}
	if seq > p.committed {
		p.committed = seq
	}
	return nil
}

func (p *memPersister) Snapshot(st State) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.snapErr != nil {
		return p.snapErr
	}
	p.snap = &st
	return nil
}

func (p *memPersister) records() []Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Record(nil), p.recs...)
}

func lookupWorkload(name string) (perfsim.Workload, bool) { return workloads.ByName(name) }

// stubFleet builds a three-stub fleet (two AMD + one Intel) under cfg.
func stubFleet(t testing.TB, cfg Config) (*Fleet, map[string]*stubBackend) {
	t.Helper()
	stubs := map[string]*stubBackend{
		"a": newStub(machines.AMD(), 1),
		"b": newStub(machines.AMD(), 2),
		"c": newStub(machines.Intel(), 3),
	}
	f := New(cfg)
	for _, name := range []string{"a", "b", "c"} {
		if err := f.Add(name, stubs[name]); err != nil {
			t.Fatal(err)
		}
	}
	return f, stubs
}

// churn drives a representative mutation mix through f: admissions across
// all machines, releases, a drain/resume cycle, a crash with automatic
// failover, a revive, a stranded-release, and a rebalance pass.
func churn(t testing.TB, ctx context.Context, f *Fleet) {
	t.Helper()
	w := testWorkload(t, "swaptions")
	var ids []int
	for i := 0; i < 10; i++ {
		adm, err := f.Place(ctx, w, 4)
		if err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
		ids = append(ids, adm.ID)
	}
	if err := f.Release(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain(ctx, "b"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := f.Resume("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fail(ctx, "a"); err != nil {
		t.Fatalf("fail: %v", err)
	}
	// One admission lands while "a" is dead, then the machine rejoins.
	if _, err := f.Place(ctx, w, 4); err != nil {
		t.Fatalf("place while dead: %v", err)
	}
	if _, err := f.Revive(ctx, "a"); err != nil {
		t.Fatalf("revive: %v", err)
	}
	// Health churn that ends mid-state: leave "c" suspect, the third miss a
	// change of count alone.
	for range 3 {
		if _, _, err := f.MissProbe(ctx, "c"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Release(ctx, ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Rebalance(ctx, 1e9); err != nil {
		t.Fatalf("rebalance: %v", err)
	}
}

// stateOf returns f's books as its snapshot would carry them.
func stateOf(f *Fleet) State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stateLocked()
}

// requireFleetEqual asserts the state of two fleets matches exactly: their
// books (as a snapshot carries them), assignments, stats, health, and the
// commit seq.
func requireFleetEqual(t *testing.T, want, got *Fleet) {
	t.Helper()
	if diff := fleetDiff(want, got); diff != "" {
		t.Fatal(diff)
	}
}

// fleetDiff says how got differs from want in what requireFleetEqual
// compares, "" if in nothing.
func fleetDiff(want, got *Fleet) string {
	if w, g := stateOf(want), stateOf(got); !same(g, w) {
		return fmt.Sprintf("State diverged:\n got %+v\nwant %+v", g, w)
	}
	if w, g := want.Assignments(), got.Assignments(); !same(g, w) {
		return fmt.Sprintf("Assignments diverged:\n got %+v\nwant %+v", g, w)
	}
	if w, g := want.Stats(), got.Stats(); !same(g, w) {
		return fmt.Sprintf("Stats diverged:\n got %+v\nwant %+v", g, w)
	}
	for _, name := range want.Names() {
		wh, _ := want.HealthOf(name)
		gh, _ := got.HealthOf(name)
		if wh != gh {
			return fmt.Sprintf("health of %s diverged: got %s, want %s", name, gh, wh)
		}
	}
	if want.Seq() != got.Seq() {
		return fmt.Sprintf("Seq diverged: got %d, want %d", got.Seq(), want.Seq())
	}
	return ""
}

// same is reflect.DeepEqual, but for NaN, which DeepEqual holds unequal to
// itself: an engine takes a NaN observation, so the books may carry one.
// Two values are the same if they are deeply equal or print alike in Go
// syntax, which tells apart every other pair of floats.
func same(a, b any) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

func TestRestoreReplaysLog(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Policy: LeastLoaded, Health: HealthConfig{FailoverBudgetSeconds: -1}}
	f, _ := stubFleet(t, cfg)
	p := &memPersister{}
	f.SetPersister(p)
	churn(t, ctx, f)

	twin, _ := stubFleet(t, cfg)
	if err := twin.Restore(ctx, nil, p.records(), lookupWorkload); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireFleetEqual(t, f, twin)

	// The recovered fleet keeps serving identically: attach a persister
	// and verify the next admission commits on the same backend with the
	// same fleet ID.
	w := testWorkload(t, "swaptions")
	a1, err1 := f.Place(ctx, w, 4)
	a2, err2 := twin.Place(ctx, w, 4)
	if err1 != nil || err2 != nil {
		t.Fatalf("post-restore places: %v, %v", err1, err2)
	}
	if a1.ID != a2.ID || a1.Backend != a2.Backend {
		t.Fatalf("post-restore admission diverged: got %d@%s, want %d@%s",
			a2.ID, a2.Backend, a1.ID, a1.Backend)
	}
}

func TestRestoreFromSnapshotAndTail(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Policy: FirstFit, Health: HealthConfig{FailoverBudgetSeconds: -1}}
	f, _ := stubFleet(t, cfg)
	p := &memPersister{}
	f.SetPersister(p)

	w := testWorkload(t, "swaptions")
	for i := 0; i < 6; i++ {
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := f.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if p.snap == nil || p.snap.Seq != seq {
		t.Fatalf("snapshot seq = %+v, want %d", p.snap, seq)
	}
	// Mutations after the checkpoint form the replay tail.
	if err := f.Release(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fail(ctx, "a"); err != nil {
		t.Fatal(err)
	}

	// Restore from snapshot + the FULL record history: records at or below
	// the snapshot seq must be skipped (the crash-between-snapshot-and-
	// truncate case), the rest replayed.
	twin, _ := stubFleet(t, cfg)
	if err := twin.Restore(ctx, p.snap, p.records(), lookupWorkload); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireFleetEqual(t, f, twin)

	// Snapshot alone reconstructs the fleet as of the checkpoint.
	asOf, _ := stubFleet(t, cfg)
	if err := asOf.Restore(ctx, p.snap, nil, lookupWorkload); err != nil {
		t.Fatalf("Restore(snapshot only): %v", err)
	}
	if got := len(asOf.Assignments()); got != 6 {
		t.Fatalf("snapshot-only tenants = %d, want 6", got)
	}
	if asOf.Seq() != seq {
		t.Fatalf("snapshot-only Seq = %d, want %d", asOf.Seq(), seq)
	}
}

func TestRestoreRejectsBadLogs(t *testing.T) {
	ctx := context.Background()
	cfg := Config{}
	f, _ := stubFleet(t, cfg)
	p := &memPersister{}
	f.SetPersister(p)
	w := testWorkload(t, "swaptions")
	for i := 0; i < 3; i++ {
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatal(err)
		}
	}
	recs := p.records()

	// A sequence gap is corruption.
	twin, _ := stubFleet(t, cfg)
	gapped := []Record{recs[0], recs[2]}
	if err := twin.Restore(ctx, nil, gapped, lookupWorkload); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("gapped Restore err = %v, want ErrLogCorrupt", err)
	}

	// A record naming an unconfigured backend is corruption.
	twin2, _ := stubFleet(t, cfg)
	renamed := append([]Record(nil), recs...)
	renamed[0].Backend = "zz"
	if err := twin2.Restore(ctx, nil, renamed, lookupWorkload); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("unknown-backend Restore err = %v, want ErrLogCorrupt", err)
	}

	// A workload missing from the catalog is corruption.
	twin3, _ := stubFleet(t, cfg)
	missing := append([]Record(nil), recs...)
	missing[0].Workload = "no-such-workload"
	if err := twin3.Restore(ctx, nil, missing, lookupWorkload); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("unknown-workload Restore err = %v, want ErrLogCorrupt", err)
	}

	// A snapshot naming a member the fleet lacks is corruption.
	twinSnap, _ := stubFleet(t, cfg)
	snap := stateOf(f)
	snap.Records[0].Backend = "zz"
	if err := twinSnap.Restore(ctx, &snap, nil, lookupWorkload); !errors.Is(err, nperr.ErrLogCorrupt) {
		t.Errorf("unknown-member snapshot Restore err = %v, want ErrLogCorrupt", err)
	}

	// Restore refuses a fleet that already served, and one with a
	// persister attached.
	if err := f.Restore(ctx, nil, recs, lookupWorkload); err == nil {
		t.Error("Restore on a served fleet succeeded, want error")
	}
	twin4, _ := stubFleet(t, cfg)
	twin4.SetPersister(&memPersister{})
	if err := twin4.Restore(ctx, nil, recs, lookupWorkload); err == nil {
		t.Error("Restore with persister attached succeeded, want error")
	}
	// Served counts commits no log took: here one resume, which maps no
	// tenant and uses no ID.
	twin5, _ := stubFleet(t, cfg)
	if err := twin5.Resume("a"); err != nil {
		t.Fatal(err)
	}
	if err := twin5.Restore(ctx, nil, recs, lookupWorkload); err == nil {
		t.Error("Restore on a fleet with an un-logged commit succeeded, want error")
	}

	// A wrong record still fails the restart when a valid release of its
	// tenant follows: with the sentinel and at the record a per-record replay
	// into the engines fails with, though the tenant does not survive. Each
	// wrong record repeats a tuple an earlier record had accepted in all but
	// what is wrong with it.
	n := topology.NewNodeSet
	place := func(id, engineID int, nodes topology.NodeSet) Record {
		return Record{Type: RecPlace, ID: id, Backend: "a", Workload: "swaptions", VCPUs: 4,
			EngineID: engineID, ClassID: nodes.Len(), Nodes: nodes, BasePerf: 1, ProbePerf: 1}
	}
	release := func(id int) Record {
		return Record{Type: RecRelease, ID: id, Backend: "a", Workload: "swaptions", VCPUs: 4}
	}
	intra := func(id, engineID int, nodes topology.NodeSet) Record {
		return Record{Type: RecIntraMove, ID: id, Backend: "a", EngineID: engineID, ClassID: nodes.Len(), Nodes: nodes}
	}
	// Tenant 0 stays on node 0; tenant 1 comes and goes on node 1.
	head := []Record{place(0, 0, n(0)), place(1, 1, n(1)), release(1)}
	for _, tc := range []struct {
		name  string
		wrong []Record // the records between head and the release of tenant 2
		want  error
	}{
		{"nodes overlapping a live tenant", []Record{place(2, 2, n(0))}, nperr.ErrLogCorrupt},
		{"an engine ID live twice", []Record{place(2, 0, n(1))}, nperr.ErrLogCorrupt},
		{"an unknown class", []Record{func() Record { r := place(2, 2, n(1)); r.ClassID = 9; return r }()}, nperr.ErrLogCorrupt},
		{"a node count other than the class's", []Record{func() Record { r := place(2, 2, n(1, 2)); r.ClassID = 1; return r }()}, nperr.ErrLogCorrupt},
		{"a BasePerf <= 0", []Record{func() Record { r := place(2, 2, n(1)); r.BasePerf = 0; return r }()}, nperr.ErrBadObservation},
		{"a BasePerf <= 0 after a NaN one of its tuple", []Record{func() Record { r := place(2, 2, n(1)); r.BasePerf = math.NaN(); return r }(),
			release(2), func() Record { r := place(2, 2, n(1)); r.BasePerf = 0; return r }()}, nperr.ErrBadObservation},
		{"an intra-move onto taken nodes", []Record{place(2, 2, n(1)), intra(2, 2, n(0))}, nperr.ErrLogCorrupt},
		{"an intra-move of a class not the nodes'", []Record{place(2, 2, n(1)), func() Record { r := intra(2, 2, n(1, 2)); r.ClassID = 1; return r }()}, nperr.ErrLogCorrupt},
		{"an intra-move of an unknown engine ID", []Record{place(2, 2, n(1)), intra(2, 7, n(1))}, nperr.ErrUnknownContainer},
		{"an intra-move of another tenant's engine ID", []Record{place(2, 2, n(1)), intra(2, 0, n(3))}, nperr.ErrLogCorrupt},
	} {
		bad := slices.Concat(head, tc.wrong, []Record{release(2)})
		for i := range bad {
			bad[i].Seq = uint64(i + 1)
		}
		at := fmt.Sprintf("record %d (%s)", bad[len(bad)-2].Seq, bad[len(bad)-2].Type)
		run := restoreBoth(stubFleetBuild(t, cfg), nil, bad)
		if run.diff != "" {
			t.Errorf("%s: %s", tc.name, run.diff)
		}
		if !errors.Is(run.err, tc.want) || !strings.Contains(fmt.Sprint(run.err), at) {
			t.Errorf("%s: Restore err = %v, want %v at %s", tc.name, run.err, tc.want, at)
		}
	}
	good := slices.Concat(head, []Record{place(2, 2, n(1)), intra(2, 2, n(2)), release(2)})
	for i := range good {
		good[i].Seq = uint64(i + 1)
	}
	if run := restoreBoth(stubFleetBuild(t, cfg), nil, good); run.err != nil || run.diff != "" {
		t.Errorf("the log the wrong records were made from: %v %s", run.err, run.diff)
	}
}

// TestProbeMissesSurviveReplay: a missed probe that leaves a member's health
// as it was still changes its miss count, and so does an answered probe that
// resets a non-zero count; both are records, so a fleet restored from a
// snapshot and the log counts the misses the live one counted, and the next
// miss turns both suspect.
func TestProbeMissesSurviveReplay(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Policy: FirstFit}
	f, _ := stubFleet(t, cfg)
	p := &memPersister{}
	f.SetPersister(p)
	w := testWorkload(t, "swaptions")
	for range 3 {
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := f.MissProbe(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One miss on a, one admission, and an answer from b that takes back the
	// miss the snapshot carries.
	if h, _, err := f.MissProbe(ctx, "a"); err != nil || h != Healthy {
		t.Fatalf("first miss on a: %s, %v; want healthy", h, err)
	}
	if _, err := f.Place(ctx, w, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Heartbeat("b"); err != nil {
		t.Fatal(err)
	}
	// An answer from a member with nothing to take back commits nothing.
	seq := f.Seq()
	if _, err := f.Heartbeat("c"); err != nil || f.Seq() != seq {
		t.Fatalf("heartbeat on a healthy member with no misses: seq %d -> %d (%v)", seq, f.Seq(), err)
	}

	twin, _ := stubFleet(t, cfg)
	if err := twin.Restore(ctx, p.snap, p.records(), lookupWorkload); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireFleetEqual(t, f, twin)
	for _, r := range stateOf(twin).Records {
		if r.Type != RecHealth {
			continue
		}
		if want := map[string]int{"a": 1}[r.Backend]; r.Misses != want {
			t.Fatalf("restored %s has %d misses, want %d", r.Backend, r.Misses, want)
		}
	}

	// The second miss turns a suspect on both.
	for _, fl := range []*Fleet{f, twin} {
		if h, _, err := fl.MissProbe(ctx, "a"); err != nil || h != Suspect {
			t.Fatalf("second miss on a (restored %v): %s, %v; want suspect", fl == twin, h, err)
		}
	}
	requireFleetEqual(t, f, twin)
}

// TestReviveCutBetweenItsRecords: a revival commits its health transition and
// then its RecRevive. A log cut between the two restores the machine dead —
// never healthy with its orphans unfenced — and a second Revive finishes the
// job; the whole log restores it healthy.
func TestReviveCutBetweenItsRecords(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Policy: LeastLoaded, Health: HealthConfig{FailoverBudgetSeconds: -1}}
	f, _ := stubFleet(t, cfg)
	p := &memPersister{}
	f.SetPersister(p)
	churn(t, ctx, f)
	recs := p.records()
	cut := slices.IndexFunc(recs, func(r Record) bool { return r.Type == RecRevive })
	if cut < 1 || recs[cut-1].Type != RecHealth || recs[cut-1].FromHealth != Dead || recs[cut-1].Backend != recs[cut].Backend {
		t.Fatalf("churn's revival is not a health record out of Dead then a revive: %+v", recs[max(cut-1, 0):cut+1])
	}
	name, fenced := recs[cut].Backend, recs[cut].Fenced

	twin, stubs := stubFleet(t, cfg)
	if err := twin.Restore(ctx, nil, recs[:cut], lookupWorkload); err != nil {
		t.Fatalf("Restore through the health record: %v", err)
	}
	if h, _ := twin.HealthOf(name); h != Dead {
		t.Fatalf("%s restored %s from a log cut before its RecRevive, want dead", name, h)
	}
	if got, err := twin.Revive(ctx, name); err != nil || got != fenced {
		t.Fatalf("Revive after the cut fenced %d (%v), the live revival %d", got, err, fenced)
	}

	whole, wholeStubs := stubFleet(t, cfg)
	if err := whole.Restore(ctx, nil, recs[:cut+1], lookupWorkload); err != nil {
		t.Fatalf("Restore through the RecRevive: %v", err)
	}
	if h, _ := whole.HealthOf(name); h != Healthy {
		t.Fatalf("%s restored %s through its RecRevive, want healthy", name, h)
	}
	if got, want := twin.Stats(), whole.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("revived after the cut: stats %+v, restored through the RecRevive %+v", got, want)
	}
	if got, want := stubs[name].FreeNodes(), wholeStubs[name].FreeNodes(); got != want {
		t.Fatalf("revived after the cut %s has nodes %v free, restored through the RecRevive %v", name, got, want)
	}
}

func TestDurabilityErrorRidesAlong(t *testing.T) {
	ctx := context.Background()
	f, _ := stubFleet(t, Config{})
	sticky := errors.New("disk gone")
	p := &memPersister{commitErr: sticky}
	f.SetPersister(p)
	w := testWorkload(t, "swaptions")

	// The in-memory admission stands; the durability failure rides along
	// with it rather than hiding either, and the Admission beside it is the
	// whole one the books hold.
	adm, err := f.Place(ctx, w, 4)
	if !errors.Is(err, sticky) {
		t.Fatalf("Place err = %v, want the commit error", err)
	}
	books := f.Assignments()
	if len(books) != 1 {
		t.Fatalf("tenants = %d, want 1", len(books))
	}
	if !reflect.DeepEqual(adm, books[0]) || adm.Backend == "" || adm.Assignment.Nodes.Len() == 0 || adm.Assignment.VCPUs != 4 {
		t.Fatalf("Place returned %+v beside the commit error, the books hold %+v", adm, books[0])
	}
	if err := f.Release(ctx, adm.ID); !errors.Is(err, sticky) {
		t.Fatalf("Release err = %v, want the commit error", err)
	}
}

// TestFailedMoveLeaksNothing: a move admits on the destination before it
// releases the source. When the source cannot let go, the admission must be
// given back — otherwise an engine record the fleet neither maps nor logged
// holds the destination's nodes until that machine next dies and is revived.
func TestFailedMoveLeaksNothing(t *testing.T) {
	ctx := context.Background()
	f, stubs := stubFleet(t, Config{})
	p := &memPersister{}
	f.SetPersister(p)
	for i := 0; i < 2; i++ { // first-fit: both land on a
		if _, err := f.Place(ctx, testWorkload(t, "swaptions"), 4); err != nil {
			t.Fatal(err)
		}
	}
	stubs["a"].releaseErr = errors.New("backend unreachable")
	_, err := f.Drain(ctx, "a")
	stubs["a"].releaseErr = nil
	if err == nil {
		t.Fatal("Drain off a source that cannot release succeeded")
	}

	twin, twinStubs := stubFleet(t, Config{})
	if err := twin.Restore(ctx, nil, p.records(), lookupWorkload); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireFleetEqual(t, f, twin)
	for i, bs := range f.Stats().Backends {
		if got := len(stubs[bs.Name].Assignments()); got != bs.Tenants {
			t.Fatalf("%s holds %d engine records for %d fleet tenants", bs.Name, got, bs.Tenants)
		}
		if got, want := twinStubs[bs.Name].FreeNodes(), stubs[bs.Name].FreeNodes(); got != want {
			t.Fatalf("%s (backend %d): replay leaves nodes %v free, the live engine %v", bs.Name, i, got, want)
		}
	}
}

// TestRecycledTenantRecsChangeNothing: bookLocked clears a released tenant's
// record and reuses it at a later admission. A fleet that recycles answers
// exactly as one that never does (its spare list emptied after every call);
// the reuse does happen; and the spare list holds at most maxSpare records,
// each cleared, so none pins the member or pinning it once served.
func TestRecycledTenantRecsChangeNothing(t *testing.T) {
	ctx := context.Background()
	build := func() *Fleet {
		f := New(Config{Policy: FirstFit})
		for i := range 10 { // 80 nodes, one per stub tenant: more than maxSpare
			if err := f.Add(fmt.Sprintf("m%d", i), newStub(machines.AMD(), 1)); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	recycling, fresh := build(), build()
	forget := func() {
		fresh.mu.Lock()
		fresh.spare = nil
		fresh.mu.Unlock()
	}
	w := testWorkload(t, "swaptions")
	place := func() (int, bool) {
		t.Helper()
		a, err := recycling.Place(ctx, w, 4)
		b, ferr := fresh.Place(ctx, w, 4)
		forget()
		if errors.Is(err, nperr.ErrFleetFull) && errors.Is(ferr, nperr.ErrFleetFull) {
			return 0, false
		}
		if err != nil || ferr != nil || a.ID != b.ID {
			t.Fatalf("place: %v / %v", err, ferr)
		}
		return a.ID, true
	}
	release := func(id int) {
		t.Helper()
		if err := recycling.Release(ctx, id); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Release(ctx, id); err != nil {
			t.Fatal(err)
		}
		forget()
	}
	spares := func() []*tenantRec {
		recycling.mu.Lock()
		defer recycling.mu.Unlock()
		if len(recycling.spare) > maxSpare {
			t.Fatalf("%d spare tenant records, want <= %d", len(recycling.spare), maxSpare)
		}
		for _, rec := range recycling.spare {
			if !reflect.DeepEqual(*rec, tenantRec{}) {
				t.Fatalf("a spare tenant record holds %+v, want it cleared", *rec)
			}
		}
		return slices.Clone(recycling.spare)
	}

	var ids []int
	for id, ok := place(); ok; id, ok = place() {
		ids = append(ids, id)
	}
	if len(ids) <= maxSpare {
		t.Fatalf("the fleet held %d tenants, want more than %d", len(ids), maxSpare)
	}
	for _, id := range ids {
		release(id)
	}
	requireFleetEqual(t, fresh, recycling)
	spare := spares()
	if len(spare) != maxSpare {
		t.Fatalf("%d releases left %d spare tenant records, want %d", len(ids), len(spare), maxSpare)
	}

	// Place again, then release every other tenant and place once more:
	// each admission takes the record the last release gave back.
	ids = ids[:0]
	for range 40 {
		id, _ := place()
		ids = append(ids, id)
		recycling.mu.Lock()
		reused := recycling.tenants[id] == spare[len(spare)-1]
		recycling.mu.Unlock()
		if !reused {
			t.Fatalf("tenant %d got a new record with %d spare", id, len(spare))
		}
		spare = spare[:len(spare)-1]
	}
	requireFleetEqual(t, fresh, recycling)
	for i, id := range ids {
		if i%2 == 1 {
			release(id)
		}
	}
	for range 30 {
		place()
	}
	requireFleetEqual(t, fresh, recycling)
	spares()
}
