package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/machines"
	"repro/internal/perfsim"
	"repro/internal/xrand"
)

// occupancyWalk recounts the fleet's books from scratch: one pass over the
// tenant map, counting per (workload name, member). It is the walk the
// occupancy index replaced, kept here as the model the index — merged into the
// routing index since, and counting per failure domain — is checked against.
func occupancyWalk(f *Fleet) map[string]map[string]int {
	walk := map[string]map[string]int{}
	for _, rec := range f.tenants {
		if walk[rec.w.Name] == nil {
			walk[rec.w.Name] = map[string]int{}
		}
		walk[rec.w.Name][rec.mem.name]++
	}
	return walk
}

// occupiedMarks reads a decision's occupied-domain mask back as domain
// labels: an admission of the workload, or — skip set — skip's move.
func occupiedMarks(f *Fleet, workload string, skip *tenantRec) map[string]bool {
	var s routeScratch
	q := routeQuery{w: perfsim.Workload{Name: workload}, moving: skip, minUtil: -1}
	f.routeLocked(context.Background(), &s, &q) // fails only on a cancelled ctx
	occ := map[string]bool{}
	for _, m := range f.members {
		if len(s.occupied) > 0 && hasBit(s.occupied, m.pos) {
			occ[m.domain] = true
		}
	}
	return occ
}

// occupiedWalk is the occupied-domain query as it was before any index: every
// tenant of the workload other than skipID, on a machine that is not dead,
// occupies its machine's domain.
func occupiedWalk(f *Fleet, workload string, skipID int) map[string]bool {
	occ := map[string]bool{}
	for id, rec := range f.tenants {
		if id != skipID && rec.w.Name == workload && rec.mem.health != Dead {
			occ[rec.mem.domain] = true
		}
	}
	return occ
}

// preferWalk is what a decision's mask says given the walk's occupied domains:
// those, unless every domain with a member is among them — then no candidate
// is preferred to another and the decision keeps no mask.
func preferWalk(f *Fleet, occupied map[string]bool) map[string]bool {
	for _, m := range f.members {
		if !occupied[m.domain] {
			return occupied
		}
	}
	return map[string]bool{}
}

// requireOccupancy asserts, under the fleet lock, that the index's per-domain
// counts equal the walk's over machines that are not dead, that every
// member's tenant count equals its share of the walk, and that the
// occupied-domain mask answers as the walk does for every workload — for an
// admission and for the move of each resident tenant of it.
func requireOccupancy(t *testing.T, f *Fleet, op string, names []string) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	index := map[string]map[string]int{}
	for w, row := range f.idx.occ {
		if len(row) != len(f.domains) {
			t.Fatalf("after %s: index counts %s over %d domains, the fleet has %d", op, w, len(row), len(f.domains))
		}
		for label, dom := range f.domains {
			if row[dom] != 0 {
				if index[w] == nil {
					index[w] = map[string]int{}
				}
				index[w][label] = int(row[dom])
			}
		}
	}
	walk := occupancyWalk(f)
	live := map[string]map[string]int{}
	for w, byMem := range walk {
		for name, n := range byMem {
			if m := f.byName[name]; m.health != Dead {
				if live[w] == nil {
					live[w] = map[string]int{}
				}
				live[w][m.domain] += n
			}
		}
	}
	if !reflect.DeepEqual(index, live) {
		t.Fatalf("after %s: index %v, walk over f.tenants %v", op, index, live)
	}
	for _, m := range f.members {
		n := 0
		for _, byMem := range walk {
			n += byMem[m.name]
		}
		if m.tenants != n {
			t.Fatalf("after %s: %s counts %d tenants, the walk finds %d", op, m.name, m.tenants, n)
		}
	}
	for _, w := range names {
		if got, want := occupiedMarks(f, w, nil), preferWalk(f, occupiedWalk(f, w, -1)); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: occupied(%s) = %v, walk %v", op, w, got, want)
		}
		for id, rec := range f.tenants {
			if rec.w.Name != w {
				continue // a move asks about the moving tenant's own workload
			}
			if got, want := occupiedMarks(f, w, rec), preferWalk(f, occupiedWalk(f, w, id)); !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: occupied(%s, skipping %d on %s) = %v, walk %v", op, w, id, rec.mem.name, got, want)
			}
		}
	}
}

// occupancyFleet builds six stubs over three racks (two per rack, AMD and
// Intel alternating, distinct preview scores so BestPredicted has an order).
func occupancyFleet(t *testing.T, cfg Config) (*Fleet, []*stubBackend, []string) {
	return wrappedFleet(t, cfg, plainStubs)
}

// occupancyBuild is occupancyFleet as a stubBuild.
func occupancyBuild(t *testing.T, cfg Config) stubBuild {
	return func() (*Fleet, []*stubBackend) {
		f, stubs, _ := occupancyFleet(t, cfg)
		return f, stubs
	}
}

// wrapStub is what a trace's fleet adds for its i-th stub.
type wrapStub func(i int, s *stubBackend) Backend

func plainStubs(_ int, s *stubBackend) Backend { return s }

// wrappedFleet is occupancyFleet with each stub added as wrap makes it.
func wrappedFleet(t *testing.T, cfg Config, wrap wrapStub) (*Fleet, []*stubBackend, []string) {
	t.Helper()
	f := New(cfg)
	var stubs []*stubBackend
	var names []string
	for i := 0; i < 6; i++ {
		m := machines.AMD()
		if i%2 == 1 {
			m = machines.Intel()
		}
		stubs = append(stubs, newStub(m, float64(1+i)))
		names = append(names, fmt.Sprintf("m%d", i))
		if err := f.Add(names[i], wrap(i, stubs[i]), InDomain(fmt.Sprintf("rack-%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	return f, stubs, names
}

// occupancyTrace is the state of one run of the randomized trace below.
type occupancyTrace struct {
	cfg    Config
	f      *Fleet
	stubs  []*stubBackend
	names  []string
	p      *memPersister
	snapAt *State // the checkpoint taken after op 300
}

var occupancyWorkloads = []string{"swaptions", "streamcluster", "canneal", "gcc"}

// runOccupancyTrace drives 800 randomized operations through every path that
// maps, unmaps or remaps a tenant — place, release (including a failed
// backend release, which must change nothing, and releases of tenants
// stranded on a dead machine), rebalance, drain/resume, fail, failover,
// missed and answered probes (before op 600) and revive, plus, in the last
// 200, removing an empty machine and adding a new one under its name
// (membership is not logged: replay checks stop at op 600). before runs ahead
// of every operation, after behind every one that did something.
func runOccupancyTrace(t *testing.T, policy Policy, before func(tr *occupancyTrace, op int), after func(tr *occupancyTrace, op int, what, name string)) {
	runWrappedTrace(t, policy, plainStubs, before, after)
}

// runWrappedTrace is runOccupancyTrace over a fleet of wrapped stubs.
func runWrappedTrace(t *testing.T, policy Policy, wrap wrapStub, before func(tr *occupancyTrace, op int), after func(tr *occupancyTrace, op int, what, name string)) {
	ctx := context.Background()
	tr := &occupancyTrace{cfg: Config{Policy: policy, SpreadDomains: true, Health: HealthConfig{FailoverBudgetSeconds: -1}}}
	tr.f, tr.stubs, tr.names = wrappedFleet(t, tr.cfg, wrap)
	f, stubs, names := tr.f, tr.stubs, tr.names
	tr.p = &memPersister{}
	f.SetPersister(tr.p)
	rng := xrand.New(uint64(11 + policy))
	var live []int
	drop := func(id int) {
		for i, l := range live {
			if l == id {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	counts := map[string]int{}
	for op := 0; op < 800; op++ {
		before(tr, op)
		name := names[rng.Intn(len(names))]
		var what string
		switch k := rng.Intn(100); {
		case k < 45:
			what = "place"
			adm, err := f.Place(ctx, testWorkload(t, occupancyWorkloads[rng.Intn(len(occupancyWorkloads))]), 4)
			if err == nil {
				live = append(live, adm.ID)
			}
		case k < 70 && len(live) > 0:
			what = "release"
			id := live[rng.Intn(len(live))]
			if err := f.Release(ctx, id); err != nil {
				t.Fatalf("op %d: release %d: %v", op, id, err)
			}
			drop(id)
		case k < 75 && len(live) > 0:
			what = "release-rollback"
			for _, s := range stubs {
				s.releaseErr = errors.New("backend unreachable")
			}
			id := live[rng.Intn(len(live))]
			err := f.Release(ctx, id)
			for _, s := range stubs {
				s.releaseErr = nil
			}
			if err == nil {
				drop(id) // stranded on a dead machine: no backend call to fail
			} else {
				counts["rolled back"]++
			}
		case k < 80:
			what = "rebalance"
			if _, err := f.Rebalance(ctx, 1e9); err != nil {
				t.Fatalf("op %d: rebalance: %v", op, err)
			}
		case k < 85:
			what = "drain"
			f.Drain(ctx, name) // a partial drain of a full fleet is a result, not a failure
		case k < 89:
			what = "resume"
			if err := f.Resume(name); err != nil {
				t.Fatalf("op %d: resume: %v", op, err)
			}
		case k < 91:
			what = "fail"
			f.Fail(ctx, name) // stranding and already-dead are results too
		case k < 93:
			what = "failover"
			f.Failover(ctx, name, 0)
		case k < 98 && op >= 600:
			// A machine is drained and, if that emptied it, replaced
			// by a new one of the same name: a new member, which
			// must start with nothing booked to it.
			i := rng.Intn(len(names))
			f.Drain(ctx, names[i])
			if len(stubs[i].Assignments()) != 0 || f.Remove(names[i]) != nil {
				f.Resume(names[i])
				continue
			}
			what, name = "replace", names[i]
			stubs[i] = newStub(stubs[i].m, stubs[i].perf)
			if err := f.Add(name, wrap(i, stubs[i]), InDomain(fmt.Sprintf("rack-%d", i%3))); err != nil {
				t.Fatal(err)
			}
		case k < 96: // below op 600 only: from there on, k < 98 replaces
			what = "missprobe"
			f.MissProbe(ctx, name) // a death's failover may strand, as a fail's
		case k < 97:
			what = "heartbeat"
			f.Heartbeat(name) // a dead machine answers ErrBackendDown
		default:
			what = "revive"
			f.Revive(ctx, name)
		}
		if what == "" {
			continue
		}
		counts[what]++
		after(tr, op, what, name)
		if op == 300 {
			if _, err := f.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			tr.snapAt = tr.p.snap
		}
	}
	for _, what := range []string{"place", "release", "rolled back", "rebalance", "drain", "resume", "fail", "failover", "missprobe", "heartbeat", "revive", "replace"} {
		if counts[what] == 0 {
			t.Fatalf("degenerate trace: no %s among %v", what, counts)
		}
	}
}

// TestOccupancyIndexIsTheWalk checks the index against the from-scratch walk
// after every operation of the trace, under each routing policy. Before the
// first machine is replaced, the log and a mid-trace snapshot are replayed
// into fresh fleets, whose indexes must pass the same check and agree with
// the live one.
func TestOccupancyIndexIsTheWalk(t *testing.T) {
	for _, policy := range []Policy{FirstFit, LeastLoaded, BestPredicted} {
		t.Run(policy.String(), func(t *testing.T) {
			runOccupancyTrace(t, policy,
				func(tr *occupancyTrace, op int) {
					if op == 600 {
						requireReplayedOccupancy(t, tr.f, tr.cfg, tr.snapAt, tr.p.records(), occupancyWorkloads)
					}
				},
				func(tr *occupancyTrace, op int, what, name string) {
					requireOccupancy(t, tr.f, fmt.Sprintf("op %d (%s %s)", op, what, name), occupancyWorkloads)
				})
		})
	}
}

// requireReplayedOccupancy replays the log, from scratch and from the
// snapshot, into fresh fleets: each replayed index must equal its own walk
// and the live fleet's.
func requireReplayedOccupancy(t *testing.T, live *Fleet, cfg Config, snap *State, recs []Record, names []string) {
	t.Helper()
	live.mu.Lock()
	want := occupancyWalk(live)
	live.mu.Unlock()
	for _, st := range []*State{nil, snap} {
		twin, _, _ := occupancyFleet(t, cfg)
		if err := twin.Restore(context.Background(), st, recs, lookupWorkload); err != nil {
			t.Fatalf("Restore (snapshot %v): %v", st != nil, err)
		}
		requireOccupancy(t, twin, fmt.Sprintf("Restore (snapshot %v)", st != nil), names)
		if got := occupancyWalk(twin); !reflect.DeepEqual(got, want) {
			t.Fatalf("Restore (snapshot %v): index %v, live fleet %v", st != nil, got, want)
		}
	}
}
