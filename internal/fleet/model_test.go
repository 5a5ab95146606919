package fleet

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/topology"
)

// fleetModel is an independent model of what a log says the fleet and its
// engines hold, driven by the Record stream alone: the tenant map, and per
// machine the nodes its engine records hold. It knows nothing of routing,
// budgets or the fleet's code — only what each record type means.
type fleetModel struct {
	tenants map[int]modelTenant
	// orphans are the engine records of tenants that left a dead machine
	// (moved off it or released from it) without a backend call: they hold
	// their nodes until the machine's revival fences them.
	orphans            map[string][]topology.NodeSet
	dead               map[string]bool
	admitted, released int
}

type modelTenant struct {
	backend  string
	engineID int
	nodes    topology.NodeSet
}

func newFleetModel() *fleetModel {
	return &fleetModel{tenants: map[int]modelTenant{}, orphans: map[string][]topology.NodeSet{}, dead: map[string]bool{}}
}

// held returns the nodes held on a machine, failing if any is held twice.
func (m *fleetModel) held(backend string) (topology.NodeSet, error) {
	var held topology.NodeSet
	take := func(who string, nodes topology.NodeSet) error {
		if twice := held.Intersect(nodes); !twice.Empty() {
			return fmt.Errorf("%s: nodes %v of %s held twice", backend, twice, who)
		}
		held = held.Union(nodes)
		return nil
	}
	for id, t := range m.tenants {
		if t.backend == backend {
			if err := take(fmt.Sprintf("tenant %d", id), t.nodes); err != nil {
				return 0, err
			}
		}
	}
	for _, nodes := range m.orphans[backend] {
		if err := take("an orphan", nodes); err != nil {
			return 0, err
		}
	}
	return held, nil
}

// leave takes tenant t off its machine: a live machine frees the nodes, a
// dead one receives no call and keeps the record as an orphan.
func (m *fleetModel) leave(t modelTenant) {
	if m.dead[t.backend] {
		m.orphans[t.backend] = append(m.orphans[t.backend], t.nodes)
	}
}

// settle puts tenant id on backend at nodes, which must be free there (the
// tenant's own, if it is there already, count as free).
func (m *fleetModel) settle(id int, backend string, engineID int, nodes topology.NodeSet) error {
	delete(m.tenants, id)
	held, err := m.held(backend)
	if err != nil {
		return err
	}
	if taken := held.Intersect(nodes); !taken.Empty() {
		return fmt.Errorf("tenant %d takes nodes %v of %s, of which %v are held", id, nodes, backend, taken)
	}
	m.tenants[id] = modelTenant{backend, engineID, nodes}
	return nil
}

// apply advances the model by one record and checks what the record may
// assume: a place's nodes are free, a release or move names a mapped tenant
// on the machine it says, resident == admitted − released.
func (m *fleetModel) apply(r Record) error {
	t, mapped := m.tenants[r.ID]
	switch r.Type {
	case RecPlace:
		if mapped {
			return fmt.Errorf("place of mapped tenant %d", r.ID)
		}
		m.admitted++
		if err := m.settle(r.ID, r.Backend, r.EngineID, r.Nodes); err != nil {
			return err
		}
	case RecRelease, RecMove, RecIntraMove:
		if !mapped || t.backend != r.Backend {
			return fmt.Errorf("%s of tenant %d on %s, mapped %v to %q", r.Type, r.ID, r.Backend, mapped, t.backend)
		}
		switch r.Type {
		case RecRelease:
			m.released++
			delete(m.tenants, r.ID)
			m.leave(t)
		case RecMove:
			m.leave(t)
			if err := m.settle(r.ID, r.Dest, r.EngineID, r.Nodes); err != nil {
				return err
			}
		case RecIntraMove:
			if err := m.settle(r.ID, r.Backend, r.EngineID, r.Nodes); err != nil {
				return err
			}
		}
	case RecHealth:
		if r.FromHealth != Dead { // a return from Dead is the RecRevive's
			m.dead[r.Backend] = r.ToHealth == Dead
		}
	case RecRevive:
		m.dead[r.Backend] = false
		delete(m.orphans, r.Backend)
	}
	if len(m.tenants) != m.admitted-m.released {
		return fmt.Errorf("%d resident, %d admitted − %d released", len(m.tenants), m.admitted, m.released)
	}
	return nil
}

// requireModel asserts that f and the engines behind it hold exactly what the
// model says: the same tenants on the same machines and nodes, and on every
// machine no node held beyond the model's.
func requireModel(t *testing.T, m *fleetModel, f *Fleet, stubs []*stubBackend, names []string, when string) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.tenants) != len(m.tenants) {
		t.Fatalf("%s: fleet maps %d tenants, the model %d", when, len(f.tenants), len(m.tenants))
	}
	for id, rec := range f.tenants {
		if got, want := (modelTenant{rec.mem.name, rec.engineID, rec.assign.Nodes}), m.tenants[id]; got != want {
			t.Fatalf("%s: fleet has tenant %d as %+v, the model as %+v", when, id, got, want)
		}
	}
	for i, name := range names {
		held, err := m.held(name)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if free, want := stubs[i].FreeNodes(), topology.FullNodeSet(stubs[i].m.Topo.NumNodes).Minus(held); free != want {
			t.Fatalf("%s: %s has nodes %v free, the model %v", when, name, free, want)
		}
	}
}

// TestEveryLogPrefixReplays enforces the log's invariant — replaying any
// prefix of the log into fresh engines succeeds, because capacity is freed
// and logged in one hold and taken before it is logged — against the model,
// over the randomized trace of TestOccupancyIndexIsTheWalk. After every
// record the model's own checks hold (no node held twice, a place's nodes
// were free, a release or move names a mapped tenant, resident == admitted −
// released); after every operation the live fleet and its engines equal the
// model; and for every prefix of the log up to op 600 (membership changes are
// not logged after it) Restore into fresh stubs succeeds and equals the model
// at that sequence and equals replayEach's per-record replay (restoreBoth),
// and after every operation up to there the fleet restored from the whole
// log so far has the live fleet's books.
func TestEveryLogPrefixReplays(t *testing.T) {
	for _, policy := range []Policy{FirstFit, LeastLoaded, BestPredicted} {
		t.Run(policy.String(), func(t *testing.T) {
			model, seen := newFleetModel(), 0
			runOccupancyTrace(t, policy,
				func(*occupancyTrace, int) {},
				func(tr *occupancyTrace, op int, what, name string) {
					if what == "replace" { // not in the log: a new machine, live and empty
						model.dead[name] = false
					}
					recs := tr.p.records()
					for ; seen < len(recs); seen++ {
						r := recs[seen]
						if err := model.apply(r); err != nil {
							t.Fatalf("op %d (%s %s), record %d (%s): %v", op, what, name, r.Seq, r.Type, err)
						}
						if op >= 600 {
							continue
						}
						run := restoreBoth(occupancyBuild(t, tr.cfg), nil, recs[:seen+1])
						if run.err != nil || run.diff != "" {
							t.Fatalf("op %d (%s %s): Restore through record %d: %v %s", op, what, name, r.Seq, run.err, run.diff)
						}
						requireModel(t, model, run.f, run.stubs, tr.names, fmt.Sprintf("restored through record %d (%s)", r.Seq, r.Type))
					}
					requireModel(t, model, tr.f, tr.stubs, tr.names, fmt.Sprintf("after op %d (%s %s)", op, what, name))
					if op >= 600 {
						return
					}
					twin, _, _ := occupancyFleet(t, tr.cfg)
					if err := twin.Restore(context.Background(), nil, recs, lookupWorkload); err != nil {
						t.Fatalf("op %d (%s %s): Restore: %v", op, what, name, err)
					}
					if got, want := stateOf(twin), stateOf(tr.f); !reflect.DeepEqual(got, want) {
						t.Fatalf("after op %d (%s %s): the restored books\n%+v\nare not the live ones\n%+v", op, what, name, got, want)
					}
				})
		})
	}
}
