// The ledger: a machine's books kept beside its engine while a restart
// replays the snapshot and the log tail (restore.go), so that the engine
// adopts only the tenants that survive them, once, at the end.
//
// A ledger stands in for one member's backend on the replay surface — Adopt,
// Release, ApplyMove, Assignment and Assignments — and books every record
// alone: its engine holds nothing until the install. At each record the
// ledger checks what the engine's books would: the nodes are free at that
// point of the log (so inside the machine), an engine ID is not live twice, a
// release or move names a live engine ID, an intra-move lands within the free
// nodes and the tenant's own. What the engine checks beyond its books — the
// class is in the enumeration, the node count is the class's, the pinning
// exists, a predictor covers the size, no observation is <= 0 — depends only
// on the record's sched.Restore.Verdict, the key internal/sched keeps beside
// Adopt. The ledger asks its engine once per key, by Adopt and Release, and
// remembers only what it accepted: anything else goes to the engine again, so
// a refusal is the engine's own, at the record that earns it. The install
// then adopts onto the empty engine every entry the ledger holds.
package fleet

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/nperr"
	"repro/internal/sched"
	"repro/internal/topology"
)

// replayer is what a replay drives on a member: its ledger while Restore
// runs, its Backend otherwise.
type replayer interface {
	Adopt(ctx context.Context, r sched.Restore) (*sched.Assignment, error)
	Release(ctx context.Context, id int) error
	ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error
	Assignment(id int) (sched.Assignment, bool)
	Assignments() []sched.Assignment
}

// ledgerSet is the members' ledgers while Restore replays, each made when a
// record first names its member: a member none names costs nothing.
type ledgerSet struct {
	lookup WorkloadLookup
	by     []*ledger // by member.pos
}

// of is m's ledger.
func (ls *ledgerSet) of(m *member) *ledger {
	l := ls.by[m.pos]
	if l == nil {
		l = &ledger{b: m.b, lookup: ls.lookup, free: m.b.FreeNodes(), accepted: map[sched.Verdict]struct{}{},
			top: ledgerEntry{id: -1}}
		ls.by[m.pos] = l
	}
	return l
}

// ledger is one member's books while Restore replays.
type ledger struct {
	b      Backend          // the real backend
	lookup WorkloadLookup   // the replay's: an entry's workload, for the engine
	free   topology.NodeSet // nodes no live entry holds
	// live holds the entries in ascending engine ID order. Their nodes are
	// disjoint and non-empty, so there are at most as many as the machine
	// has nodes.
	live []ledgerEntry
	// accepted are the verdict keys of the records b adopted.
	accepted map[sched.Verdict]struct{}
	// top is the entry with the highest engine ID the ledger adopted (ID -1:
	// none). The install has b adopt and release it if it is no longer
	// live, so b's ID allocator ends where adopting every record would have
	// left it, and with it every observation after the restart.
	top ledgerEntry
	out sched.Assignment // Adopt's result, valid until the next call
}

// ledgerEntry is one engine entry: what the engine's tenant holds, with the
// workload by name.
type ledgerEntry struct {
	id, vcpus, class int
	nodes            topology.NodeSet
	base, probe      float64
	workload         string
}

func (e *ledgerEntry) assignment() sched.Assignment {
	return sched.Assignment{ID: e.id, Workload: e.workload, VCPUs: e.vcpus, Class: e.class,
		Nodes: e.nodes, BasePerf: e.base, ProbePerf: e.probe}
}

// find returns where engine ID id is, or would be, in l.live.
func (l *ledger) find(id int) (int, bool) {
	return slices.BinarySearchFunc(l.live, id, func(e ledgerEntry, id int) int { return e.id - id })
}

// judge returns nil if the engine takes r beyond its books: at once if it
// took r's verdict key before, else by adopting r on the engine and
// releasing it again.
func (l *ledger) judge(ctx context.Context, r *sched.Restore) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v := r.Verdict()
	if _, ok := l.accepted[v]; ok {
		return nil
	}
	if err := l.adoptAndRelease(ctx, r); err != nil {
		return err
	}
	l.accepted[v] = struct{}{}
	return nil
}

// adoptAndRelease adopts r on the engine and releases it again.
func (l *ledger) adoptAndRelease(ctx context.Context, r *sched.Restore) error {
	a, err := l.b.Adopt(ctx, *r)
	if err != nil {
		return err
	}
	return l.b.Release(ctx, a.ID)
}

// restore is e's admission for the engine.
func (l *ledger) restore(e *ledgerEntry) (sched.Restore, error) {
	w, ok := l.lookup(e.workload)
	if !ok {
		return sched.Restore{}, fmt.Errorf("workload %q not in the catalog: %w", e.workload, nperr.ErrLogCorrupt)
	}
	return sched.Restore{ID: e.id, Workload: w, VCPUs: e.vcpus, ClassID: e.class,
		Nodes: e.nodes, BasePerf: e.base, ProbePerf: e.probe}, nil
}

// Adopt books r as the engine would, refusing it as the engine would.
func (l *ledger) Adopt(ctx context.Context, r sched.Restore) (*sched.Assignment, error) {
	if err := l.judge(ctx, &r); err != nil {
		return nil, err
	}
	i, dup := l.find(r.ID)
	if dup {
		return nil, fmt.Errorf("fleet: ledger adopting container %d: ID already admitted: %w", r.ID, nperr.ErrLogCorrupt)
	}
	if r.Nodes.Minus(l.free) != 0 {
		return nil, fmt.Errorf("fleet: ledger adopting container %d: nodes %v not free: %w", r.ID, r.Nodes, nperr.ErrLogCorrupt)
	}
	e := ledgerEntry{id: r.ID, vcpus: r.VCPUs, class: r.ClassID, nodes: r.Nodes,
		base: r.BasePerf, probe: r.ProbePerf, workload: r.Workload.Name}
	l.live = slices.Insert(l.live, i, e)
	l.free = l.free.Minus(r.Nodes)
	if e.id >= l.top.id {
		l.top = e
	}
	l.out = e.assignment()
	return &l.out, nil
}

func (l *ledger) Release(ctx context.Context, id int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	i, ok := l.find(id)
	if !ok {
		return fmt.Errorf("fleet: ledger releasing container %d: %w", id, nperr.ErrUnknownContainer)
	}
	l.free = l.free.Union(l.live[i].nodes)
	l.live = slices.Delete(l.live, i, i+1)
	return nil
}

// ApplyMove books a recorded intra-machine move, judged as an adoption of
// the tenant there would be: its size and observations passed before, so
// only the class and the pinning can fail.
func (l *ledger) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	i, ok := l.find(id)
	if !ok {
		return fmt.Errorf("fleet: ledger applying move of container %d: %w", id, nperr.ErrUnknownContainer)
	}
	e := &l.live[i]
	moved := *e
	moved.class, moved.nodes = classID, nodes
	r, err := l.restore(&moved)
	if err != nil {
		return err
	}
	if err := l.judge(ctx, &r); err != nil {
		return err
	}
	avail := l.free.Union(e.nodes)
	if nodes.Minus(avail) != 0 {
		return fmt.Errorf("fleet: ledger applying move of container %d: nodes %v not free: %w", id, nodes, nperr.ErrLogCorrupt)
	}
	l.free = avail.Minus(nodes)
	e.class, e.nodes = classID, nodes
	return nil
}

func (l *ledger) Assignments() []sched.Assignment {
	out := make([]sched.Assignment, len(l.live))
	for i := range l.live {
		out[i] = l.live[i].assignment()
	}
	return out
}

func (l *ledger) Assignment(id int) (sched.Assignment, bool) {
	i, ok := l.find(id)
	if !ok {
		return sched.Assignment{}, false
	}
	return l.live[i].assignment(), true
}

// install ends the replay on an engine that holds nothing: it adopts and
// releases top if top is no longer live, then adopts every live entry.
func (l *ledger) install(ctx context.Context) error {
	if _, live := l.find(l.top.id); l.top.id >= 0 && !live {
		r, err := l.restore(&l.top)
		if err != nil {
			return err
		}
		if err := l.adoptAndRelease(ctx, &r); err != nil {
			return fmt.Errorf("restoring the ID allocator: %w", err)
		}
	}
	for i := range l.live {
		r, err := l.restore(&l.live[i])
		if err != nil {
			return err
		}
		if _, err := l.b.Adopt(ctx, r); err != nil {
			return fmt.Errorf("installing container %d: %w", r.ID, err)
		}
	}
	return nil
}
