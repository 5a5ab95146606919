// The ledger: a machine's books kept beside its engine while a restart
// replays the log tail (restore.go), so that the engine adopts only the
// tenants that survive the tail.
//
// A ledger stands in for one member's Backend on the replay surface — Adopt,
// Release, ApplyMove, Assignment, Assignments, FreeNodes and Machine — and
// refuses to serve. It starts from what its engine holds once the snapshot is
// installed, and passes every change to those entries on to the engine. An
// adoption from the tail is booked in the ledger alone. At each record the
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
// then adopts onto the engine what only the ledger holds.
package fleet

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
)

// ledgerSet is the members' ledgers while Restore replays a log tail, each
// made when the tail first names its member: a member it does not name
// costs nothing.
type ledgerSet struct {
	lookup WorkloadLookup
	by     []*ledger // by member.pos
}

// of is m's ledger.
func (ls *ledgerSet) of(m *member) *ledger {
	l := ls.by[m.pos]
	if l == nil {
		l = newLedger(m.b, ls.lookup)
		ls.by[m.pos] = l
	}
	return l
}

// ledger is one member's Backend while Restore replays a log tail.
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
	// seen is an engine ID b has adopted at least as high as any other it
	// has, and top the highest adoption booked in the ledger alone (ID -1:
	// none). If top is higher than seen, b adopts and releases it before
	// its nodes can be taken on b, so b's ID allocator ends where adopting
	// every record would have left it, and with it every observation after
	// the restart.
	seen int
	top  ledgerEntry
	out  sched.Assignment // Adopt's result, valid until the next call
}

// ledgerEntry is one engine entry: what the engine's tenant holds, with the
// workload by name.
type ledgerEntry struct {
	id, vcpus, class int
	nodes            topology.NodeSet
	base, probe      float64
	workload         string
	// onEngine: b holds the entry too, a snapshot tenant or one the install
	// adopted (installed).
	onEngine, installed bool
}

// newLedger is the ledger of backend b, holding what b holds; b took each
// of those tuples.
func newLedger(b Backend, lookup WorkloadLookup) *ledger {
	l := &ledger{b: b, lookup: lookup, free: b.FreeNodes(), accepted: map[sched.Verdict]struct{}{},
		seen: -1, top: ledgerEntry{id: -1}}
	for _, a := range b.Assignments() {
		l.live = append(l.live, ledgerEntry{id: a.ID, vcpus: a.VCPUs, class: a.Class, nodes: a.Nodes,
			base: a.BasePerf, probe: a.ProbePerf, workload: a.Workload, onEngine: true})
		l.seen = max(l.seen, a.ID)
		r := sched.Restore{VCPUs: a.VCPUs, ClassID: a.Class, Nodes: a.Nodes, BasePerf: a.BasePerf, ProbePerf: a.ProbePerf}
		l.accepted[r.Verdict()] = struct{}{}
	}
	slices.SortFunc(l.live, func(a, b ledgerEntry) int { return a.id - b.id })
	return l
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
	l.seen = max(l.seen, a.ID)
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

// settleTop has the engine adopt and release top if it has not seen so high
// an ID and top is no longer live (a live one is installed). It runs before
// an entry on the engine moves onto nodes top held and at the install: only
// those can take top's nodes on the engine.
func (l *ledger) settleTop(ctx context.Context) error {
	if l.top.id <= l.seen {
		return nil
	}
	if _, live := l.find(l.top.id); live {
		return nil
	}
	r, err := l.restore(&l.top)
	if err != nil {
		return err
	}
	return l.adoptAndRelease(ctx, &r)
}

func (l *ledger) Machine() machines.Machine { return l.b.Machine() }

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
	if e.id > l.seen && e.id >= l.top.id {
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
	if l.live[i].onEngine {
		if err := l.b.Release(ctx, id); err != nil {
			return err
		}
	}
	l.free = l.free.Union(l.live[i].nodes)
	l.live = slices.Delete(l.live, i, i+1)
	return nil
}

// ApplyMove books a recorded intra-machine move. An entry the engine holds
// moves there too; one only the ledger holds is judged as an adoption of the
// tenant there would be: its size and observations passed before, so only
// the class and the pinning can fail.
func (l *ledger) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	i, ok := l.find(id)
	if !ok {
		return fmt.Errorf("fleet: ledger applying move of container %d: %w", id, nperr.ErrUnknownContainer)
	}
	e := &l.live[i]
	if !e.onEngine {
		moved := *e
		moved.class, moved.nodes = classID, nodes
		r, err := l.restore(&moved)
		if err != nil {
			return err
		}
		if err := l.judge(ctx, &r); err != nil {
			return err
		}
	}
	avail := l.free.Union(e.nodes)
	if nodes.Minus(avail) != 0 {
		return fmt.Errorf("fleet: ledger applying move of container %d: nodes %v not free: %w", id, nodes, nperr.ErrLogCorrupt)
	}
	if e.onEngine {
		if !nodes.Intersect(l.top.nodes).Empty() {
			if err := l.settleTop(ctx); err != nil {
				return err
			}
		}
		if err := l.b.ApplyMove(ctx, id, classID, nodes); err != nil {
			return err
		}
	}
	l.free = avail.Minus(nodes)
	e.class, e.nodes = classID, nodes
	if e.id == l.top.id { // top holds its tenant's nodes while it lives
		l.top.class, l.top.nodes = classID, nodes
	}
	return nil
}

func (l *ledger) Assignments() []sched.Assignment {
	out := make([]sched.Assignment, len(l.live))
	for i := range l.live {
		out[i] = l.live[i].assignment()
	}
	return out
}

// Assignment is the engine's for an entry it holds.
func (l *ledger) Assignment(id int) (sched.Assignment, bool) {
	i, ok := l.find(id)
	if !ok {
		return sched.Assignment{}, false
	}
	if l.live[i].onEngine {
		return l.b.Assignment(id)
	}
	return l.live[i].assignment(), true
}

func (l *ledger) FreeNodes() topology.NodeSet { return l.free }

// install ends the replay: the engine adopts and releases top if it must,
// then adopts each entry only the ledger holds. It returns how many it
// adopted.
func (l *ledger) install(ctx context.Context) (int, error) {
	if err := l.settleTop(ctx); err != nil {
		return 0, fmt.Errorf("restoring the ID allocator: %w", err)
	}
	n := 0
	for i := range l.live {
		e := &l.live[i]
		if e.onEngine {
			continue
		}
		r, err := l.restore(e)
		if err != nil {
			return n, err
		}
		if _, err := l.b.Adopt(ctx, r); err != nil {
			return n, fmt.Errorf("installing container %d: %w", e.id, err)
		}
		e.onEngine, e.installed = true, true
		n++
	}
	return n, nil
}

// installed reports whether the install adopted engine ID id.
func (l *ledger) installed(id int) bool {
	i, ok := l.find(id)
	return ok && l.live[i].installed
}

// errServes refuses what a ledger does not do: it replays, it does not serve.
var errServes = fmt.Errorf("fleet: a ledger replays a log and serves nothing: %w", nperr.ErrBackendDown)

func (l *ledger) Preview(context.Context, perfsim.Workload, int) (*sched.Preview, error) {
	return nil, errServes
}

func (l *ledger) Place(context.Context, perfsim.Workload, int) (*sched.Assignment, error) {
	return nil, errServes
}

func (l *ledger) Rebalance(context.Context) (*sched.RebalanceReport, error) {
	return nil, errServes
}
