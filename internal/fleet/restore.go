// Recovery: rebuilding a fleet from a snapshot plus a write-ahead record
// tail. Restore runs once, on a freshly built fleet whose backends have
// been Added (and trained) but never served. The snapshot's records rebuild
// the member flags and tenant map as of its sequence; then each record with
// a greater sequence redoes the backend side of the mutation it logged —
// adoption instead of re-admission, recorded moves instead of re-searching —
// and is booked by the same bookLocked the live mutation called, so the
// recovered fleet's books (its State), Assignments(), Stats(), free sets and
// health states are those of the fleet that wrote the log.
//
// The backend side of every record, the snapshot's and the tail's, goes to
// ledgers (ledger.go): each member's books beside its engine, which check
// each record as the engine would. Most tenants a long tail places leave
// again before it ends, and the engine adopts only those that do not, once,
// at the install. Each engine's ID allocator ends where adopting every
// record would have left it.
//
// Tenants mapped to a dead member are adopted onto its backend all the
// same, and so are the orphans its engine still holds for tenants that left
// it while it was dead: engines here are in-process models of the machine,
// and reconstructing the dead machine's books is what makes the
// post-recovery Revive fencing pass (and Release of stranded records) behave
// exactly like the uncrashed fleet's.
package fleet

import (
	"context"
	"fmt"

	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
)

// WorkloadLookup resolves a recorded workload name back to its full
// description (cmd binaries use their workload catalog). Workloads are
// identified by name in records — logging the full perfsim parameters
// would bloat every frame with data the serving binary already has.
type WorkloadLookup func(name string) (perfsim.Workload, bool)

// Restore rebuilds fleet state from a snapshot (nil when none was taken)
// and the log records following it. It must run on an unused fleet —
// backends Added, nothing ever served, no persister attached (attach it
// after, so replay is not re-logged). Records at or below the snapshot's
// sequence are skipped (a crash between snapshot and log truncation
// legitimately leaves them behind); out-of-order or gapped sequences, and
// records inconsistent with the fleet's configured backends, fail with
// nperr.ErrLogCorrupt.
func (f *Fleet) Restore(ctx context.Context, st *State, recs []Record, lookup WorkloadLookup) error {
	if lookup == nil {
		lookup = func(string) (perfsim.Workload, bool) { return perfsim.Workload{}, false }
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.unusedLocked(); err != nil {
		return err
	}
	// Nothing routes during replay: the records keep member.tenants exact (the
	// books check reads it) and the routing index is derived once, from what
	// they leave behind — whether or not they all apply.
	defer f.rebuildIndexLocked()
	f.ledgers = &ledgerSet{lookup: lookup, by: make([]*ledger, len(f.members))}
	defer func() { f.ledgers = nil }()
	if st != nil {
		if err := f.applyStateLocked(ctx, st, lookup); err != nil {
			return err
		}
	}
	if err := f.replayLogLocked(ctx, recs, lookup); err != nil {
		return err
	}
	return f.installLocked(ctx)
}

// unusedLocked refuses a fleet Restore may not run on. Callers hold f.mu.
func (f *Fleet) unusedLocked() error {
	if f.persister != nil {
		//numalint:ignore sentinelwrap startup-sequence misuse by the embedding daemon, never reaches the wire path
		return fmt.Errorf("fleet: restore with a persister attached (attach it after Restore)")
	}
	if f.seq != 0 { // any commit, logged or not
		//numalint:ignore sentinelwrap startup-sequence misuse by the embedding daemon, never reaches the wire path
		return fmt.Errorf("fleet: restore into a fleet that already served")
	}
	return nil
}

// backendLocked is what a replay drives for m: its ledger while Restore
// runs, its Backend otherwise. Callers hold f.mu.
func (f *Fleet) backendLocked(m *member) replayer {
	if f.ledgers != nil {
		return f.ledgers.of(m)
	}
	return m.b
}

// installLocked ends a replay into ledgers: each engine adopts what its
// ledger holds — the tenants that survive the replay, and the orphans of a
// machine that died — and each tenant's books take the assignment its
// engine gave it, booked as an intra-move to where it is (the ledger's lacks
// what only the engine computes: the prediction, the pinning). Callers hold
// f.mu.
func (f *Fleet) installLocked(ctx context.Context) error {
	for i, l := range f.ledgers.by {
		if l == nil {
			continue
		}
		if err := l.install(ctx); err != nil {
			return fmt.Errorf("fleet: restoring %s: %w", f.members[i].name, err)
		}
	}
	for id, rec := range f.tenants {
		if a, ok := rec.mem.b.Assignment(rec.engineID); ok {
			f.bookLocked(&Record{Type: RecIntraMove, ID: id}, rec.mem, &a, nil)
		}
	}
	return nil
}

// replayLogLocked replays, one by one, the records of recs above the fleet's
// sequence. Callers hold f.mu.
func (f *Fleet) replayLogLocked(ctx context.Context, recs []Record, lookup WorkloadLookup) error {
	snapSeq := f.seq
	for i := range recs {
		r := &recs[i]
		if r.Seq <= snapSeq {
			continue // pre-snapshot tail the crash left untruncated
		}
		if r.Seq != f.seq+1 {
			return fmt.Errorf("fleet: replaying record %d (%s) after seq %d: sequence gap: %w",
				r.Seq, r.Type, f.seq, nperr.ErrLogCorrupt)
		}
		if err := f.replayLocked(ctx, r, lookup); err != nil {
			return fmt.Errorf("fleet: replaying record %d (%s): %w", r.Seq, r.Type, err)
		}
		f.seq = r.Seq
	}
	return nil
}

// memberOf resolves a recorded backend name; a miss means the log was
// written by a differently configured fleet. Callers hold f.mu.
func (f *Fleet) memberOf(name string) (*member, error) {
	m, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("backend %q not configured: %w", name, nperr.ErrLogCorrupt)
	}
	return m, nil
}

// restoreOf is the backend-local admission a RecPlace or RecMove commits,
// for a container of workload w with vcpus vCPUs.
func restoreOf(r *Record, w perfsim.Workload, vcpus int) sched.Restore {
	return sched.Restore{
		ID: r.EngineID, Workload: w, VCPUs: vcpus, ClassID: r.ClassID,
		Nodes: r.Nodes, BasePerf: r.BasePerf, ProbePerf: r.ProbePerf,
	}
}

// applyStateLocked replays a snapshot: each of its records replays as a log
// record would — the member flags, then each tenant's RecPlace — then the
// sequence, counters and next ID the snapshot carries, which stand for the
// whole history before it. Callers hold f.mu.
func (f *Fleet) applyStateLocked(ctx context.Context, st *State, lookup WorkloadLookup) error {
	for i := range st.Records {
		r := &st.Records[i]
		if err := f.replayLocked(ctx, r, lookup); err != nil {
			return fmt.Errorf("fleet: restoring snapshot record %d (%s): %w", r.Seq, r.Type, err)
		}
	}
	// NextID may exceed the highest mapped ID (released tenants); the
	// snapshot value wins so recovered admissions never reuse an ID.
	f.nextID = max(f.nextID, st.NextID)
	f.admitted, f.rejected, f.released, f.moves = st.Admitted, st.Rejected, st.Released, st.Moves
	f.failovers, f.failedOver = st.Failovers, st.FailedOver
	f.migrationSeconds = st.MigrationSeconds
	f.seq = st.Seq
	return nil
}

// replayLocked replays one record: it checks that r fits the fleet, redoes on
// the backends what the live mutation did — an adoption for an admission, the
// source's release and the destination's adoption for a move, the recorded
// intra-machine move, the fence a revival ran — and books r through
// bookLocked, as the live mutation did. Callers hold f.mu.
func (f *Fleet) replayLocked(ctx context.Context, r *Record, lookup WorkloadLookup) (err error) {
	var m, d *member // the machine r names (a reject and a rebalance summary name none), a move's destination
	if r.Type != RecReject && r.Type != RecRebalance {
		if m, err = f.memberOf(r.Backend); err != nil {
			return err
		}
	}
	if r.Type == RecMove {
		if d, err = f.memberOf(r.Dest); err != nil {
			return err
		}
	}
	rec, mapped := f.tenants[r.ID]
	if r.Type == RecRelease || r.Type == RecMove || r.Type == RecIntraMove {
		if !mapped || rec.mem != m {
			return fmt.Errorf("container %d is not mapped to %s: %w", r.ID, m.name, nperr.ErrLogCorrupt)
		}
	}
	var (
		a *sched.Assignment
		w perfsim.Workload
	)
	switch r.Type {
	case RecPlace:
		if mapped {
			return fmt.Errorf("container %d already mapped: %w", r.ID, nperr.ErrLogCorrupt)
		}
		var ok bool
		if w, ok = lookup(r.Workload); !ok { // the log was written against another catalog
			return fmt.Errorf("workload %q not in the catalog: %w", r.Workload, nperr.ErrLogCorrupt)
		}
		if a, err = f.backendLocked(m).Adopt(ctx, restoreOf(r, w, r.VCPUs)); err != nil {
			return fmt.Errorf("adopting container %d onto %s: %w", r.ID, m.name, err)
		}

	case RecRelease, RecMove:
		if m.health != Dead {
			if err := f.backendLocked(m).Release(ctx, rec.engineID); err != nil {
				return fmt.Errorf("releasing container %d from %s: %w", r.ID, m.name, err)
			}
		}
		if d != nil {
			if a, err = f.backendLocked(d).Adopt(ctx, restoreOf(r, rec.w, rec.vcpus)); err != nil {
				return fmt.Errorf("adopting moved container %d onto %s: %w", r.ID, d.name, err)
			}
		}

	case RecIntraMove:
		if err := f.backendLocked(m).ApplyMove(ctx, r.EngineID, r.ClassID, r.Nodes); err != nil {
			return fmt.Errorf("intra-move of container %d on %s: %w", r.ID, m.name, err)
		}
		if r.EngineID != rec.engineID { // the books would take another tenant's assignment
			return fmt.Errorf("intra-move of container %d names engine ID %d, not its %d: %w", r.ID, r.EngineID, rec.engineID, nperr.ErrLogCorrupt)
		}
		if moved, ok := f.backendLocked(m).Assignment(r.EngineID); ok {
			a = &moved
		}

	case RecRevive:
		if _, orphan, err := f.fenceLocked(ctx, m); err != nil {
			return fmt.Errorf("re-fencing orphan %d on %s: %w", orphan, m.name, err)
		}

	case RecReject, RecIntraPass, RecHealth, RecFailover, RecRebalance, RecDrainStart, RecDrainPass, RecResume:
		// The books alone.

	default:
		return fmt.Errorf("unknown record type %d: %w", int(r.Type), nperr.ErrLogCorrupt)
	}
	if d != nil {
		m = d // a move books onto its destination
	}
	f.bookLocked(r, m, a, &w)
	return nil
}
