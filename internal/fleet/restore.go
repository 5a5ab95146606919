// Recovery: rebuilding a fleet from a snapshot plus a write-ahead record
// tail. Restore runs once, on a freshly built fleet whose backends have
// been Added (and trained) but never served: the snapshot installs the
// tenant map and member flags as of its sequence, then each record with a
// greater sequence replays the mutation it logged — adoption instead of
// re-admission, recorded moves instead of re-searching — so the recovered
// fleet's Assignments(), Stats(), free sets and health states are
// byte-identical to the fleet that wrote the log.
//
// Tenants mapped to a dead member are adopted onto its backend all the
// same: engines here are in-process models of the machine, and
// reconstructing the dead machine's books is what makes the post-recovery
// Revive fencing pass (and Release of stranded records) behave exactly
// like the uncrashed fleet's.
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
	if f.persister != nil {
		//numalint:ignore sentinelwrap startup-sequence misuse by the embedding daemon, never reaches the wire path
		return fmt.Errorf("fleet: restore with a persister attached (attach it after Restore)")
	}
	if f.seq != 0 { // any commit, logged or not
		//numalint:ignore sentinelwrap startup-sequence misuse by the embedding daemon, never reaches the wire path
		return fmt.Errorf("fleet: restore into a fleet that already served")
	}
	// Nothing routes during replay: the records keep member.tenants exact (the
	// books check reads it) and the routing index is derived once, from what
	// they leave behind — whether or not they all apply.
	defer f.rebuildIndexLocked()
	snapSeq := uint64(0)
	if st != nil {
		if err := f.applyStateLocked(ctx, st, lookup); err != nil {
			return err
		}
		snapSeq = st.Seq
		f.seq = st.Seq
	}
	for i := range recs {
		r := &recs[i]
		if r.Seq <= snapSeq {
			continue // pre-snapshot tail the crash left untruncated
		}
		if r.Seq != f.seq+1 {
			return fmt.Errorf("fleet: replaying record %d (%s) after seq %d: sequence gap: %w",
				r.Seq, r.Type, f.seq, nperr.ErrLogCorrupt)
		}
		if err := f.applyLocked(ctx, r, lookup); err != nil {
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

// resolve looks up a recorded workload name; a miss means the log was
// written against another catalog.
func (lookup WorkloadLookup) resolve(name string) (perfsim.Workload, error) {
	w, ok := lookup(name)
	if !ok {
		return w, fmt.Errorf("workload %q not in the catalog: %w", name, nperr.ErrLogCorrupt)
	}
	return w, nil
}

// restoreOf is the backend-local admission a RecPlace or RecMove commits,
// for a container of workload w with vcpus vCPUs.
func restoreOf(r *Record, w perfsim.Workload, vcpus int) sched.Restore {
	return sched.Restore{
		ID: r.EngineID, Workload: w, VCPUs: vcpus, ClassID: r.ClassID,
		Nodes: r.Nodes, BasePerf: r.BasePerf, ProbePerf: r.ProbePerf,
	}
}

// adoptLocked installs recorded admission r of fleet container id onto
// member m's backend and registers the fleet mapping. Callers hold f.mu.
func (f *Fleet) adoptLocked(ctx context.Context, id int, m *member, r sched.Restore) error {
	if _, dup := f.tenants[id]; dup {
		return fmt.Errorf("fleet ID %d already mapped: %w", id, nperr.ErrLogCorrupt)
	}
	a, err := m.b.Adopt(ctx, r)
	if err != nil {
		return fmt.Errorf("adopting container %d onto %s: %w", id, m.name, err)
	}
	f.tenants[id] = &tenantRec{mem: m, engineID: r.ID, w: r.Workload, vcpus: r.VCPUs, assign: *a}
	m.tenants++
	if id >= f.nextID {
		f.nextID = id + 1
	}
	return nil
}

// applyStateLocked installs a snapshot. Callers hold f.mu.
func (f *Fleet) applyStateLocked(ctx context.Context, st *State, lookup WorkloadLookup) error {
	for _, ms := range st.Members {
		m, err := f.memberOf(ms.Name)
		if err != nil {
			return fmt.Errorf("fleet: restoring member %q: %w", ms.Name, err)
		}
		m.drained, m.health, m.misses = ms.Drained, ms.Health, ms.Misses
	}
	f.nextID = st.NextID
	f.admitted, f.rejected, f.released, f.moves = st.Admitted, st.Rejected, st.Released, st.Moves
	f.failovers, f.failedOver = st.Failovers, st.FailedOver
	f.migrationSeconds = st.MigrationSeconds
	for i := range st.Tenants {
		ts := &st.Tenants[i]
		m, err := f.memberOf(ts.Backend)
		if err != nil {
			return fmt.Errorf("fleet: restoring tenant %d: %w", ts.ID, err)
		}
		w, err := lookup.resolve(ts.Workload)
		if err != nil {
			return fmt.Errorf("fleet: restoring tenant %d: %w", ts.ID, err)
		}
		if err := f.adoptLocked(ctx, ts.ID, m, sched.Restore{
			ID: ts.EngineID, Workload: w, VCPUs: ts.VCPUs, ClassID: ts.ClassID,
			Nodes: ts.Nodes, BasePerf: ts.BasePerf, ProbePerf: ts.ProbePerf,
		}); err != nil {
			return fmt.Errorf("fleet: restoring tenant %d: %w", ts.ID, err)
		}
	}
	// NextID may exceed the highest mapped ID (released tenants); the
	// snapshot value wins so recovered admissions never reuse an ID.
	if st.NextID > f.nextID {
		f.nextID = st.NextID
	}
	return nil
}

// applyLocked replays one record; m is the machine it names (only a reject
// and a rebalance summary name none). Callers hold f.mu.
func (f *Fleet) applyLocked(ctx context.Context, r *Record, lookup WorkloadLookup) error {
	var m *member
	if r.Type != RecReject && r.Type != RecRebalance {
		var err error
		if m, err = f.memberOf(r.Backend); err != nil {
			return err
		}
	}
	switch r.Type {
	case RecPlace:
		w, err := lookup.resolve(r.Workload)
		if err != nil {
			return err
		}
		if err := f.adoptLocked(ctx, r.ID, m, restoreOf(r, w, r.VCPUs)); err != nil {
			return err
		}
		f.admitted++

	case RecReject:
		f.rejected++

	case RecRelease:
		rec, ok := f.tenants[r.ID]
		if !ok {
			return fmt.Errorf("releasing unmapped container %d: %w", r.ID, nperr.ErrLogCorrupt)
		}
		delete(f.tenants, r.ID)
		rec.mem.tenants--
		f.released++
		if rec.mem.health != Dead {
			if err := rec.mem.b.Release(ctx, rec.engineID); err != nil {
				return fmt.Errorf("releasing container %d from %s: %w", r.ID, rec.mem.name, err)
			}
		}

	case RecMove:
		rec, ok := f.tenants[r.ID]
		if !ok {
			return fmt.Errorf("moving unmapped container %d: %w", r.ID, nperr.ErrLogCorrupt)
		}
		d, err := f.memberOf(r.Dest)
		if err != nil {
			return err
		}
		if rec.mem.health != Dead {
			if err := rec.mem.b.Release(ctx, rec.engineID); err != nil {
				return fmt.Errorf("moving container %d off %s: %w", r.ID, rec.mem.name, err)
			}
		}
		a, err := d.b.Adopt(ctx, restoreOf(r, rec.w, rec.vcpus))
		if err != nil {
			return fmt.Errorf("adopting moved container %d onto %s: %w", r.ID, d.name, err)
		}
		rec.mem.tenants--
		rec.mem, rec.engineID, rec.assign = d, r.EngineID, *a
		d.tenants++
		f.moves++
		f.migrationSeconds += r.Seconds
		if r.Failover {
			f.failedOver++
		}

	case RecIntraMove:
		rec, ok := f.tenants[r.ID]
		if !ok {
			return fmt.Errorf("intra-moving unmapped container %d: %w", r.ID, nperr.ErrLogCorrupt)
		}
		if rec.mem.name != r.Backend {
			return fmt.Errorf("intra-move of container %d names %s, mapped to %s: %w",
				r.ID, r.Backend, rec.mem.name, nperr.ErrLogCorrupt)
		}
		if err := rec.mem.b.ApplyMove(ctx, r.EngineID, r.ClassID, r.Nodes); err != nil {
			return fmt.Errorf("intra-move of container %d on %s: %w", r.ID, rec.mem.name, err)
		}
		if a, ok := rec.mem.b.Assignment(r.EngineID); ok {
			rec.assign = a
		}

	case RecIntraPass:
		f.migrationSeconds += r.Seconds

	case RecHealth:
		// A return from Dead is the RecRevive's to make, after its fence.
		if r.FromHealth != Dead {
			m.health, m.misses = r.ToHealth, r.Misses
		}

	case RecFailover:
		f.failovers++

	case RecRebalance, RecDrainPass:
		// Pass summaries: audit records; every state change was logged
		// per-move.

	case RecDrainStart, RecResume:
		m.drained = r.Type == RecDrainStart

	case RecRevive:
		if _, orphan, err := f.fenceLocked(ctx, m); err != nil {
			return fmt.Errorf("re-fencing orphan %d on %s: %w", orphan, m.name, err)
		}
		m.health = Healthy
		m.misses = 0

	default:
		return fmt.Errorf("unknown record type %d: %w", int(r.Type), nperr.ErrLogCorrupt)
	}
	return nil
}
