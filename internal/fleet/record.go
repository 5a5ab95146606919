// Durable commit records for the fleet: the write-ahead shape of every
// state mutation the fleet performs. Each mutation that today publishes a
// Subscribe event also appends a Record (under the same Fleet.mu hold, so
// the record sequence IS the commit order), plus a handful of WAL-only
// records for mutations subscribers never needed (rejections, drain-flag
// sets, per-move intra-machine detail) but recovery does.
//
// Records are VALUE logs, not command logs: they carry the committed
// decision (the chosen class, the concrete nodes, both model inputs), not
// the API call that produced it. Re-executing Place against a recovered
// log would diverge — observation noise streams are keyed by engine-local
// container IDs and failed admissions consume IDs — and would pay the full
// observation cost per record; replaying the decision through
// sched.Scheduler.Adopt is deterministic and microsecond-cheap. What a
// restart costs per record is measured by numabench's restart_replay
// workload and budgeted in DESIGN.md ("What a restart costs").
package fleet

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/topology"
)

// RecordType discriminates Records.
type RecordType uint8

const (
	// RecPlace: container ID admitted onto Backend. Carries the full
	// committed assignment (EngineID, ClassID, Nodes, BasePerf, ProbePerf)
	// so replay adopts without re-observing.
	RecPlace RecordType = iota
	// RecReject: one Place found no backend (WAL-only; recovers
	// Stats.Rejected).
	RecReject
	// RecRelease: container ID released from Backend.
	RecRelease
	// RecMove: container ID migrated from Backend to Dest. Carries the
	// destination admission's full assignment, plus the Failover flag so
	// replay reconstructs the FailedOver counter.
	RecMove
	// RecIntraMove: one intra-machine rebalance move on Backend (WAL-only
	// per-move detail; the Subscribe feed only carries pass totals).
	// EngineID/ClassID/Nodes are the destination placement.
	RecIntraMove
	// RecIntraPass: one backend's intra-machine pass total (Seconds),
	// appended after its RecIntraMoves — replay adds the total to
	// MigrationSeconds in one float addition, exactly like the live pass.
	RecIntraPass
	// RecHealth: Backend transitioned FromHealth → ToHealth; Misses is the
	// consecutive-miss counter at the transition.
	RecHealth
	// RecFailover: summary of one failover pass over Backend's tenants.
	RecFailover
	// RecRebalance: summary of one fleet-wide rebalance pass (audit only;
	// the per-move records already carry every state change).
	RecRebalance
	// RecDrainStart: Backend closed for admissions (the drain flag set
	// point — appended before the pass's moves, unlike the Subscribe
	// feed's end-of-pass summary).
	RecDrainStart
	// RecDrainPass: summary of one drain pass (audit only).
	RecDrainPass
	// RecResume: Backend reopened for admissions.
	RecResume
	// RecRevive: Backend rejoined after death; replay re-runs the fencing
	// pass against the reconstructed engine books (Fenced is the original
	// orphan count, kept for audit).
	RecRevive
)

func (t RecordType) String() string {
	switch t {
	case RecPlace:
		return "place"
	case RecReject:
		return "reject"
	case RecRelease:
		return "release"
	case RecMove:
		return "move"
	case RecIntraMove:
		return "intra-move"
	case RecIntraPass:
		return "intra-pass"
	case RecHealth:
		return "health"
	case RecFailover:
		return "failover"
	case RecRebalance:
		return "rebalance"
	case RecDrainStart:
		return "drain-start"
	case RecDrainPass:
		return "drain-pass"
	case RecResume:
		return "resume"
	case RecRevive:
		return "revive"
	default:
		return fmt.Sprintf("record(%d)", int(t))
	}
}

// Record is one durable fleet mutation. Like Event it is a flat value
// struct — no pointers, no slices — so appending is a copy and encoding
// is a fixed walk; fields beyond Seq/Type are populated per type (see the
// RecordType docs) and zero otherwise.
type Record struct {
	// Seq is the write-ahead sequence number, assigned under Fleet.mu:
	// contiguous, strictly increasing, shared across all record types.
	Seq  uint64
	Type RecordType

	// ID is the fleet-wide container ID of a container record; -1
	// otherwise.
	ID int
	// Backend names the machine the record concerns (source machine for
	// RecMove; "" for the fleet-wide RecReject/RecRebalance).
	Backend string
	// Dest is the destination machine of a RecMove.
	Dest string
	// Workload / VCPUs describe the container of a container record.
	Workload string
	VCPUs    int
	// EngineID / ClassID / Nodes / BasePerf / ProbePerf are the committed
	// backend-local assignment of a RecPlace/RecMove (and the destination
	// placement of a RecIntraMove) — everything Adopt/ApplyMove need.
	EngineID  int
	ClassID   int
	Nodes     topology.NodeSet
	BasePerf  float64
	ProbePerf float64
	// FromHealth → ToHealth and Misses mirror a RecHealth transition.
	FromHealth, ToHealth Health
	Misses               int
	// Pass summaries: Moves/Intra/Examined/Stranded mirror Report; Fenced
	// is a RecRevive's orphan count.
	Moves, Intra, Examined, Stranded, Fenced int
	// Failover marks a RecMove committed by a failover pass (replay
	// increments FailedOver for these).
	Failover bool
	// Seconds is simulated migration time: one move's cost for
	// RecMove/RecIntraMove, the pass total for summaries.
	Seconds float64
}

// Persister is the pluggable durability sink (internal/wal implements it
// over an fsync'd file pair; tests implement it in memory).
//
// Append is called under Fleet.mu at every commit point and must neither
// block nor fail: implementations buffer the record and surface write
// errors through Commit. Commit is called after the mutation's lock is
// released with the last sequence the caller appended; it blocks per the
// implementation's durability policy (fsync=always waits for the log to
// reach disk, interval/none return immediately) and returns the sticky
// write error, if any. Snapshot is called under Fleet.mu with the fleet's
// full state; implementations must persist it atomically and may then
// discard log records with Seq <= State.Seq (the lock guarantees no
// concurrent appends, so truncation cannot lose a record).
type Persister interface {
	Append(Record)
	Commit(seq uint64) error
	Snapshot(State) error
}

// TenantState is one tenant's durable slice of a State snapshot: the
// fleet mapping plus the committed backend-local assignment, i.e. exactly
// a RecPlace for its current home.
type TenantState struct {
	ID       int
	Backend  string
	EngineID int
	Workload string
	VCPUs    int
	// ClassID / Nodes / BasePerf / ProbePerf are the tenant's CURRENT
	// placement (intra-machine moves included), so adoption lands it where
	// it runs now, not where it was first admitted.
	ClassID   int
	Nodes     topology.NodeSet
	BasePerf  float64
	ProbePerf float64
}

// MemberState is one member's durable slice of a State snapshot. Domain
// labels and machine shapes are deliberately absent: they are
// configuration, re-established by Add at boot, and a snapshot must not
// override what the operator configured.
type MemberState struct {
	Name    string
	Drained bool
	Health  Health
	Misses  int
}

// State is a point-in-time snapshot of everything the fleet would need to
// serve again: the tenant map, member flags, counters and the write-ahead
// sequence it covers. Restore(state, nil, …) alone reconstructs the fleet
// as of Seq; log records with greater sequences replay on top.
type State struct {
	// Seq is the last write-ahead sequence covered by this snapshot.
	Seq uint64
	// NextID is the next fleet-wide container ID.
	NextID int
	// Counters mirror Stats.
	Admitted, Rejected, Released, Moves int64
	Failovers, FailedOver               int64
	MigrationSeconds                    float64
	// Members carries the mutable per-member flags in add order; Tenants
	// the tenant map in ascending fleet-ID order.
	Members []MemberState
	Tenants []TenantState
}

// SetPersister attaches the durability sink. Attach it once, after Add
// (and after Restore when recovering) and before serving traffic: records
// are appended only from the attach point on, so anything mutated before
// it is not durable.
func (f *Fleet) SetPersister(p Persister) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.persister = p
}

// WALSeq returns the last write-ahead sequence assigned (0 before any
// durable mutation). It advances only while a persister is attached.
func (f *Fleet) WALSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.walSeq
}

// Checkpoint snapshots the fleet's full state into the attached persister
// and returns the write-ahead sequence the snapshot covers. It holds
// Fleet.mu across the persister's Snapshot call — admissions wait — which
// is what lets the persister truncate its log without racing an append.
// With no persister attached it is a no-op returning the current
// sequence.
func (f *Fleet) Checkpoint() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.persister == nil {
		return f.walSeq, nil
	}
	if err := f.persister.Snapshot(f.stateLocked()); err != nil {
		return f.walSeq, fmt.Errorf("fleet: checkpointing at seq %d: %w", f.walSeq, err)
	}
	return f.walSeq, nil
}

// stateLocked builds the snapshot State. Callers hold f.mu.
func (f *Fleet) stateLocked() State {
	st := State{
		Seq:              f.walSeq,
		NextID:           f.nextID,
		Admitted:         f.admitted,
		Rejected:         f.rejected,
		Released:         f.released,
		Moves:            f.moves,
		Failovers:        f.failovers,
		FailedOver:       f.failedOver,
		MigrationSeconds: f.migrationSeconds,
	}
	st.Members = make([]MemberState, 0, len(f.members))
	for _, m := range f.members {
		st.Members = append(st.Members, MemberState{
			Name: m.name, Drained: m.drained, Health: m.health, Misses: m.misses,
		})
	}
	st.Tenants = make([]TenantState, 0, len(f.tenants))
	for _, id := range f.tenantIDsLocked() {
		rec := f.tenants[id]
		st.Tenants = append(st.Tenants, TenantState{
			ID: id, Backend: rec.mem.name, EngineID: rec.engineID,
			Workload: rec.w.Name, VCPUs: rec.vcpus,
			ClassID: rec.assign.Class, Nodes: rec.assign.Nodes,
			BasePerf: rec.assign.BasePerf, ProbePerf: rec.assign.ProbePerf,
		})
	}
	return st
}

// tenantIDsLocked returns every fleet ID in ascending order. Callers hold
// f.mu.
func (f *Fleet) tenantIDsLocked() []int {
	ids := make([]int, 0, len(f.tenants))
	for id := range f.tenants {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// persistLocked assigns the next write-ahead sequence to r and hands it
// to the persister. Callers hold f.mu — the same hold that makes the
// matching publish totally ordered, so log order IS commit order. With no
// persister attached it is a no-op.
//
//numalint:noalloc
func (f *Fleet) persistLocked(r Record) {
	if f.persister == nil {
		return
	}
	f.walSeq++
	r.Seq = f.walSeq
	f.persister.Append(r)
}

// durable is what a mutating call carries out of its Fleet.mu hold: the
// persister and the last sequence appended by the time it unlocked. The call
// defers join BEFORE taking the lock and markLocked right after deferring
// the unlock, so the mark is the hold's last act and the join runs after the
// unlock — Commit may block on an fsync and must never do so under the
// fleet lock.
type durable struct {
	p   Persister
	seq uint64
}

func (f *Fleet) markLocked(d *durable) { d.p, d.seq = f.persister, f.walSeq }

// join waits for everything appended up to the mark to reach the persister's
// durability bar (per its fsync policy) and joins any failure into *err.
func (d *durable) join(err *error) {
	if d.p == nil || d.seq == 0 {
		return
	}
	if cerr := d.p.Commit(d.seq); cerr != nil {
		*err = errors.Join(*err, fmt.Errorf("fleet: committed state not durable through seq %d: %w", d.seq, cerr))
	}
}
