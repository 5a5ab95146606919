// The fleet's commit stream: every state mutation is one Record, numbered by
// commitLocked under the Fleet.mu hold that made it, appended to the attached
// Persister and — for the nine types a watcher is told about — copied into
// each Subscription ring (events.go). DESIGN.md, "The commit stream", states
// the invariant once.
//
// Records are VALUE logs, not command logs: they carry the committed
// decision (the chosen class, the concrete nodes, both model inputs), not
// the API call that produced it. Re-executing Place against a recovered
// log would diverge — observation noise streams are keyed by engine-local
// container IDs and failed admissions consume IDs — and would pay the full
// observation cost per record. Replaying the decision is deterministic and
// cheap: a restart books every record, the snapshot's and the tail's, in a
// ledger (ledger.go) and adopts each tenant that survives them onto its
// engine once, through sched.Scheduler.Adopt. What a restart costs per
// record is measured by numabench's restart_replay workload and budgeted in
// DESIGN.md ("What a restart costs").
package fleet

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
)

// RecordType discriminates Records.
type RecordType uint8

const (
	// RecPlace: container ID admitted onto Backend. Carries the full
	// committed assignment (EngineID, ClassID, Nodes, BasePerf, ProbePerf)
	// so replay adopts without re-observing.
	RecPlace RecordType = iota
	// RecReject: one Place found no backend (log only; recovers
	// Stats.Rejected).
	RecReject
	// RecRelease: container ID released from Backend. A release of a tenant
	// stranded on a dead machine commits too — the fleet record is the
	// authoritative one, and it is gone.
	RecRelease
	// RecMove: container ID migrated from Backend to Dest (Seconds of
	// simulated fast-mechanism copy), by a rebalance, drain or failover
	// pass. Carries the destination admission's full assignment, plus the
	// Failover flag so replay reconstructs the FailedOver counter.
	RecMove
	// RecIntraMove: one intra-machine rebalance move on Backend (log only:
	// watchers get pass totals). EngineID/ClassID/Nodes are the destination
	// placement.
	RecIntraMove
	// RecIntraPass: one backend's intra-machine pass total (Seconds),
	// appended after its RecIntraMoves and added to MigrationSeconds whole.
	RecIntraPass
	// RecHealth: Backend's health went FromHealth → ToHealth, or, with the
	// two equal, only its consecutive-miss counter changed; Misses is the
	// counter after.
	RecHealth
	// RecFailover: summary of one failover pass over Backend's tenants
	// (Moves rehomed, Stranded left, Seconds spent).
	RecFailover
	// RecRebalance: summary of one fleet-wide rebalance pass (Moves
	// cross-machine, Intra intra-machine, Seconds spent; audit only — the
	// per-move records already carry every state change).
	RecRebalance
	// RecDrainStart: Backend closed for admissions (log only: the flag is
	// durable where it takes effect, before the pass's moves, so a crash
	// mid-pass recovers a backend that is already closed).
	RecDrainStart
	// RecDrainPass: summary of one drain pass of Backend (audit only).
	RecDrainPass
	// RecResume: Backend reopened for admissions after a drain.
	RecResume
	// RecRevive: Backend rejoined after death; replay re-runs the fencing
	// pass against the reconstructed engine books (Fenced is the original
	// orphan count, kept for audit).
	RecRevive
)

// recordNames is the one name table: each type's name in the log and, for
// the nine a watcher is told about, on the event feed. An empty event name is
// the feed's filter.
var recordNames = [...]struct{ log, event string }{
	RecPlace:      {"place", "place"},
	RecReject:     {"reject", ""},
	RecRelease:    {"release", "release"},
	RecMove:       {"move", "move"},
	RecIntraMove:  {"intra-move", ""},
	RecIntraPass:  {"intra-pass", ""},
	RecHealth:     {"health", "health"},
	RecFailover:   {"failover", "failover"},
	RecRebalance:  {"rebalance", "rebalance"},
	RecDrainStart: {"drain-start", ""},
	RecDrainPass:  {"drain-pass", "drain"},
	RecResume:     {"resume", "resume"},
	RecRevive:     {"revive", "revive"},
}

func (t RecordType) String() string {
	if int(t) < len(recordNames) {
		return recordNames[t].log
	}
	return fmt.Sprintf("record(%d)", int(t))
}

// EventName returns t's name on the event feed (the SSE event field), ""
// for a type the feed does not carry.
func (t RecordType) EventName() string {
	if int(t) < len(recordNames) {
		return recordNames[t].event
	}
	return ""
}

// Record is one committed fleet mutation: a flat value struct — no pointers
// into fleet state, no slices — so appending and buffering are copies, a
// buffered record stays valid forever and encoding is a fixed walk. Fields
// beyond Seq/Type are populated per type (see the RecordType docs) and zero
// otherwise. The event feed encodes all of them but EngineID, ClassID, Nodes,
// BasePerf, ProbePerf, Misses and Failover.
type Record struct {
	// Seq is the fleet's commit count at this record, assigned by
	// commitLocked: strictly increasing and contiguous across all record
	// types, the same number in the log and on the event feed. In a
	// State's Records it is the record's position, from 1.
	Seq  uint64
	Type RecordType
	// FromHealth → ToHealth is a RecHealth transition.
	FromHealth, ToHealth Health
	// Failover marks a RecMove committed by a failover pass (replay
	// increments FailedOver for these).
	Failover bool

	// ID is the fleet-wide container ID of a container record (RecPlace,
	// RecRelease, RecMove, RecIntraMove); -1 otherwise.
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
	// Misses is a RecHealth's consecutive-miss counter.
	Misses int
	// Pass summaries: Moves counts committed cross-machine moves, Intra
	// intra-machine moves (RecRebalance only), Examined / Stranded mirror
	// Report; Fenced is a RecRevive's orphan count.
	Moves, Intra, Examined, Stranded, Fenced int
	// Seconds is simulated migration time: one move's cost for
	// RecMove/RecIntraMove, the pass total for summaries.
	Seconds float64
}

type Event = Record // bench/ names a Drain buffer's element so; goes with ROADMAP item 6b's benchmark PR

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

// State is a point-in-time snapshot of everything the fleet would need to
// serve again, written as the shortest log that rebuilds it: a fixed header
// (the commit sequence it covers, the next ID and the counters) and Records,
// numbered from 1 — per member in add order, a RecHealth from Healthy to its
// health with its miss count, and a RecDrainStart if it is drained; then per
// tenant in ascending fleet-ID order, the RecPlace of where it runs now
// (intra-machine moves included). Domain labels and machine shapes are
// absent: they are configuration, re-established by Add at boot.
// Restore(state, nil, …) alone reconstructs the fleet as of Seq; log records
// with greater sequences replay on top.
type State struct {
	// Seq is the last commit sequence (Record.Seq) covered by this snapshot.
	Seq uint64
	// NextID is the next fleet-wide container ID.
	NextID int
	// Counters mirror Stats.
	Admitted, Rejected, Released, Moves int64
	Failovers, FailedOver               int64
	MigrationSeconds                    float64
	// Records rebuild the members' flags and the tenant map.
	Records []Record
}

// SetPersister attaches the durability sink. Attach it once, after Add
// (and after Restore when recovering) and before serving traffic: records
// are appended only from the attach point on. A fleet that committed k
// records before attaching starts its log at seq k+1 over no snapshot, which
// wal.Open rightly refuses as ErrLogCorrupt — such a caller must Checkpoint
// immediately after attaching.
func (f *Fleet) SetPersister(p Persister) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.persister = p
}

// Seq returns the fleet's commit count: the sequence number of the last
// Record committed (0 before any), listener or not.
func (f *Fleet) Seq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Checkpoint snapshots the fleet's full state into the attached persister
// and returns the commit sequence the snapshot covers. It holds
// Fleet.mu across the persister's Snapshot call — admissions wait — which
// is what lets the persister truncate its log without racing an append.
// With no persister attached it is a no-op returning the current
// sequence.
func (f *Fleet) Checkpoint() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.persister == nil {
		return f.seq, nil
	}
	if err := f.persister.Snapshot(f.stateLocked()); err != nil {
		return f.seq, fmt.Errorf("fleet: checkpointing at seq %d: %w", f.seq, err)
	}
	return f.seq, nil
}

// stateLocked builds the snapshot State. Callers hold f.mu.
func (f *Fleet) stateLocked() State {
	st := State{
		Seq:              f.seq,
		NextID:           f.nextID,
		Admitted:         f.admitted,
		Rejected:         f.rejected,
		Released:         f.released,
		Moves:            f.moves,
		Failovers:        f.failovers,
		FailedOver:       f.failedOver,
		MigrationSeconds: f.migrationSeconds,
	}
	recs := make([]Record, 0, len(f.members)+len(f.tenants))
	for _, m := range f.members {
		recs = append(recs, Record{Type: RecHealth, ID: -1, Backend: m.name,
			FromHealth: Healthy, ToHealth: m.health, Misses: m.misses})
		if m.drained {
			recs = append(recs, Record{Type: RecDrainStart, ID: -1, Backend: m.name})
		}
	}
	for _, id := range f.tenantIDsLocked() {
		rec := f.tenants[id]
		recs = append(recs, Record{Type: RecPlace, ID: id, Backend: rec.mem.name,
			EngineID: rec.engineID, Workload: rec.w.Name, VCPUs: rec.vcpus,
			ClassID: rec.assign.Class, Nodes: rec.assign.Nodes,
			BasePerf: rec.assign.BasePerf, ProbePerf: rec.assign.ProbePerf})
	}
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	st.Records = recs
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

// commitLocked is the fleet's one commit point and the only place a sequence
// number is assigned: it numbers rec, appends it to the persister if one is
// attached, and copies it into every subscriber ring if its type has an event
// name. Callers hold f.mu — the hold that made the mutation — so sequence
// order is effect order for the log and the feed alike. It allocates nothing
// and never blocks.
//
//numalint:noalloc
func (f *Fleet) commitLocked(rec *Record) {
	f.seq++
	rec.Seq = f.seq
	if f.persister != nil {
		f.persister.Append(*rec)
	}
	if rec.Type.EventName() == "" {
		return
	}
	for _, s := range f.subs {
		s.push(rec)
	}
}

// bookLocked is what record r means to the fleet's books — the tenant map and
// each tenantRec, every member's tenant count, drain flag, health and miss
// count, the next fleet ID and the seven counters — live and replayed alike:
// with the snapshot install, it is their only writer (TestBooksHaveOneWriter).
// m is the member r books onto, as its caller resolved it: the one a
// RecPlace, RecHealth, RecDrainStart, RecResume or RecRevive names, a
// RecMove's destination (the other types book from the tenant map or name no
// member, and ignore it). a is the assignment a RecPlace or RecMove
// committed, or the one a RecIntraMove left (nil if the backend lost it); w is
// a RecPlace's workload, which the record only names. It calls no backend and
// leaves the routing index to its callers. Pass summaries but RecFailover's
// book nothing. A RecRelease clears its tenantRec and keeps it, up to
// maxSpare, for a later RecPlace: no caller may read a released tenant's
// record after booking the release. It returns r. Callers hold f.mu.
func (f *Fleet) bookLocked(r *Record, m *member, a *sched.Assignment, w *perfsim.Workload) *Record {
	switch r.Type {
	case RecPlace:
		var rec *tenantRec
		if n := len(f.spare); n > 0 {
			rec, f.spare = f.spare[n-1], f.spare[:n-1]
		} else {
			rec = new(tenantRec)
		}
		*rec = tenantRec{mem: m, engineID: r.EngineID, w: *w, vcpus: r.VCPUs, assign: *a}
		f.tenants[r.ID] = rec
		m.tenants++
		f.nextID = max(f.nextID, r.ID+1)
		f.admitted++
	case RecReject:
		f.rejected++
	case RecRelease:
		rec := f.tenants[r.ID]
		delete(f.tenants, r.ID)
		rec.mem.tenants--
		f.released++
		if len(f.spare) < maxSpare {
			*rec = tenantRec{} // pins no member, workload or pinning while spare
			f.spare = append(f.spare, rec)
		}
	case RecMove:
		rec := f.tenants[r.ID]
		rec.mem.tenants--
		rec.mem, rec.engineID, rec.assign = m, r.EngineID, *a
		m.tenants++
		f.moves++
		f.migrationSeconds += r.Seconds
		if r.Failover {
			f.failedOver++
		}
	case RecIntraMove:
		if a != nil {
			f.tenants[r.ID].assign = *a
		}
	case RecIntraPass:
		f.migrationSeconds += r.Seconds
	case RecHealth:
		// A return from Dead is the RecRevive's, after its fence.
		if r.FromHealth != Dead {
			m.health, m.misses = r.ToHealth, r.Misses
		}
	case RecFailover:
		f.failovers++
	case RecDrainStart, RecResume:
		m.drained = r.Type == RecDrainStart
	case RecRevive:
		m.health, m.misses = Healthy, 0
	}
	return r
}

// held is a mutating verb's Fleet.mu hold, whose end the verb defers at once:
// `defer f.lock().end(&err)`.
type held struct{ f *Fleet }

func (f *Fleet) lock() held {
	f.mu.Lock()
	return held{f}
}

// end reads the persister and the last sequence the hold appended, unlocks,
// then waits for everything up to that sequence to reach the persister's
// durability bar (per its fsync policy), joining any failure into *err. Commit
// may block on an fsync and must never do so under the fleet lock.
func (h held) end(err *error) {
	p, seq := h.f.persister, h.f.seq
	h.f.mu.Unlock()
	if p == nil || seq == 0 {
		return
	}
	if cerr := p.Commit(seq); cerr != nil {
		*err = errors.Join(*err, fmt.Errorf("fleet: committed state not durable through seq %d: %w", seq, cerr))
	}
}
