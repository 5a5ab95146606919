// Package fleet implements the cluster serving layer: a concurrency-safe
// fleet of named per-machine serving backends (numaplace Engines) behind
// one routing policy. The paper's placement model is per-machine; its §3
// target environment is a datacenter operator packing containers across
// many NUMA boxes, and this package supplies that missing layer — each
// machine is treated as a replica-like backend, admissions are routed
// across the fleet, and cross-machine rebalancing is modeled as
// fast-mechanism memory copies (Lepers et al., §7), which is what makes
// moving a tenant between boxes affordable enough to schedule.
//
// Lock ordering: Fleet.mu is acquired before any backend (Engine) lock and
// backends never call back into the fleet, so the order is one-directional
// and deadlock-free. Every mutation is one Fleet.mu hold covering the routing
// decision, the backend calls, the map change and the record, so capacity is
// taken or freed and logged in one hold, and replaying any prefix of the log
// into fresh engines succeeds.
package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/machines"
	"repro/internal/migrate"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
)

// Backend is one machine's serving surface as the fleet sees it,
// implemented by numaplace.Engine (and by lightweight fakes in tests). A
// Backend that also implements ScoreClasser is scored for BestPredicted
// routing from its score class's row; any other is asked for a Preview per
// routing decision. One that also implements PlacerInto admits into the
// fleet's slot; any other's Place result is copied there.
//
// A backend added to a fleet is driven only through the fleet; reads are
// free. The fleet's books — the tenant map, and the routing index's free-node
// count, re-read from a backend only where the fleet itself called it — know
// nothing of a Place, Release, Rebalance, Adopt or ApplyMove made on it
// directly.
type Backend interface {
	// Machine returns the backend's machine description.
	Machine() machines.Machine
	// Preview estimates the admission Place would make right now without
	// reserving anything (the BestPredicted routing input).
	Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error)
	// Place admits one container; Release evicts by backend-local ID.
	Place(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Assignment, error)
	Release(ctx context.Context, id int) error
	// Rebalance re-packs the backend's own tenants onto nodes freed by
	// departures (intra-machine moves).
	Rebalance(ctx context.Context) (*sched.RebalanceReport, error)
	// Assignments snapshots the backend's tenants; Assignment resolves one
	// tenant by backend-local ID; FreeNodes returns its unallocated NUMA
	// nodes.
	Assignments() []sched.Assignment
	Assignment(id int) (sched.Assignment, bool)
	FreeNodes() topology.NodeSet
	// Adopt installs one previously committed admission (recovery replay:
	// the recorded decision is installed without re-observing) and
	// ApplyMove one committed intra-machine rebalance move. See
	// sched.Scheduler.Adopt / ApplyMove.
	Adopt(ctx context.Context, r sched.Restore) (*sched.Assignment, error)
	ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error
}

// PlacerInto is the optional capability of a Backend that admits into a slot
// the caller owns (numaplace.Engine has it): PlaceInto is Place writing the
// assignment to *dst, and a refused or failed admission leaves *dst exactly
// as it was. The fleet asserts it once, at Add, and admits through it into
// a slot of its own, so a warm admission allocates nothing.
type PlacerInto interface {
	PlaceInto(ctx context.Context, w perfsim.Workload, vcpus int, dst *sched.Assignment) error
}

// Policy selects how Place routes an admission across the fleet.
type Policy int

const (
	// FirstFit tries backends in the order they were added and admits on
	// the first that accepts.
	FirstFit Policy = iota
	// LeastLoaded tries backends by ascending node utilization (spreading
	// load), breaking ties in add order.
	LeastLoaded
	// BestPredicted admits on the machine whose predictor promises the
	// highest performance for the observed workload, falling back down the
	// ranking on failure. A backend with a score class (ScoreClasser) is
	// scored from its class's row; only one without is previewed.
	BestPredicted
)

func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case LeastLoaded:
		return "least-loaded"
	case BestPredicted:
		return "best-predicted"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// PolicyByName resolves the CLI-style policy names.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "first-fit":
		return FirstFit, true
	case "least-loaded":
		return LeastLoaded, true
	case "best-predicted":
		return BestPredicted, true
	default:
		return 0, false
	}
}

// Config tunes a Fleet; the zero value selects FirstFit routing and the
// calibrated defaults.
type Config struct {
	// Policy selects the admission routing policy.
	Policy Policy
	// DrainBelow is the node-utilization threshold below which Rebalance
	// tries to consolidate a machine's tenants onto busier machines:
	// 0 selects the default 0.5, a negative value disables cross-machine
	// consolidation.
	DrainBelow float64
	// Health tunes the per-backend health state machine and the automatic
	// failover pass (zero value = calibrated defaults; see HealthConfig).
	Health HealthConfig
	// SpreadDomains, when set, makes routing prefer machines whose failure
	// domain does not already host a tenant of the same workload, so
	// replicas of one workload survive a correlated domain failure. The
	// preference is a soft constraint: when every domain already hosts the
	// workload (or no labeled machine has room), routing falls back to the
	// plain policy order.
	SpreadDomains bool
}

func (c Config) drainBelow() float64 {
	switch {
	case c.DrainBelow < 0:
		return 0
	case c.DrainBelow == 0:
		return 0.5
	default:
		return c.DrainBelow
	}
}

// member is one named backend plus the fleet's bookkeeping for it; the
// mutable fields are guarded by Fleet.mu.
type member struct {
	name string
	b    Backend
	// b's optional capabilities, each nil without it
	classer ScoreClasser
	placer  PlacerInto
	total   int    // NUMA nodes on the machine
	domain  string // failure-domain label ("" = unlabeled)
	dom     int32  // domain's index in Fleet.domains
	drained bool
	health  Health
	misses  int // consecutive missed probes (reset by Heartbeat)
	tenants int // fleet-registered tenants on this backend
	// The routing index's entries for the member (route.go): its position in
	// Fleet.members, and its backend's free-node count as of the last hold
	// that called the backend (undefined while dead).
	pos  int32
	free int
}

// place admits one container onto m's backend, writing its assignment to
// *dst: in place through PlacerInto, else by copying what Place returns. A
// refused admission leaves *dst as it was either way.
func (m *member) place(ctx context.Context, w perfsim.Workload, vcpus int, dst *sched.Assignment) error {
	if m.placer != nil {
		return m.placer.PlaceInto(ctx, w, vcpus, dst)
	}
	a, err := m.b.Place(ctx, w, vcpus)
	if err != nil {
		return err
	}
	*dst = *a
	return nil
}

// utilization returns the fraction of the member's NUMA nodes currently
// allocated, by the routing index's count. Callers hold Fleet.mu.
func (m *member) utilization() float64 { return utilization(m.free, m.total) }

// utilization is the allocated fraction of a machine with free of its total
// nodes unallocated.
func utilization(free, total int) float64 {
	if total == 0 {
		return 0
	}
	return 1 - float64(free)/float64(total)
}

// tenantRec maps one fleet-wide container ID to its current home; the
// backend-local ID changes every time the container moves machines. The
// fleet's tenant map is the authoritative record of who runs where: assign is
// the backend's assignment as of the last commit, move (cross- or
// intra-machine) or replay, which is what Assignments and snapshots answer
// from — a dead backend's own books are unreachable.
type tenantRec struct {
	mem      *member
	engineID int
	w        perfsim.Workload
	vcpus    int
	assign   sched.Assignment
}

// maxSpare bounds Fleet.spare: enough for the releases between two
// admissions of a churning fleet, and a fleet that shrinks keeps no more.
const maxSpare = 64

// Admission describes one fleet admission.
type Admission struct {
	// ID is the fleet-wide container identity. It is stable across
	// cross-machine moves (backend-local IDs are not) and is the handle
	// Release takes.
	ID int
	// Backend names the machine the container was admitted to.
	Backend string
	// Assignment is the backend scheduler's assignment; its ID field is
	// backend-local.
	Assignment sched.Assignment
}

// Move records one cross-machine migration performed by Rebalance or
// Drain.
type Move struct {
	ID       int // fleet-wide container ID
	Workload string
	VCPUs    int
	From, To string
	// Seconds is the simulated fast-mechanism migration time.
	Seconds float64
}

// IntraPass is one backend's intra-machine rebalance report within a
// fleet-wide pass.
type IntraPass struct {
	Backend string
	Report  *sched.RebalanceReport
}

// Report summarizes one fleet Rebalance or Drain pass.
type Report struct {
	// Intra holds the per-backend intra-machine passes (Rebalance only),
	// in backend add order.
	Intra []IntraPass
	// Moves are the committed cross-machine migrations.
	Moves []Move
	// Drained names the backends emptied by this pass.
	Drained []string
	// Examined counts the tenants considered for a cross-machine move;
	// Stranded counts those no destination could take (Drain and Failover
	// passes — stranded tenants stay on the fleet's books for retry).
	Examined int
	Stranded int
	// TotalSeconds sums all migration time spent (intra + cross);
	// BudgetSeconds echoes the caller's budget (0 for Drain: unbudgeted).
	TotalSeconds  float64
	BudgetSeconds float64
}

// BackendStats is one machine's slice of Stats. Health and Draining
// together say exactly why a machine is (or is not) accepting admissions —
// a drained-but-healthy machine is operator-closed, a suspect one is
// probation-closed, a dead one is gone.
type BackendStats struct {
	Name     string
	Machine  string
	Domain   string // failure-domain label ("" = unlabeled)
	Health   Health
	Draining bool
	Tenants  int
	// FreeNodes/Utilization are live queries; a dead machine answers no
	// queries, so both report zero there (its capacity is written off).
	FreeNodes   int
	TotalNodes  int
	Utilization float64
}

// DomainStats aggregates the fleet's occupancy per failure domain.
// Capacity sums exclude dead machines — their nodes are written off until
// revived — while Tenants still counts records stranded on them.
type DomainStats struct {
	Domain      string // "" = unlabeled machines
	Backends    int    // members labeled with this domain (any health)
	Dead        int    // of which dead
	Tenants     int    // fleet-registered tenants, stranded ones included
	FreeNodes   int
	TotalNodes  int
	Utilization float64
}

// Stats is a point-in-time aggregate of the fleet.
type Stats struct {
	// Backends reports per-machine state in add order.
	Backends []BackendStats
	// Domains reports per-failure-domain occupancy, sorted by domain name.
	Domains []DomainStats
	// Tenants is the number of containers currently served fleet-wide,
	// including records stranded on dead machines awaiting failover.
	Tenants int
	// Admitted / Rejected / Released count Place outcomes and explicit
	// evictions; Moves counts cross-machine migrations (rebalance, drain
	// and failover).
	Admitted, Rejected, Released, Moves int64
	// Failovers counts automatic and manual failover passes; FailedOver
	// counts tenants rehomed by them (a subset of Moves).
	Failovers, FailedOver int64
	// MigrationSeconds is the cumulative simulated migration time spent
	// by Rebalance, Drain and Failover passes (intra + cross).
	MigrationSeconds float64
	// Utilization is the fleet-wide allocated-node fraction over live
	// (non-dead) machines.
	Utilization float64
}

// Fleet routes container admissions across named backends and rebalances
// tenants between them. All methods are safe for concurrent use.
type Fleet struct {
	cfg Config

	// mu is the fleet's commit-point lock: every mutation commits its Record
	// (commitLocked) under the hold that made it, which is what makes
	// sequence order equal effect order. It is the outermost lock of the
	// hierarchy and must never cover blocking work (Persister.Commit runs
	// strictly after the unlock — see held.end).
	//numalint:locks fleet.mu rank=10 noblock
	mu sync.Mutex
	// members is in add order.
	members []*member
	byName  map[string]*member
	nextID  int
	tenants map[int]*tenantRec
	// spare holds released tenantRecs, cleared, for bookLocked to reuse at
	// the next RecPlace: churn and replay allocate none per admission.
	spare []*tenantRec
	// domains interns the failure-domain labels ever added ("" included):
	// the routing index counts tenants and lists members by member.dom.
	domains map[string]int32
	// idx is the routing index (route.go): who accepts, in which (score
	// class, free count) cell, and which domains host which workload.
	idx routeIndex
	// scratch is the cursor of every routing decision over the index: an
	// admission's candidates and a move's destinations.
	scratch routeScratch

	// The commit stream (record.go, events.go): seq is the number of Records
	// committed, which commitLocked alone advances; each goes to the persister
	// if one is attached and, if a watcher is told about its type, into every
	// subscriber's ring. All three are guarded by mu.
	seq       uint64
	persister Persister
	subs      []*Subscription

	admitted, rejected, released, moves int64
	failovers, failedOver               int64
	migrationSeconds                    float64

	// ledgers are the members' ledgers while Restore replays into them
	// (ledger.go), nil otherwise. It comes last so that the fields
	// a commit touches keep their offsets: placed above seq, it measurably
	// slowed wire_churn.
	ledgers *ledgerSet
	// slot is where a backend admits an admission or a move under way: the
	// books copy it when the record is booked, and Place returns a copy.
	slot sched.Assignment
}

// New builds an empty fleet.
func New(cfg Config) *Fleet {
	f := &Fleet{
		cfg:     cfg,
		byName:  map[string]*member{},
		tenants: map[int]*tenantRec{},
		domains: map[string]int32{},
	}
	f.rebuildIndexLocked()
	return f
}

func (f *Fleet) Fleet() *Fleet { return f } // bench/ reaches a Cluster's fleet so; goes with ROADMAP item 6b's benchmark PR

// AddOption configures one backend at Add time.
type AddOption func(*member)

// InDomain labels the backend with a failure domain (a rack, a zone, any
// freeform correlated-failure unit). Domain labels feed the SpreadDomains
// routing constraint and the per-domain slice of Stats.
func InDomain(domain string) AddOption {
	return func(m *member) { m.domain = domain }
}

// Add registers a backend under a unique name, optionally labeling it with a
// failure domain (InDomain). The name is the handle for Drain, Resume, Remove
// and the health API, and appears in admissions and move records. An Engine
// backend should have a predictor in its scheduler's registry (Train,
// UsePredictor, WithPredictor) for each container size the fleet will serve;
// untrained sizes fail admission on that machine and routing falls through
// to the others. Backends start healthy. Whether b is a ScoreClasser and a
// PlacerInto is decided here, once; a ScoreClasser is handed the routing
// index's counter (NotifyClassChange), which its registry adds to.
func (f *Fleet) Add(name string, b Backend, opts ...AddOption) error {
	if name == "" {
		//numalint:ignore sentinelwrap setup-time misuse by the embedding daemon, never reaches the wire path
		return fmt.Errorf("fleet: backend name must be non-empty")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.byName[name]; ok {
		//numalint:ignore sentinelwrap setup-time misuse by the embedding daemon, never reaches the wire path
		return fmt.Errorf("fleet: backend %q already added", name)
	}
	m := &member{name: name, b: b, total: b.Machine().Topo.NumNodes}
	m.classer, _ = b.(ScoreClasser)
	m.placer, _ = b.(PlacerInto)
	for _, opt := range opts {
		opt(m)
	}
	dom, ok := f.domains[m.domain]
	if !ok {
		dom = int32(len(f.domains))
		f.domains[m.domain] = dom
	}
	m.dom = dom
	f.members = append(f.members, m)
	f.byName[name] = m
	if m.classer != nil {
		m.classer.NotifyClassChange(&f.idx.epoch)
	}
	f.rebuildIndexLocked()
	return nil
}

// Backend returns the live backend registered under name — to read. Anything
// that changes what it holds must go through the fleet (see Backend).
func (f *Fleet) Backend(name string) (Backend, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.byName[name]
	if !ok {
		return nil, false
	}
	return m.b, true
}

// Names returns the backend names in add order.
func (f *Fleet) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.members))
	for i, m := range f.members {
		out[i] = m.name
	}
	return out
}

// Len returns the number of containers currently served fleet-wide.
func (f *Fleet) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tenants)
}

// accepting reports whether m takes new admissions: healthy and not
// draining. Suspect machines keep their tenants but stop receiving new
// ones; dead machines receive nothing at all. Callers hold f.mu.
func (m *member) accepting() bool { return !m.drained && m.health == Healthy }

// occupyLocked counts delta (+1 or -1) tenants of the named workload into m's
// failure domain in the routing index, beside each live commit that maps a
// tenant to m or unmaps it. Tenants stranded on dead machines provide no
// availability, so they occupy no domain (healthMovedLocked moves a machine's
// tenants in and out as it dies and revives). Callers hold f.mu.
func (f *Fleet) occupyLocked(m *member, workload string, delta int32) {
	if m.health != Dead {
		f.occLocked(workload)[m.dom] += delta
	}
}

// Place admits one container of workload w with the given vCPU count onto
// the fleet, routing per the configured policy and falling back down the
// candidate ranking when a backend rejects (full, untrained size). It fails
// with ErrFleetFull (with every backend's rejection joined in) when no
// backend admits the container, and joins ErrNoHealthyBackend too only when
// no backend takes admissions at all (each dead, suspect or draining). The
// decision, the backend admission and the record are one hold. A
// durability failure is returned alongside the admission: the commit stands
// either way, and hiding it would leak the container. A refusal returns the
// zero Admission. The Admission is the caller's copy: the backend admits
// into the fleet's slot, so a warm admission allocates nothing. A vCPU count
// below 1 is refused with ErrInfeasible before the hold: it commits no
// record and counts no rejection.
func (f *Fleet) Place(ctx context.Context, w perfsim.Workload, vcpus int) (adm Admission, err error) {
	if vcpus <= 0 {
		return Admission{}, fmt.Errorf("fleet: placing %d-vCPU %q: vCPU count must be positive: %w", vcpus, w.Name, nperr.ErrInfeasible)
	}
	defer f.lock().end(&err)
	s := &f.scratch
	q := routeQuery{by: f.cfg.Policy.scoring(), w: w, vcpus: vcpus}
	if err := f.routeLocked(ctx, s, &q); err != nil {
		return Admission{}, err
	}
	a := &f.slot
	var errs []error // per-candidate rejections, in the order tried
	for mem := s.next(); mem != nil; mem = s.next() {
		if err := ctx.Err(); err != nil {
			return Admission{}, err
		}
		if err := mem.place(ctx, w, vcpus, a); err != nil {
			// A cancellation surfacing through the backend is the
			// caller giving up, not a capacity rejection.
			if ctxErr := ctx.Err(); ctxErr != nil {
				return Admission{}, ctxErr
			}
			errs = append(errs, fmt.Errorf("%s: %w", mem.name, err))
			continue
		}
		id := f.nextID
		f.commitLocked(f.bookLocked(&Record{Type: RecPlace, ID: id, Backend: mem.name,
			Workload: w.Name, VCPUs: vcpus, EngineID: a.ID, ClassID: a.Class,
			Nodes: a.Nodes, BasePerf: a.BasePerf, ProbePerf: a.ProbePerf}, mem, a, &w))
		f.occupyLocked(mem, w.Name, +1)
		f.refreeLocked(mem)
		return Admission{ID: id, Backend: mem.name, Assignment: *a}, nil
	}
	f.commitLocked(f.bookLocked(&Record{Type: RecReject, ID: -1, Workload: w.Name, VCPUs: vcpus}, nil, nil, nil))
	sentinels := []error{nperr.ErrFleetFull}
	if !slices.ContainsFunc(f.members, (*member).accepting) {
		// Every machine is dead, suspect or draining. Callers back off on
		// ErrNoHealthyBackend rather than treating the fleet as merely
		// full; a fleet of accepting machines none of which fits the
		// container (routing tries none of them) is only full.
		sentinels = append(sentinels, nperr.ErrNoHealthyBackend)
	}
	// Preview failures come first, as a fan-out would have met them.
	errs = append(s.rejections(ctx, &q), errs...)
	return Admission{}, fmt.Errorf("fleet: placing %d-vCPU %q: %w", vcpus, w.Name,
		errors.Join(append(errs, sentinels...)...))
}

// Release evicts the container with the given fleet ID from whichever
// backend currently serves it. Unknown IDs fail with ErrUnknownContainer.
// Releasing a tenant stranded on a dead machine succeeds by dropping the
// fleet record alone — the dead backend receives no call (its books are
// fenced when it is revived), so stranded records are never leaked.
//
// The backend eviction, the unmapping and the record are one hold: no
// admission can take the freed nodes and be logged ahead of the release that
// freed them. A failed or cancelled eviction returns with nothing changed.
func (f *Fleet) Release(ctx context.Context, id int) (err error) {
	defer f.lock().end(&err)
	rec, ok := f.tenants[id]
	if !ok {
		return fmt.Errorf("fleet: releasing container %d: %w", id, nperr.ErrUnknownContainer)
	}
	if rec.mem.health != Dead {
		if err := rec.mem.b.Release(ctx, rec.engineID); err != nil {
			return fmt.Errorf("fleet: releasing container %d from %s: %w", id, rec.mem.name, err)
		}
		f.refreeLocked(rec.mem)
	}
	f.occupyLocked(rec.mem, rec.w.Name, -1)
	f.commitLocked(f.bookLocked(&Record{Type: RecRelease, ID: id, Backend: rec.mem.name,
		Workload: rec.w.Name, VCPUs: rec.vcpus}, nil, nil, nil))
	return nil
}

// Assignments snapshots every container served fleet-wide, in ascending
// fleet-ID order, from the fleet's own books in one hold: the map is the
// authoritative record, refreshed at every commit, move and replay, so a
// tenant stranded on a dead machine is listed like any other, with its last
// recorded assignment — a machine death never drops a record — and none can
// slip between two looks. The Threads slices are the books' own — read, do not write.
func (f *Fleet) Assignments() []Admission {
	f.mu.Lock()
	out := make([]Admission, 0, len(f.tenants))
	for id, rec := range f.tenants {
		out = append(out, Admission{ID: id, Backend: rec.mem.name, Assignment: rec.assign})
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats aggregates the fleet's admission counters, migration spend,
// per-backend occupancy (health state included) and per-failure-domain
// occupancy. Dead machines contribute their health
// state and tenant (stranded-record) count but no capacity: their nodes
// are written off until revived.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		Tenants:          len(f.tenants),
		Admitted:         f.admitted,
		Rejected:         f.rejected,
		Released:         f.released,
		Moves:            f.moves,
		Failovers:        f.failovers,
		FailedOver:       f.failedOver,
		MigrationSeconds: f.migrationSeconds,
		Backends:         make([]BackendStats, 0, len(f.members)),
		Domains:          make([]DomainStats, len(f.domains)), // by member.dom, then compacted
	}
	var usedNodes, totalNodes int
	for _, m := range f.members {
		bs := BackendStats{
			Name:       m.name,
			Machine:    m.b.Machine().Topo.Name,
			Domain:     m.domain,
			Health:     m.health,
			Draining:   m.drained,
			Tenants:    m.tenants,
			TotalNodes: m.total,
		}
		d := &st.Domains[m.dom]
		d.Domain = m.domain
		d.Backends++
		d.Tenants += m.tenants
		if m.health == Dead {
			d.Dead++
		} else {
			bs.FreeNodes = m.free
			bs.Utilization = m.utilization()
			usedNodes += m.total - m.free
			totalNodes += m.total
			d.FreeNodes += m.free
			d.TotalNodes += m.total
		}
		st.Backends = append(st.Backends, bs)
	}
	if totalNodes > 0 {
		st.Utilization = float64(usedNodes) / float64(totalNodes)
	}
	// A label outlives the members that carried it.
	st.Domains = slices.DeleteFunc(st.Domains, func(d DomainStats) bool { return d.Backends == 0 })
	for i := range st.Domains {
		d := &st.Domains[i]
		d.Utilization = utilization(d.FreeNodes, d.TotalNodes)
	}
	slices.SortFunc(st.Domains, func(a, b DomainStats) int { return cmp.Compare(a.Domain, b.Domain) })
	return st
}

// moveLocked migrates the identified tenant from its current backend onto
// the first destination that admits it — d, then the rest of dests, best
// first — remapping the fleet ID and recording the move. A dead source
// receives no Release call — its books are unreachable and are fenced on
// Revive; the fleet mapping alone is authoritative. Destination rejections
// are appended to *destErrs when the caller collects them (Drain and Failover
// do, so an infra failure — untrained size, pin source down — is
// distinguishable from a full fleet); a nil destErrs discards them. failover
// marks moves committed by a failover pass, in the FailedOver counter and in
// the durable record replay reconstructs it from. Callers hold f.mu.
func (f *Fleet) moveLocked(ctx context.Context, rep *Report, id int, rec *tenantRec, cost float64, d *member, dests *routeScratch, destErrs *[]error, failover bool) (bool, error) {
	a := &f.slot
	for ; d != nil; d = dests.next() {
		if err := d.place(ctx, rec.w, rec.vcpus, a); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return false, ctxErr
			}
			if destErrs != nil {
				*destErrs = append(*destErrs, fmt.Errorf("%s: %w", d.name, err))
			}
			continue
		}
		if rec.mem.health != Dead {
			// Past the destination's admission the move must not inherit the
			// request's cancellation. If the source still cannot let go, the
			// admission is given back: an unmapped, unlogged record would
			// hold the destination's nodes.
			undo := context.WithoutCancel(ctx)
			if err := rec.mem.b.Release(undo, rec.engineID); err != nil {
				err = fmt.Errorf("fleet: moving container %d off %s: %w", id, rec.mem.name, err)
				if uerr := d.b.Release(undo, a.ID); uerr != nil {
					err = errors.Join(err, fmt.Errorf("fleet: undoing its admission on %s: %w", d.name, uerr))
				}
				f.refreeLocked(d)
				return false, err
			}
			f.refreeLocked(rec.mem)
		}
		f.refreeLocked(d)
		rep.Moves = append(rep.Moves, Move{
			ID: id, Workload: rec.w.Name, VCPUs: rec.vcpus,
			From: rec.mem.name, To: d.name, Seconds: cost,
		})
		rep.TotalSeconds += cost
		f.occupyLocked(rec.mem, rec.w.Name, -1)
		f.commitLocked(f.bookLocked(&Record{Type: RecMove, ID: id, Backend: rec.mem.name, Dest: d.name,
			Workload: rec.w.Name, VCPUs: rec.vcpus, EngineID: a.ID, ClassID: a.Class,
			Nodes: a.Nodes, BasePerf: a.BasePerf, ProbePerf: a.ProbePerf,
			Seconds: cost, Failover: failover}, d, a, nil))
		f.occupyLocked(d, rec.w.Name, +1)
		return true, nil
	}
	return false, nil
}

// logIntraLocked commits the records of one backend's intra-machine
// rebalance pass: one RecIntraMove per committed move (the destination
// class and nodes, replayed via ApplyMove) followed by one RecIntraPass
// carrying the pass total, which its booking adds to MigrationSeconds in one
// float addition, live and replayed alike. Each moved tenant's recorded
// assignment is booked from the backend's live books — the
// snapshot a dead machine's tenants later resolve from must show where a
// container runs NOW, not where it was first admitted. A moved record the
// fleet does not map is not the fleet's to log. Callers hold f.mu.
func (f *Fleet) logIntraLocked(m *member, intra *sched.RebalanceReport) {
	if len(intra.Moves) == 0 {
		return
	}
	f.refreeLocked(m)
	byEngine := make(map[int]int, m.tenants) // backend-local ID → fleet ID
	for id, rec := range f.tenantsOfLocked(m) {
		byEngine[rec.engineID] = id
	}
	for _, mv := range intra.Moves {
		fleetID, ok := byEngine[mv.ID]
		if !ok {
			continue
		}
		var a *sched.Assignment
		if moved, ok := m.b.Assignment(mv.ID); ok {
			a = &moved
		}
		f.commitLocked(f.bookLocked(&Record{Type: RecIntraMove, ID: fleetID, Backend: m.name,
			EngineID: mv.ID, ClassID: mv.ToClass, Nodes: mv.ToNodes, Seconds: mv.Seconds}, nil, a, nil))
	}
	f.commitLocked(f.bookLocked(&Record{Type: RecIntraPass, ID: -1, Backend: m.name,
		Moves: len(intra.Moves), Seconds: intra.TotalSeconds}, nil, nil, nil))
}

// tenantsOfLocked ranges over the tenants currently mapped to m, by fleet
// ID, in map order. Callers hold f.mu for the whole iteration.
func (f *Fleet) tenantsOfLocked(m *member) iter.Seq2[int, *tenantRec] {
	return func(yield func(int, *tenantRec) bool) {
		for id, rec := range f.tenants {
			if rec.mem == m && !yield(id, rec) {
				return
			}
		}
	}
}

// evacuateLocked is the one per-tenant loop under Rebalance's cross-machine
// phase, Drain and Failover: it tries to move every tenant of src, in
// ascending fleet-ID order, onto another accepting machine — each move
// priced as a fast-mechanism copy of the tenant's memory and committed only
// if it fits what rep has left of budget (+Inf: unbudgeted). The destinations
// are every accepting member other than src, busiest first — under
// BestPredicted by the tenant's predicted performance on each first (preview
// failures left out) — those in failure domains not hosting the tenant's
// workload before the rest when domain spreading is on; a move is priced only
// once there is one. Destinations are strictly busier machines only, so
// consolidation goes uphill and terminates — except off a draining or dead
// source, which must empty wherever room exists (a negative floor disables the
// uphill filter). A non-nil destErrs says the pass owes src's emptying: each
// tenant left behind (no destination, over budget, rejected everywhere) is
// counted in rep.Stranded and moveLocked collects the rejections there.
// failover is passed on to moveLocked. Callers hold f.mu.
func (f *Fleet) evacuateLocked(ctx context.Context, rep *Report, src *member, budget float64, destErrs *[]error, failover bool) error {
	ids := make([]int, 0, src.tenants)
	for id := range f.tenantsOfLocked(src) {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	dests := &f.scratch
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		rec := f.tenants[id]
		rep.Examined++
		q := routeQuery{w: rec.w, vcpus: rec.vcpus, moving: rec, minUtil: -1}
		if f.cfg.Policy == BestPredicted {
			q.by = bestPredicted
		}
		if !src.drained && src.health != Dead {
			q.minUtil = src.utilization()
		}
		if err := f.routeLocked(ctx, dests, &q); err != nil {
			return err
		}
		moved := false
		if d := dests.next(); d != nil {
			copied, err := migrate.Run(ctx, migrate.ProfileFor(rec.w, rec.vcpus), migrate.Fast, migrate.Config{})
			if err != nil {
				return err
			}
			if cost := copied.Seconds; rep.TotalSeconds+cost <= budget {
				if moved, err = f.moveLocked(ctx, rep, id, rec, cost, d, dests, destErrs, failover); err != nil {
					return err
				}
			}
		}
		if destErrs != nil && !moved {
			rep.Stranded++
		}
	}
	return nil
}

// summarizeLocked commits the summary, of type rt, of one pass over backend
// ("" for a fleet-wide one). Passes defer it: whatever was committed shows,
// error or not, so subscribers see the same partial work the returned report
// carries. The record is audit-only — every state change was already logged
// per move. Callers hold f.mu.
func (f *Fleet) summarizeLocked(rt RecordType, backend string, rep *Report) {
	intra := 0
	for _, ip := range rep.Intra {
		intra += len(ip.Report.Moves)
	}
	f.commitLocked(f.bookLocked(&Record{Type: rt, ID: -1, Backend: backend, Moves: len(rep.Moves), Intra: intra,
		Examined: rep.Examined, Stranded: rep.Stranded, Seconds: rep.TotalSeconds}, nil, nil, nil))
}

// Rebalance runs one fleet-wide re-packing pass under a migration-seconds
// budget: first each backend's own intra-machine rebalance (nodes freed by
// departures), then cross-machine consolidation — tenants of machines
// utilized below Config.DrainBelow (and of draining machines, regardless of
// utilization) are moved onto strictly busier machines, each move costed as
// a fast-mechanism copy of the container's memory. A cross-machine move is
// committed only if it fits the remaining budget; an intra pass is started
// only while budget remains (its cost is known after the fact, so the final
// intra pass may overshoot: compare Report.TotalSeconds with
// BudgetSeconds). The pass holds
// the fleet lock end to end; admissions wait rather than interleave.
//
// On error the report of work already committed is returned alongside the
// error (migration seconds already spent are never discarded).
func (f *Fleet) Rebalance(ctx context.Context, budgetSeconds float64) (rep *Report, err error) {
	defer f.lock().end(&err)
	rep = &Report{BudgetSeconds: budgetSeconds}
	defer f.summarizeLocked(RecRebalance, "", rep)

	// Intra-machine passes, in add order (healthy, accepting machines
	// only: a suspect machine is left undisturbed until its probes settle,
	// and a dead one receives no calls at all).
	for _, m := range f.members {
		if !m.accepting() {
			continue
		}
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if rep.TotalSeconds >= budgetSeconds {
			break
		}
		intra, err := m.b.Rebalance(ctx)
		if intra != nil {
			rep.Intra = append(rep.Intra, IntraPass{Backend: m.name, Report: intra})
			rep.TotalSeconds += intra.TotalSeconds
			f.logIntraLocked(m, intra)
		}
		if err != nil {
			return rep, fmt.Errorf("fleet: intra-machine rebalance on %s: %w", m.name, err)
		}
	}

	// Cross-machine consolidation: drain candidates ascending utilization.
	low := f.cfg.drainBelow()
	if low <= 0 {
		return rep, nil
	}
	type srcCand struct {
		m    *member
		util float64
	}
	var sources []srcCand
	for _, m := range f.members {
		if m.tenants == 0 {
			continue
		}
		// Draining members are sources regardless of utilization: the
		// tenants their Drain pass could not rehome are retried here. Dead
		// members are sources too — tenants a failover pass left
		// stranded (no capacity, exhausted budget) are retried here, and
		// sort first (util -1) so recovery outranks consolidation.
		if m.health == Dead {
			sources = append(sources, srcCand{m, -1})
			continue
		}
		if u := m.utilization(); u < low || m.drained {
			sources = append(sources, srcCand{m, u})
		}
	}
	sort.SliceStable(sources, func(i, j int) bool { return sources[i].util < sources[j].util })

	for _, src := range sources {
		if err := f.evacuateLocked(ctx, rep, src.m, budgetSeconds, nil, false); err != nil {
			return rep, err
		}
		if src.m.tenants == 0 && src.m.health != Dead {
			rep.Drained = append(rep.Drained, src.m.name)
		}
	}
	return rep, nil
}

// Drain marks the named backend as closed for admission and moves every
// tenant it serves onto the remaining machines (unbudgeted fast-mechanism
// copies, destinations ranked like Rebalance). Tenants no other machine
// can host stay where they are and the partial report is returned with an
// error wrapping ErrFleetFull; the backend remains draining either way
// (Resume reopens it; Remove detaches it once empty). Draining an unknown backend fails with
// ErrUnknownBackend.
func (f *Fleet) Drain(ctx context.Context, name string) (rep *Report, err error) {
	defer f.lock().end(&err)
	src, ok := f.byName[name]
	if !ok {
		return nil, fmt.Errorf("fleet: draining %q: %w", name, nperr.ErrUnknownBackend)
	}
	if src.health == Dead {
		// A dead machine cannot be gracefully emptied — its backend
		// receives no calls. Failover (or the automatic pass that ran on
		// the death transition) is the recovery path.
		return nil, fmt.Errorf("fleet: draining %s: %w (use Failover)", name, nperr.ErrBackendDown)
	}
	f.commitLocked(f.bookLocked(&Record{Type: RecDrainStart, ID: -1, Backend: name}, src, nil, nil))
	f.relistLocked(src)
	rep = &Report{}
	defer f.summarizeLocked(RecDrainPass, name, rep)
	var destErrs []error
	if err := f.evacuateLocked(ctx, rep, src, math.Inf(1), &destErrs, false); err != nil {
		return rep, err
	}
	if rep.Stranded > 0 {
		// The per-destination rejections ride along so callers can tell
		// a genuinely full fleet from an infra failure (untrained size,
		// pin source down) via errors.Is.
		return rep, fmt.Errorf("fleet: draining %s: %d of %d containers could not be rehomed: %w",
			name, rep.Stranded, rep.Examined, errors.Join(append(destErrs, nperr.ErrFleetFull)...))
	}
	rep.Drained = append(rep.Drained, name)
	return rep, nil
}

// Resume reopens a drained backend for admissions.
func (f *Fleet) Resume(name string) (err error) {
	defer f.lock().end(&err)
	m, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("fleet: resuming %q: %w", name, nperr.ErrUnknownBackend)
	}
	f.commitLocked(f.bookLocked(&Record{Type: RecResume, ID: -1, Backend: name}, m, nil, nil))
	f.relistLocked(m)
	return nil
}

// Remove detaches an empty backend from the fleet and lets it go: the
// routing index is derived anew without it, and it is told to stop reporting
// class changes. Backends still serving tenants fail with ErrBackendNotEmpty
// (Drain first); unknown names with ErrUnknownBackend.
func (f *Fleet) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("fleet: removing %q: %w", name, nperr.ErrUnknownBackend)
	}
	if m.tenants > 0 {
		return fmt.Errorf("fleet: removing %s with %d tenants: %w", name, m.tenants, nperr.ErrBackendNotEmpty)
	}
	delete(f.byName, name)
	f.members = slices.DeleteFunc(f.members, func(mm *member) bool { return mm == m })
	if m.classer != nil {
		m.classer.NotifyClassChange(nil)
	}
	f.rebuildIndexLocked()
	return nil
}
