package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/topology"
)

func TestHealthStateMachine(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Health: HealthConfig{SuspectAfter: 2, DeadAfter: 4}})
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a)
	f.Add("b", b)
	w := testWorkload(t, "swaptions")

	if h, ok := f.HealthOf("a"); !ok || h != Healthy {
		t.Fatalf("fresh backend health = %v/%v, want healthy", h, ok)
	}
	if _, ok := f.HealthOf("ghost"); ok {
		t.Fatal("HealthOf reported an unknown backend")
	}

	// One miss: still healthy. Two: suspect, and admissions skip it.
	if h, _, err := f.MissProbe(ctx, "a"); err != nil || h != Healthy {
		t.Fatalf("after 1 miss: %v, %v, want healthy", h, err)
	}
	if h, _, err := f.MissProbe(ctx, "a"); err != nil || h != Suspect {
		t.Fatalf("after 2 misses: %v, %v, want suspect", h, err)
	}
	adm, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Backend != "b" {
		t.Fatalf("admission landed on suspect machine %s, want b", adm.Backend)
	}
	if got := f.Stats().Backends[0].Health; got != Suspect {
		t.Fatalf("stats health for a = %v, want suspect", got)
	}

	// A heartbeat clears suspicion entirely (misses reset, not decremented).
	if h, err := f.Heartbeat("a"); err != nil || h != Healthy {
		t.Fatalf("heartbeat: %v, %v, want healthy", h, err)
	}
	adm2, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm2.Backend != "a" {
		t.Fatalf("admission after recovery landed on %s, want a", adm2.Backend)
	}

	// Ride the machine down to dead: misses 1..3 keep it alive-ish, the
	// 4th kills it and runs the (empty-after-failover) recovery pass.
	var last Health
	var rep *Report
	for i := 0; i < 4; i++ {
		last, rep, err = f.MissProbe(ctx, "a")
		if err != nil {
			t.Fatalf("miss %d: %v", i+1, err)
		}
	}
	if last != Dead {
		t.Fatalf("after DeadAfter misses health = %v, want dead", last)
	}
	if rep == nil || rep.Examined != 1 || len(rep.Moves) != 1 {
		t.Fatalf("death failover report = %+v, want 1 examined / 1 move", rep)
	}
	// Dead is sticky: heartbeats are rejected, further misses are no-ops.
	if _, err := f.Heartbeat("a"); !errors.Is(err, nperr.ErrBackendDown) {
		t.Fatalf("heartbeat on dead = %v, want ErrBackendDown", err)
	}
	if h, rep, err := f.MissProbe(ctx, "a"); err != nil || rep != nil || h != Dead {
		t.Fatalf("miss on dead = %v/%v/%v, want dead no-op", h, rep, err)
	}
	if _, err := f.Fail(ctx, "a"); !errors.Is(err, nperr.ErrBackendDown) {
		t.Fatalf("Fail on dead = %v, want ErrBackendDown", err)
	}
	// Drain refuses a dead source; Failover is the recovery path.
	if _, err := f.Drain(ctx, "a"); !errors.Is(err, nperr.ErrBackendDown) {
		t.Fatalf("Drain on dead = %v, want ErrBackendDown", err)
	}

	// Revive readmits it.
	if _, err := f.Revive(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if h, _ := f.HealthOf("a"); h != Healthy {
		t.Fatalf("revived health = %v, want healthy", h)
	}
	if _, err := f.Revive(ctx, "a"); err == nil {
		t.Fatal("Revive on a live backend succeeded")
	}
}

// TestFailoverRehomesTenants is the record-conservation regression test:
// machine death must rehome every tenant it can and lose none — the
// fleet-wide ID set before and after a crash is identical, with no
// duplicates.
func TestFailoverRehomesTenants(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: FirstFit})
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a)
	f.Add("b", b)
	w := testWorkload(t, "swaptions")

	for i := 0; i < 3; i++ { // first-fit: all three land on a
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatal(err)
		}
	}
	before := f.Assignments()
	if len(before) != 3 {
		t.Fatalf("seeded %d tenants, want 3", len(before))
	}

	rep, err := f.Fail(ctx, "a")
	if err != nil {
		t.Fatalf("Fail: %v (report %+v)", err, rep)
	}
	if len(rep.Moves) != 3 || rep.Stranded != 0 {
		t.Fatalf("failover report = %+v, want 3 moves / 0 stranded", rep)
	}
	for _, mv := range rep.Moves {
		if mv.From != "a" || mv.To != "b" {
			t.Fatalf("move %+v, want a->b", mv)
		}
	}

	after := f.Assignments()
	if len(after) != len(before) {
		t.Fatalf("tenant count changed across failover: %d -> %d", len(before), len(after))
	}
	seen := map[int]bool{}
	for i, adm := range after {
		if seen[adm.ID] {
			t.Fatalf("fleet ID %d double-counted after failover", adm.ID)
		}
		seen[adm.ID] = true
		if adm.ID != before[i].ID {
			t.Fatalf("fleet ID set changed: %d -> %d", before[i].ID, adm.ID)
		}
		if adm.Backend != "b" {
			t.Fatalf("tenant %d on %s after failover, want b", adm.ID, adm.Backend)
		}
	}

	st := f.Stats()
	if st.Failovers != 1 || st.FailedOver != 3 {
		t.Fatalf("stats failovers/failedOver = %d/%d, want 1/3", st.Failovers, st.FailedOver)
	}
	// The dead machine's capacity is written off, not counted idle.
	if st.Backends[0].FreeNodes != 0 || st.Backends[0].Utilization != 0 {
		t.Fatalf("dead backend stats = %+v, want zeroed capacity", st.Backends[0])
	}
	// Nor is a machine without nodes 0/0 utilized.
	f.Add("z", newStub(machines.Machine{Topo: &topology.Topology{}}, 1), InDomain("nowhere"))
	st = f.Stats()
	if z := st.Backends[2]; z.TotalNodes != 0 || z.Utilization != 0 {
		t.Fatalf("zero-node backend stats = %+v, want utilization 0", z)
	}
	if d := st.Domains[1]; d.Domain != "nowhere" || d.Utilization != 0 {
		t.Fatalf("zero-node domain stats = %+v, want utilization 0", d)
	}
}

func TestFailoverStrandsWithoutCapacity(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: FirstFit})
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a)
	f.Add("b", b)
	w := testWorkload(t, "swaptions")

	var onA []int
	for i := 0; i < 4; i++ { // fill a completely
		adm, err := f.Place(ctx, w, 4)
		if err != nil {
			t.Fatal(err)
		}
		onA = append(onA, adm.ID)
	}
	b.mu.Lock()
	b.free = 0 // no room anywhere else
	b.mu.Unlock()

	rep, err := f.Fail(ctx, "a")
	if !errors.Is(err, nperr.ErrNoHealthyBackend) {
		t.Fatalf("capacity-less failover err = %v, want ErrNoHealthyBackend", err)
	}
	if !errors.Is(err, nperr.ErrMachineFull) {
		t.Fatalf("err = %v, want the destination rejection joined in", err)
	}
	if rep.Stranded != 4 || len(rep.Moves) != 0 {
		t.Fatalf("report = %+v, want 4 stranded / 0 moves", rep)
	}
	// Stranded tenants stay on the books, resolvable from the snapshot.
	if got := len(f.Assignments()); got != 4 {
		t.Fatalf("assignments after stranding = %d, want 4", got)
	}

	// Releasing a stranded tenant drops the record without touching the
	// dead backend.
	if err := f.Release(ctx, onA[0]); err != nil {
		t.Fatal(err)
	}
	if got := f.Len(); got != 3 {
		t.Fatalf("len after stranded release = %d, want 3", got)
	}

	// Capacity frees up; a manual unbudgeted Failover finishes the job.
	b.mu.Lock()
	b.free = topology.FullNodeSet(b.m.Topo.NumNodes)
	b.mu.Unlock()
	rep2, err := f.Failover(ctx, "a", 0)
	if err != nil {
		t.Fatalf("retry failover: %v (report %+v)", err, rep2)
	}
	if len(rep2.Moves) != 3 || rep2.Stranded != 0 {
		t.Fatalf("retry report = %+v, want 3 moves / 0 stranded", rep2)
	}
	if _, err := f.Failover(ctx, "b", 0); err == nil {
		t.Fatal("Failover of a live backend succeeded")
	}

	// Revive fences the orphaned engine-side records (4 admissions plus
	// none released on the dead books = 4 orphans: 3 moved + 1 released).
	fenced, err := f.Revive(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	if fenced != 4 {
		t.Fatalf("revive fenced %d orphans, want 4", fenced)
	}
	if got := len(a.Assignments()); got != 0 {
		t.Fatalf("dead books kept %d records after fencing", got)
	}
}

func TestFailoverBudget(t *testing.T) {
	ctx := context.Background()
	// A vanishingly small budget strands everything even with free
	// capacity; the default pass then retries within a real budget.
	f := New(Config{Policy: FirstFit, Health: HealthConfig{FailoverBudgetSeconds: 1e-9}})
	a, b := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a)
	f.Add("b", b)
	w := testWorkload(t, "swaptions")
	for i := 0; i < 2; i++ {
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := f.Fail(ctx, "a")
	if !errors.Is(err, nperr.ErrNoHealthyBackend) {
		t.Fatalf("budget-bound failover err = %v, want ErrNoHealthyBackend", err)
	}
	if rep.Stranded != 2 || len(rep.Moves) != 0 || rep.BudgetSeconds != 1e-9 {
		t.Fatalf("report = %+v, want all stranded within budget 1e-9", rep)
	}

	// Negative budget on the manual pass = unbudgeted.
	rep2, err := f.Failover(ctx, "a", -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Moves) != 2 {
		t.Fatalf("unbudgeted retry moved %d, want 2", len(rep2.Moves))
	}
}

func TestSpreadDomains(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: FirstFit, SpreadDomains: true})
	a, b, c := newStub(machines.Intel(), 1), newStub(machines.Intel(), 1), newStub(machines.Intel(), 1)
	f.Add("a", a, InDomain("rack-0"))
	f.Add("b", b, InDomain("rack-0"))
	f.Add("c", c, InDomain("rack-1"))
	w := testWorkload(t, "swaptions")

	// First replica: nothing occupied, plain first-fit order.
	adm1, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm1.Backend != "a" {
		t.Fatalf("replica 1 on %s, want a", adm1.Backend)
	}
	// Second replica: rack-0 hosts the workload, so rack-1 is preferred
	// even though first-fit alone would pick b.
	adm2, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm2.Backend != "c" {
		t.Fatalf("replica 2 on %s, want c (spread to rack-1)", adm2.Backend)
	}
	// Third replica: every domain occupied — soft constraint falls back
	// to plain policy order rather than rejecting.
	adm3, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm3.Backend != "a" {
		t.Fatalf("replica 3 on %s, want a (fallback to policy order)", adm3.Backend)
	}
	// A different workload spreads independently.
	admX, err := f.Place(ctx, testWorkload(t, "streamcluster"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if admX.Backend != "a" {
		t.Fatalf("other workload on %s, want a", admX.Backend)
	}

	st := f.Stats()
	if len(st.Domains) != 2 {
		t.Fatalf("domains = %+v, want 2", st.Domains)
	}
	if d := st.Domains[0]; d.Domain != "rack-0" || d.Backends != 2 || d.Tenants != 3 {
		t.Fatalf("rack-0 stats = %+v, want 2 backends / 3 tenants", d)
	}
	if d := st.Domains[1]; d.Domain != "rack-1" || d.Backends != 1 || d.Tenants != 1 {
		t.Fatalf("rack-1 stats = %+v, want 1 backend / 1 tenant", d)
	}

	// Failover respects the spread too: kill a (hosting swaptions x2 +
	// streamcluster); swaptions replicas must not pile onto c, which
	// already hosts one.
	rep, err := f.Fail(ctx, "a")
	if err != nil {
		t.Fatalf("Fail: %v (report %+v)", err, rep)
	}
	for _, mv := range rep.Moves {
		if mv.Workload == w.Name && mv.To != "b" {
			t.Fatalf("failover moved %s replica to %s, want b (rack-1 already hosts one)", mv.Workload, mv.To)
		}
	}
}

// TestFailoverRaceStress races admissions and releases against repeated
// machine crashes with automatic failover, then checks the books balance
// exactly: run with -race.
func TestFailoverRaceStress(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: LeastLoaded, Health: HealthConfig{FailoverBudgetSeconds: -1}})
	stubs := map[string]*stubBackend{
		"a": newStub(machines.AMD(), 1),
		"b": newStub(machines.AMD(), 1),
		"c": newStub(machines.AMD(), 1),
	}
	for _, name := range []string{"a", "b", "c"} {
		f.Add(name, stubs[name])
	}
	w := testWorkload(t, "swaptions")

	var placed, released atomic.Int64
	var wg sync.WaitGroup

	// Killer: crash and revive "a" in a tight loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			f.Fail(ctx, "a")   // may strand; error expected sometimes
			f.Revive(ctx, "a") // fences whatever the window orphaned
		}
	}()

	// Placers/releasers: admit, sometimes evict what they admitted.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []int
			for i := 0; i < 200; i++ {
				adm, err := f.Place(ctx, w, 4)
				if err == nil {
					placed.Add(1)
					mine = append(mine, adm.ID)
				}
				if len(mine) > 2 { // keep some pressure, release the rest
					if err := f.Release(ctx, mine[0]); err != nil {
						t.Errorf("release %d: %v", mine[0], err)
					}
					released.Add(1)
					mine = mine[1:]
				}
			}
			for _, id := range mine {
				if err := f.Release(ctx, id); err != nil {
					t.Errorf("final release %d: %v", id, err)
				}
				released.Add(1)
			}
		}(g)
	}
	wg.Wait()

	// Settle: revive a if the last crash left it dead, fencing stragglers.
	if h, _ := f.HealthOf("a"); h == Dead {
		if _, err := f.Revive(ctx, "a"); err != nil {
			t.Fatal(err)
		}
	}

	// Conservation: every successful Place was matched by a Release, so
	// the fleet and every engine must be empty — nothing lost, nothing
	// double-counted, no orphan left after the final fence.
	if placed.Load() != released.Load() {
		t.Fatalf("placed %d != released %d", placed.Load(), released.Load())
	}
	if got := f.Len(); got != 0 {
		t.Fatalf("fleet still serves %d tenants, want 0", got)
	}
	if got := len(f.Assignments()); got != 0 {
		t.Fatalf("assignments = %d, want 0", got)
	}
	for name, s := range stubs {
		if name == "a" {
			continue // may hold fenced-later orphans only if still dead — checked above
		}
		if got := len(s.Assignments()); got != 0 {
			t.Errorf("engine %s still holds %d records", name, got)
		}
	}
	if got := len(stubs["a"].Assignments()); got != 0 {
		t.Errorf("engine a still holds %d records after fence", got)
	}
	st := f.Stats()
	if st.Admitted != placed.Load() || st.Released != released.Load() {
		t.Fatalf("stats admitted/released = %d/%d, want %d/%d",
			st.Admitted, st.Released, placed.Load(), released.Load())
	}
}
