// End-to-end tests of the wire protocol: a real wire.Server over a stub
// fleet, driven through the typed client — the round trip the daemon and
// remote callers actually run. External test package so it can import
// repro/client (which imports wire) without a cycle.
package wire_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/client"
	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// stubBackend is a minimal fleet.Backend: one NUMA node per admission,
// fixed preview performance; a container wider than the machine's hardware
// threads is infeasible. Mirrors the fleet package's test stub.
type stubBackend struct {
	m    machines.Machine
	perf float64

	mu      sync.Mutex
	nextID  int
	free    topology.NodeSet
	tenants map[int]sched.Assignment
}

func newStub(m machines.Machine, perf float64) *stubBackend {
	return &stubBackend{
		m: m, perf: perf,
		free:    topology.FullNodeSet(m.Topo.NumNodes),
		tenants: map[int]sched.Assignment{},
	}
}

func (s *stubBackend) Machine() machines.Machine { return s.m }

// tooWide refuses a container no node set of the machine could ever host.
func (s *stubBackend) tooWide(vcpus int) error {
	if n := s.m.Topo.TotalThreads(); vcpus > n {
		return fmt.Errorf("%d vCPUs exceed %d hardware threads: %w", vcpus, n, nperr.ErrInfeasible)
	}
	return nil
}

func (s *stubBackend) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	if err := s.tooWide(vcpus); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free.Empty() {
		return nil, nperr.ErrMachineFull
	}
	return &sched.Preview{PredictedPerf: s.perf, BasePerf: s.perf, Nodes: topology.NewNodeSet(s.free.Lowest())}, nil
}

func (s *stubBackend) Place(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Assignment, error) {
	if err := s.tooWide(vcpus); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free.Empty() {
		return nil, nperr.ErrMachineFull
	}
	node := s.free.Lowest()
	s.free = s.free.Remove(node)
	a := sched.Assignment{
		ID: s.nextID, Workload: w.Name, VCPUs: vcpus,
		Nodes: topology.NewNodeSet(node), BasePerf: s.perf, PredictedPerf: s.perf,
	}
	s.nextID++
	s.tenants[a.ID] = a
	return &a, nil
}

func (s *stubBackend) Release(ctx context.Context, id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tenants[id]
	if !ok {
		return nperr.ErrUnknownContainer
	}
	s.free = s.free.Union(a.Nodes)
	delete(s.tenants, id)
	return nil
}

func (s *stubBackend) Rebalance(ctx context.Context) (*sched.RebalanceReport, error) {
	return &sched.RebalanceReport{}, nil
}

func (s *stubBackend) Assignments() []sched.Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sched.Assignment, 0, len(s.tenants))
	for _, a := range s.tenants {
		out = append(out, a)
	}
	return out
}

func (s *stubBackend) Assignment(id int) (sched.Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tenants[id]
	return a, ok
}

func (s *stubBackend) FreeNodes() topology.NodeSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free
}

func (s *stubBackend) Adopt(ctx context.Context, r sched.Restore) (*sched.Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[r.ID]; dup {
		return nil, fmt.Errorf("stub: adopting container %d: ID already admitted: %w", r.ID, nperr.ErrLogCorrupt)
	}
	if r.Nodes.Minus(s.free) != 0 {
		return nil, fmt.Errorf("stub: adopting container %d: nodes not free: %w", r.ID, nperr.ErrLogCorrupt)
	}
	s.free = s.free.Minus(r.Nodes)
	a := sched.Assignment{
		ID: r.ID, Workload: r.Workload.Name, VCPUs: r.VCPUs, Class: r.ClassID,
		Nodes: r.Nodes, BasePerf: r.BasePerf, ProbePerf: r.ProbePerf,
		PredictedPerf: s.perf,
	}
	s.tenants[r.ID] = a
	if r.ID >= s.nextID {
		s.nextID = r.ID + 1
	}
	return &a, nil
}

func (s *stubBackend) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tenants[id]
	if !ok {
		return nperr.ErrUnknownContainer
	}
	avail := s.free.Union(a.Nodes)
	if nodes.Minus(avail) != 0 {
		return fmt.Errorf("stub: applying move of container %d: nodes not free: %w", id, nperr.ErrLogCorrupt)
	}
	s.free = avail.Minus(nodes)
	a.Class, a.Nodes = classID, nodes
	s.tenants[id] = a
	return nil
}

// stubFleet is a two-stub fleet (AMD 8 nodes + Intel 4 nodes = 12
// single-node admissions) under the given routing policy.
func stubFleet(t *testing.T, p fleet.Policy) *fleet.Fleet {
	t.Helper()
	f := fleet.New(fleet.Config{Policy: p})
	if err := f.Add("m0", newStub(machines.AMD(), 1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("m1", newStub(machines.Intel(), 2)); err != nil {
		t.Fatal(err)
	}
	return f
}

// testDaemon stands up a wire server over a first-fit stubFleet behind a
// real HTTP listener.
func testDaemon(t *testing.T, cfg wire.Config) (*client.Client, *fleet.Fleet, *wire.Server) {
	t.Helper()
	f := stubFleet(t, fleet.FirstFit)
	ws := wire.NewServer(f, cfg)
	srv := httptest.NewServer(ws)
	t.Cleanup(func() { ws.Stop(); srv.Close() })
	// No client-side retries: tests assert on first-response classification.
	return client.New(srv.URL, client.WithRetries(0)), f, ws
}

func TestWirePlaceReleaseRoundTrip(t *testing.T) {
	ctx := context.Background()
	c, _, _ := testDaemon(t, wire.Config{})

	pr, err := c.Place(ctx, "gcc", 16)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Backend != "m0" || pr.Assignment.Workload != "gcc" || pr.Assignment.VCPUs != 16 {
		t.Fatalf("place response %+v", pr)
	}
	if len(pr.Assignment.Nodes) != 1 {
		t.Fatalf("stub admits one node, got %v", pr.Assignment.Nodes)
	}

	adms, err := c.Assignments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(adms) != 1 || adms[0].ID != pr.ID {
		t.Fatalf("assignments %+v", adms)
	}

	if err := c.Release(ctx, pr.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || st.Released != 1 || st.Tenants != 0 {
		t.Fatalf("stats after release: %+v", st)
	}
}

// TestWireErrorRoundTrip is the satellite acceptance: the client
// re-materializes nperr sentinels from wire codes, so remote callers keep
// their errors.Is logic.
func TestWireErrorRoundTrip(t *testing.T) {
	ctx := context.Background()
	c, _, _ := testDaemon(t, wire.Config{})

	// Fill the fleet (12 single-node stub admissions), then overflow.
	for i := 0; i < 12; i++ {
		if _, err := c.Place(ctx, "gcc", 1); err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
	}
	_, err := c.Place(ctx, "gcc", 1)
	if !errors.Is(err, nperr.ErrFleetFull) {
		t.Fatalf("overflow place: %v, want errors.Is ErrFleetFull", err)
	}
	if !errors.Is(err, nperr.ErrMachineFull) {
		// The sentinel chain is rebuilt from the single wire code: the
		// member-level reasons are message-only. Pin that so nobody
		// accidentally relies on them.
		t.Logf("note: member-level sentinels not re-materialized (by design)")
	}
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeFleetFull || werr.Status != 409 {
		t.Fatalf("wire error detail: %+v", werr)
	}

	if err := c.Release(ctx, 9999); !errors.Is(err, nperr.ErrUnknownContainer) {
		t.Errorf("release unknown: %v, want ErrUnknownContainer", err)
	}
	if _, err := c.Drain(ctx, "nope"); !errors.Is(err, nperr.ErrUnknownBackend) {
		t.Errorf("drain unknown: %v, want ErrUnknownBackend", err)
	}
	if _, err := c.HealthOf(ctx, "nope"); !errors.Is(err, nperr.ErrUnknownBackend) {
		t.Errorf("health unknown: %v, want ErrUnknownBackend", err)
	}

	// Failing m0 on a full fleet strands all its tenants: the error rides
	// the wire as 503 no_healthy_backend WITH the partial failover report.
	_, err = c.Fail(ctx, "m0")
	if !errors.Is(err, nperr.ErrNoHealthyBackend) {
		t.Fatalf("failing m0 on a full fleet: %v, want ErrNoHealthyBackend", err)
	}
	if !errors.As(err, &werr) || werr.Report == nil || werr.Report.Stranded != 8 {
		t.Fatalf("stranding failover must carry its partial report: %+v", werr)
	}
	if _, err := c.Fail(ctx, "m1"); !errors.Is(err, nperr.ErrNoHealthyBackend) {
		t.Fatalf("failing last machine: %v, want ErrNoHealthyBackend in chain", err)
	}
	_, err = c.Place(ctx, "gcc", 1)
	if !errors.Is(err, nperr.ErrNoHealthyBackend) {
		t.Fatalf("place on dead fleet: %v, want ErrNoHealthyBackend", err)
	}
	if !errors.As(err, &werr) || werr.Status != 503 {
		t.Fatalf("dead-fleet place should be 503: %+v", werr)
	}

	// Heartbeat from a dead machine: backend_down, and Revive restores.
	if _, err := c.Heartbeat(ctx, "m0"); !errors.Is(err, nperr.ErrBackendDown) {
		t.Errorf("heartbeat dead: %v, want ErrBackendDown", err)
	}
	if _, err := c.Revive(ctx, "m0"); err != nil {
		t.Fatal(err)
	}
	if h, err := c.HealthOf(ctx, "m0"); err != nil || h != "healthy" {
		t.Fatalf("after revive: %q, %v", h, err)
	}
}

// TestWireFullFleetIsNotRetried: a full fleet of healthy machines answers a
// place with 409 fleet_full under every policy, and a client that retries
// sends it once — full is not a 503 no_healthy_backend to back off on.
func TestWireFullFleetIsNotRetried(t *testing.T) {
	ctx := context.Background()
	gcc, _ := workloads.ByName("gcc")
	for _, p := range []fleet.Policy{fleet.FirstFit, fleet.LeastLoaded, fleet.BestPredicted} {
		t.Run(p.String(), func(t *testing.T) {
			f := stubFleet(t, p)
			for i := 0; i < 12; i++ {
				if _, err := f.Place(ctx, gcc, 1); err != nil {
					t.Fatalf("place %d: %v", i, err)
				}
			}
			var requests atomic.Int64
			ws := wire.NewServer(f, wire.Config{})
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				ws.ServeHTTP(w, r)
			}))
			t.Cleanup(func() { ws.Stop(); srv.Close() })
			var werr *client.Error
			_, err := client.New(srv.URL).Place(ctx, "gcc", 1)
			if !errors.Is(err, nperr.ErrFleetFull) || !errors.As(err, &werr) || werr.Code != wire.CodeFleetFull || werr.Status != 409 {
				t.Fatalf("place on a full fleet: %v (%+v), want 409 fleet_full", err, werr)
			}
			if n := requests.Load(); n != 1 {
				t.Fatalf("a retrying client sent %d requests for a full fleet, want 1", n)
			}
		})
	}
}

// TestWireLiveBackendRefusals: failing over or reviving a live machine is a
// 409 backend_alive on the first response, errors.Is holds through the
// client, and a client that retries does not retry it.
func TestWireLiveBackendRefusals(t *testing.T) {
	ctx := context.Background()
	c, f, _ := testDaemon(t, wire.Config{})
	var werr *client.Error
	_, err := c.Failover(ctx, "m0", 0)
	if !errors.Is(err, nperr.ErrBackendAlive) || !errors.As(err, &werr) || werr.Code != wire.CodeBackendAlive || werr.Status != 409 {
		t.Fatalf("failover of a live machine: %v (%+v), want 409 backend_alive", err, werr)
	}
	if _, err := c.Revive(ctx, "m0"); !errors.Is(err, nperr.ErrBackendAlive) || !errors.As(err, &werr) || werr.Status != 409 {
		t.Fatalf("revive of a live machine: %v (%+v), want 409 backend_alive", err, werr)
	}

	var requests atomic.Int64
	ws := wire.NewServer(f, wire.Config{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		ws.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ws.Stop(); srv.Close() })
	retrying := client.New(srv.URL)
	if _, err := retrying.Failover(ctx, "m0", 0); !errors.Is(err, nperr.ErrBackendAlive) {
		t.Fatalf("failover through a retrying client: %v", err)
	}
	if _, err := retrying.Revive(ctx, "m0"); !errors.Is(err, nperr.ErrBackendAlive) {
		t.Fatalf("revive through a retrying client: %v", err)
	}
	if n := requests.Load(); n != 2 {
		t.Fatalf("a retrying client sent %d requests for two refusals, want 2", n)
	}
}

func TestWireHealthFlow(t *testing.T) {
	ctx := context.Background()
	c, _, _ := testDaemon(t, wire.Config{})

	// Two missed probes turn m0 suspect; a heartbeat restores it.
	for i := 0; i < 2; i++ {
		if _, err := c.MissProbe(ctx, "m0"); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := c.HealthOf(ctx, "m0"); h != "suspect" {
		t.Fatalf("after 2 misses: %q, want suspect", h)
	}
	if h, err := c.Heartbeat(ctx, "m0"); err != nil || h != "healthy" {
		t.Fatalf("heartbeat: %q, %v", h, err)
	}

	// Place a tenant on m0, fail m0: the wire report shows the failover.
	pr, err := c.Place(ctx, "gcc", 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Fail(ctx, "m0")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != 1 || rep.Moves[0].ID != pr.ID || rep.Moves[0].To != "m1" {
		t.Fatalf("failover report %+v", rep)
	}

	// Drain/resume round-trip on the survivor: no live destination exists,
	// so the drain strands its tenant and reports the fleet-full rejection.
	if _, err := c.Drain(ctx, "m1"); err == nil {
		t.Fatal("drain m1 with no destination should strand tenants")
	} else if !errors.Is(err, nperr.ErrFleetFull) {
		t.Fatalf("drain strand: %v", err)
	}
	if err := c.Resume(ctx, "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rebalance(ctx, 1e9); err != nil {
		t.Fatal(err)
	}
}

// TestWireEvents drives mutations and checks the SSE stream delivers them
// decoded, in publish order, ending with a clean daemon-side shutdown.
func TestWireEvents(t *testing.T) {
	ctx := context.Background()
	c, f, ws := testDaemon(t, wire.Config{})

	es, err := c.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	pr, err := c.Place(ctx, "gcc", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ctx, pr.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fail(ctx, "m1"); err != nil {
		t.Fatal(err)
	}

	wantTypes := []string{"place", "release", "health", "failover"}
	var got []client.Event
	for len(got) < len(wantTypes) {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("after %d events: %v", len(got), err)
		}
		got = append(got, ev)
	}
	for i, ev := range got {
		if ev.Type != wantTypes[i] {
			t.Errorf("event %d: type %q, want %q (%+v)", i, ev.Type, wantTypes[i], ev)
		}
		if i > 0 && ev.Seq <= got[i-1].Seq {
			t.Errorf("event %d: seq %d after %d, want strictly increasing", i, ev.Seq, got[i-1].Seq)
		}
	}
	// The feed's number is the fleet's commit count: the failover summary was
	// the last commit.
	if last := got[len(got)-1].Seq; last != f.Seq() {
		t.Errorf("last event seq %d, fleet seq %d", last, f.Seq())
	}
	if got[0].ID != pr.ID || got[0].Backend != "m0" || got[0].Workload != "gcc" || got[0].VCPUs != 4 {
		t.Errorf("place event %+v", got[0])
	}
	if got[2].FromHealth != "healthy" || got[2].ToHealth != "dead" {
		t.Errorf("health event %+v", got[2])
	}

	// Server Stop ends the stream (the daemon's shutdown path); the client
	// sees EOF, not a hang.
	ws.Stop()
	if _, err := es.Next(); err == nil {
		t.Fatal("stream should end after server Stop")
	}
}

// TestWireEventBytesDeterministic replays the same scenario under
// GOMAXPROCS 1 and 4 and requires the raw SSE payload bytes to be
// identical — the wire stream inherits the fleet's total event order and
// the encoder is value-deterministic.
func TestWireEventBytesDeterministic(t *testing.T) {
	run := func() string {
		ctx := context.Background()
		c, _, _ := testDaemon(t, wire.Config{})
		es, err := c.Events(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer es.Close()

		var ids []int
		for i := 0; i < 4; i++ {
			pr, err := c.Place(ctx, "gcc", 2)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, pr.ID)
		}
		c.Release(ctx, ids[1])
		c.Fail(ctx, "m0")
		c.Revive(ctx, "m0")

		// place×4, release, health→dead, move×3, failover, health→healthy,
		// revive = 12 events.
		var b strings.Builder
		for i := 0; i < 12; i++ {
			ev, err := es.Next()
			if err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
			fmt.Fprintf(&b, "%d %s %d %s %s %s %d %s %s %d %d %d %d %d %g\n",
				ev.Seq, ev.Type, ev.ID, ev.Backend, ev.Dest, ev.Workload,
				ev.VCPUs, ev.FromHealth, ev.ToHealth, ev.Moves, ev.IntraMoves,
				ev.Examined, ev.Stranded, ev.Fenced, ev.Seconds)
		}
		return b.String()
	}
	old := runtime.GOMAXPROCS(1)
	one := run()
	runtime.GOMAXPROCS(4)
	four := run()
	runtime.GOMAXPROCS(old)
	if one != four {
		t.Fatalf("event bytes differ between GOMAXPROCS 1 and 4:\n--- 1:\n%s--- 4:\n%s", one, four)
	}
}

// TestWireStatsCache: nothing stands between /v1/stats and the fleet, so a
// read follows the mutation before it (TestStatsSeeFleetMutation covers a
// mutation that did not come over HTTP).
func TestWireStatsCache(t *testing.T) {
	ctx := context.Background()
	c, _, _ := testDaemon(t, wire.Config{})
	s1, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(ctx, "gcc", 1); err != nil {
		t.Fatal(err)
	}
	s2, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Admitted != s1.Admitted+1 || s2.Tenants != 1 {
		t.Fatalf("stats went stale after mutation: %+v", s2)
	}
}

// TestWireBadRequests: malformed bodies and unknown workloads are
// bad_request (400), never 5xx (which the client would retry).
func TestWireBadRequests(t *testing.T) {
	ctx := context.Background()
	c, _, _ := testDaemon(t, wire.Config{})
	_, err := c.Place(ctx, "no-such-workload", 4)
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest || werr.Status != 400 {
		t.Fatalf("unknown workload: %v", err)
	}
	// Sanity: the catalog the server resolves against is the paper's.
	if _, ok := workloads.ByName("gcc"); !ok {
		t.Fatal("paper catalog missing gcc")
	}
}

// TestWireLogHead covers both durability postures: without persistence the
// endpoint answers persistent=false (monitors branch on the flag, not on a
// 404), with persistence it relays the daemon's head and forced snapshots
// acknowledge with the sequence they cover.
func TestWireLogHead(t *testing.T) {
	ctx := context.Background()

	// Unpersisted daemon.
	c, _, _ := testDaemon(t, wire.Config{})
	head, err := c.LogHead(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if head.Persistent || head.Seq != 0 {
		t.Fatalf("unpersisted head %+v, want persistent=false seq=0", head)
	}
	_, err = c.Snapshot(ctx)
	if !errors.Is(err, nperr.ErrLogClosed) {
		t.Fatalf("snapshot without persistence: %v, want ErrLogClosed", err)
	}
	var werr *client.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeLogClosed || werr.Status != 503 {
		t.Fatalf("snapshot error detail %+v", werr)
	}

	// Persisted daemon: hooks stand in for the numaplaced WAL wiring.
	var snaps int
	cfg := wire.Config{
		LogHead: func() wire.LogHead {
			return wire.LogHead{Seq: 41, SnapshotSeq: 30, RecoveredSeq: 37,
				RecoveredTenants: 5, Persistent: true}
		},
		Snapshot: func() (uint64, error) { snaps++; return 41, nil },
	}
	c2, _, _ := testDaemon(t, cfg)
	head, err = c2.LogHead(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.LogHead{Seq: 41, SnapshotSeq: 30, RecoveredSeq: 37,
		RecoveredTenants: 5, Persistent: true}
	if *head != want {
		t.Fatalf("persisted head %+v, want %+v", *head, want)
	}
	seq, err := c2.Snapshot(ctx)
	if err != nil || seq != 41 || snaps != 1 {
		t.Fatalf("snapshot: seq %d err %v (hook ran %d times), want 41/nil/1", seq, err, snaps)
	}
}
