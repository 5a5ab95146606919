// Route-by-route tests of the server's registration table: every route is
// driven over real HTTP to success and to each error it can return, and the
// status and body are compared with the ones the handlers this table replaced
// gave (recorded at 90a20ec); the table itself is checked against DESIGN.md.
package wire_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// routeCase is one request against a fresh two-stub daemon (m0: AMD, 8
// single-node admissions; m1: Intel, 4; first-fit) that setup has prepared
// through the fleet directly.
type routeCase struct {
	name   string
	cfg    wire.Config
	setup  func(t *testing.T, f *fleet.Fleet)
	route  string // "METHOD /path" as registered
	path   string // the concrete path, when the pattern has a wildcard
	body   string
	status int
	want   string
}

// fill admits n one-vCPU gcc containers: IDs 0..n-1, the first 8 on m0.
func fill(n int) func(*testing.T, *fleet.Fleet) {
	return func(t *testing.T, f *fleet.Fleet) {
		t.Helper()
		gcc, _ := workloads.ByName("gcc")
		for i := 0; i < n; i++ {
			if _, err := f.Place(context.Background(), gcc, 1); err != nil {
				t.Fatalf("setup place %d: %v", i, err)
			}
		}
	}
}

// then runs setup steps in order.
func then(steps ...func(*testing.T, *fleet.Fleet)) func(*testing.T, *fleet.Fleet) {
	return func(t *testing.T, f *fleet.Fleet) {
		t.Helper()
		for _, s := range steps {
			s(t, f)
		}
	}
}

func release(ids ...int) func(*testing.T, *fleet.Fleet) {
	return func(t *testing.T, f *fleet.Fleet) {
		t.Helper()
		for _, id := range ids {
			if err := f.Release(context.Background(), id); err != nil {
				t.Fatalf("setup release %d: %v", id, err)
			}
		}
	}
}

// fail declares the named machines dead; a stranding failover is expected
// and ignored.
func fail(names ...string) func(*testing.T, *fleet.Fleet) {
	return func(t *testing.T, f *fleet.Fleet) {
		t.Helper()
		for _, name := range names {
			if _, err := f.Fail(context.Background(), name); err != nil && !errors.Is(err, nperr.ErrNoHealthyBackend) {
				t.Fatalf("setup fail %s: %v", name, err)
			}
		}
	}
}

// missFour leaves the named machine one missed probe from dead.
func missFour(name string) func(*testing.T, *fleet.Fleet) {
	return func(t *testing.T, f *fleet.Fleet) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if _, _, err := f.MissProbe(context.Background(), name); err != nil {
				t.Fatalf("setup missprobe %s: %v", name, err)
			}
		}
	}
}

var persisted = wire.Config{
	LogHead: func() wire.LogHead {
		return wire.LogHead{Seq: 41, SnapshotSeq: 30, RecoveredSeq: 37, RecoveredTenants: 5, Persistent: true}
	},
	Snapshot: func() (uint64, error) { return 41, nil },
}

// The ten routes that take a JSON body: each also gets the three
// malformed-body cases below.
var verbs = []string{"place", "release", "rebalance", "drain", "resume",
	"heartbeat", "missprobe", "fail", "failover", "revive"}

const (
	badJSON   = `{"error":{"code":"bad_request","status":400,"message":"decoding body: invalid character 'x' looking for beginning of value"}}`
	noJSON    = `{"error":{"code":"bad_request","status":400,"message":"decoding body: unexpected end of JSON input"}}`
	oversized = `{"error":{"code":"bad_request","status":400,"message":"reading body: http: request body too large"}}`
)

func routeCases() []routeCase {
	cases := []routeCase{
		{name: "place", route: "POST /v1/place", body: `{"workload":"gcc","vcpus":16}`},
		{name: "place unknown workload", route: "POST /v1/place", body: `{"workload":"nope","vcpus":1}`},
		{name: "place fleet full", setup: fill(12), route: "POST /v1/place", body: `{"workload":"gcc","vcpus":1}`},
		{name: "place no healthy backend", setup: fail("m0", "m1"), route: "POST /v1/place", body: `{"workload":"gcc","vcpus":1}`},
		{name: "place non-positive vcpus", route: "POST /v1/place", body: `{"workload":"gcc","vcpus":0}`},
		{name: "place oversized vcpus", route: "POST /v1/place", body: `{"workload":"gcc","vcpus":100000}`},

		{name: "release", setup: fill(1), route: "POST /v1/release", body: `{"id":0}`},
		{name: "release unknown id", route: "POST /v1/release", body: `{"id":9999}`},

		// m0 5/8, m1 1/4: the pass consolidates m1's tenant uphill onto m0.
		{name: "rebalance", setup: then(fill(9), release(0, 1, 2)), route: "POST /v1/rebalance", body: `{"budget_seconds":1000}`},

		{name: "drain", setup: fill(1), route: "POST /v1/drain", body: `{"backend":"m0"}`},
		{name: "drain unknown backend", route: "POST /v1/drain", body: `{"backend":"nope"}`},
		{name: "drain strands", setup: fill(12), route: "POST /v1/drain", body: `{"backend":"m0"}`},

		{name: "resume", route: "POST /v1/resume", body: `{"backend":"m0"}`},
		{name: "resume unknown backend", route: "POST /v1/resume", body: `{"backend":"nope"}`},

		{name: "heartbeat", route: "POST /v1/heartbeat", body: `{"backend":"m0"}`},
		{name: "heartbeat unknown backend", route: "POST /v1/heartbeat", body: `{"backend":"nope"}`},
		{name: "heartbeat dead backend", setup: fail("m0"), route: "POST /v1/heartbeat", body: `{"backend":"m0"}`},

		{name: "missprobe", route: "POST /v1/missprobe", body: `{"backend":"m0"}`},
		{name: "missprobe unknown backend", route: "POST /v1/missprobe", body: `{"backend":"nope"}`},
		{name: "missprobe to death", setup: then(fill(1), missFour("m0")), route: "POST /v1/missprobe", body: `{"backend":"m0"}`},
		{name: "missprobe to death strands", setup: then(fill(12), missFour("m0")), route: "POST /v1/missprobe", body: `{"backend":"m0"}`},

		{name: "fail", setup: fill(1), route: "POST /v1/fail", body: `{"backend":"m0"}`},
		{name: "fail unknown backend", route: "POST /v1/fail", body: `{"backend":"nope"}`},
		{name: "fail dead backend", setup: fail("m0"), route: "POST /v1/fail", body: `{"backend":"m0"}`},
		{name: "fail strands", setup: fill(12), route: "POST /v1/fail", body: `{"backend":"m0"}`},

		// m0 dies holding 8 with m1 full; releasing m1's four and four of the
		// stranded leaves a failover that fits.
		{name: "failover", setup: then(fill(12), fail("m0"), release(8, 9, 10, 11, 4, 5, 6, 7)), route: "POST /v1/failover", body: `{"backend":"m0","budget_seconds":1000}`},
		{name: "failover unknown backend", route: "POST /v1/failover", body: `{"backend":"nope"}`},
		{name: "failover live backend", route: "POST /v1/failover", body: `{"backend":"m0"}`},
		{name: "failover strands", setup: then(fill(12), fail("m0"), release(8, 9)), route: "POST /v1/failover", body: `{"backend":"m0","budget_seconds":1000}`},

		{name: "revive", setup: then(fill(1), fail("m0")), route: "POST /v1/revive", body: `{"backend":"m0"}`},
		{name: "revive unknown backend", route: "POST /v1/revive", body: `{"backend":"nope"}`},
		{name: "revive live backend", route: "POST /v1/revive", body: `{"backend":"m0"}`},

		{name: "snapshot", cfg: persisted, route: "POST /v1/snapshot"},
		{name: "snapshot unpersisted", route: "POST /v1/snapshot"},
		{name: "snapshot fails", cfg: wire.Config{Snapshot: func() (uint64, error) { return 0, fmt.Errorf("disk gone: %w", io.ErrShortWrite) }},
			route: "POST /v1/snapshot"},

		{name: "stats", setup: then(fill(9), fail("m1")), route: "GET /v1/stats"},
		{name: "assignments", setup: then(fill(9), release(1)), route: "GET /v1/assignments"},
		{name: "assignments empty", route: "GET /v1/assignments"},
		{name: "log head", cfg: persisted, route: "GET /v1/log/head"},
		{name: "log head unpersisted", route: "GET /v1/log/head"},
		{name: "health", route: "GET /v1/health/{backend}", path: "/v1/health/m1"},
		{name: "health unknown backend", route: "GET /v1/health/{backend}", path: "/v1/health/nope"},
		{name: "healthz", route: "GET /v1/healthz"},
		{name: "events", route: "GET /v1/events"},
	}
	for i := range cases {
		cases[i].status, cases[i].want = golden[cases[i].name].status, golden[cases[i].name].body
	}
	for _, v := range verbs {
		route := "POST /v1/" + v
		cases = append(cases,
			routeCase{name: v + " bad json", route: route, body: `x`, status: 400, want: badJSON},
			routeCase{name: v + " no body", route: route, status: 400, want: noJSON},
			routeCase{name: v + " oversized body", route: route, body: strings.Repeat(" ", 1<<20+1), status: 400, want: oversized},
		)
	}
	return cases
}

func TestRoutesGolden(t *testing.T) {
	// Servers are closed when the whole test ends: net/http holds a
	// connection whose oversized body it refused for 500 ms, and the waits
	// then overlap.
	atEnd := t.Cleanup
	driven := map[string]bool{}
	for _, tc := range routeCases() {
		driven[tc.route] = true
		t.Run(tc.name, func(t *testing.T) {
			f := fleet.New(fleet.Config{Policy: fleet.FirstFit})
			if err := errors.Join(f.Add("m0", newStub(machines.AMD(), 1)), f.Add("m1", newStub(machines.Intel(), 2))); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(t, f)
			}
			ws := wire.NewServer(f, tc.cfg)
			srv := httptest.NewServer(ws)
			atEnd(func() { ws.Stop(); srv.Close() })

			method, path, _ := strings.Cut(tc.route, " ")
			if tc.path != "" {
				path = tc.path
			}
			req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var got string
			if path == "/v1/events" {
				got, err = bufio.NewReader(resp.Body).ReadString('\n') // the stream never ends on its own
			} else {
				var b []byte
				b, err = io.ReadAll(resp.Body)
				got = string(b)
			}
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || got != tc.want {
				t.Errorf("%s %s\n got %d %s\nwant %d %s", method, path, resp.StatusCode, got, tc.status, tc.want)
			}
		})
	}
	ws := wire.NewServer(fleet.New(fleet.Config{}), wire.Config{})
	for _, pattern := range wire.RoutePatterns(ws) {
		if !driven[pattern] {
			t.Errorf("route %q is registered but no case drives it", pattern)
		}
	}
}

// TestRoutesDocumented holds DESIGN.md's Routes table to the registration
// table: a route the server serves has a row there.
func TestRoutesDocumented(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "\n### Routes\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Routes" section`)
	}
	table, _, _ = strings.Cut(table, "\n#")
	ws := wire.NewServer(fleet.New(fleet.Config{}), wire.Config{})
	for _, pattern := range wire.RoutePatterns(ws) {
		if !strings.Contains(table, "| `"+pattern+"` |") {
			t.Errorf("route %q is registered but has no row in DESIGN.md's Routes table", pattern)
		}
	}
}

// TestStatsSeeFleetMutation: /v1/stats reports the fleet as it is, however it
// got there — a mutation that did not arrive over HTTP (a probe loop in the
// embedding program) shows in the next read.
func TestStatsSeeFleetMutation(t *testing.T) {
	ctx := context.Background()
	c, f, _ := testDaemon(t, wire.Config{})
	if st, err := c.Stats(ctx); err != nil || st.Backends[0].Health != "healthy" {
		t.Fatalf("stats before: %+v, %v", st, err)
	}
	if _, err := f.Fail(ctx, "m0"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Backends[0].Health != "dead" || st.Failovers != 1 {
		t.Fatalf("stats after f.Fail(m0) still say %q, %d failovers", st.Backends[0].Health, st.Failovers)
	}
}

// golden holds each case's reply as the handlers at 90a20ec gave it, but for
// "place non-positive vcpus": those admitted a 0-vCPU container (200); and
// "place oversized vcpus", which their fleet answered 409 fleet_full.
var golden = map[string]struct {
	status int
	body   string
}{
	"place":                      {200, `{"id":0,"backend":"m0","assignment":{"id":0,"workload":"gcc","vcpus":16,"class":0,"nodes":[0],"base_perf":1,"probe_perf":0,"predicted_perf":1}}`},
	"place unknown workload":     {400, `{"error":{"code":"bad_request","status":400,"message":"unknown workload \"nope\""}}`},
	"place fleet full":           {409, `{"error":{"code":"fleet_full","status":409,"message":"fleet: placing 1-vCPU \"gcc\": m0: machine full\nm1: machine full\nno fleet backend admitted the container"}}`},
	"place no healthy backend":   {503, `{"error":{"code":"no_healthy_backend","status":503,"message":"fleet: placing 1-vCPU \"gcc\": no fleet backend admitted the container\nno healthy fleet backend available"}}`},
	"place non-positive vcpus":   {422, `{"error":{"code":"infeasible","status":422,"message":"fleet: placing 0-vCPU \"gcc\": vCPU count must be positive: infeasible placement request"}}`},
	"place oversized vcpus":      {422, `{"error":{"code":"infeasible","status":422,"message":"fleet: placing 100000-vCPU \"gcc\": m0: 100000 vCPUs exceed 64 hardware threads: infeasible placement request\nm1: 100000 vCPUs exceed 96 hardware threads: infeasible placement request"}}`},
	"release":                    {200, `{"id":0}`},
	"release unknown id":         {404, `{"error":{"code":"unknown_container","status":404,"message":"fleet: releasing container 9999: unknown container"}}`},
	"rebalance":                  {200, `{"moves":[{"id":8,"workload":"gcc","vcpus":1,"from":"m1","to":"m0","seconds":0.40555555555555556}],"intra_moves":0,"drained":["m1"],"examined":1,"stranded":0,"total_seconds":0.40555555555555556,"budget_seconds":1000}`},
	"drain":                      {200, `{"moves":[{"id":0,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556}],"intra_moves":0,"drained":["m0"],"examined":1,"stranded":0,"total_seconds":0.40555555555555556,"budget_seconds":0}`},
	"drain unknown backend":      {404, `{"error":{"code":"unknown_backend","status":404,"message":"fleet: draining \"nope\": unknown fleet backend"}}`},
	"drain strands":              {409, `{"error":{"code":"fleet_full","status":409,"message":"fleet: draining m0: 8 of 8 containers could not be rehomed: m1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nno fleet backend admitted the container","report":{"moves":[],"intra_moves":0,"examined":8,"stranded":8,"total_seconds":0,"budget_seconds":0}}}`},
	"resume":                     {200, `{"backend":"m0"}`},
	"resume unknown backend":     {404, `{"error":{"code":"unknown_backend","status":404,"message":"fleet: resuming \"nope\": unknown fleet backend"}}`},
	"heartbeat":                  {200, `{"backend":"m0","health":"healthy"}`},
	"heartbeat unknown backend":  {404, `{"error":{"code":"unknown_backend","status":404,"message":"fleet: heartbeat from \"nope\": unknown fleet backend"}}`},
	"heartbeat dead backend":     {409, `{"error":{"code":"backend_down","status":409,"message":"fleet: heartbeat from m0: fleet backend is down (Revive to rejoin)"}}`},
	"missprobe":                  {200, `{"backend":"m0","health":"healthy"}`},
	"missprobe unknown backend":  {404, `{"error":{"code":"unknown_backend","status":404,"message":"fleet: missed probe on \"nope\": unknown fleet backend"}}`},
	"missprobe to death":         {200, `{"backend":"m0","health":"dead","report":{"moves":[{"id":0,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556}],"intra_moves":0,"examined":1,"stranded":0,"total_seconds":0.40555555555555556,"budget_seconds":300}}`},
	"missprobe to death strands": {503, `{"error":{"code":"no_healthy_backend","status":503,"message":"fleet: failover of m0: 8 of 8 tenants stranded: m1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nno healthy fleet backend available","report":{"moves":[],"intra_moves":0,"examined":8,"stranded":8,"total_seconds":0,"budget_seconds":300}}}`},
	"fail":                       {200, `{"moves":[{"id":0,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556}],"intra_moves":0,"examined":1,"stranded":0,"total_seconds":0.40555555555555556,"budget_seconds":300}`},
	"fail unknown backend":       {404, `{"error":{"code":"unknown_backend","status":404,"message":"fleet: failing \"nope\": unknown fleet backend"}}`},
	"fail dead backend":          {409, `{"error":{"code":"backend_down","status":409,"message":"fleet: failing m0: already fleet backend is down"}}`},
	"fail strands":               {503, `{"error":{"code":"no_healthy_backend","status":503,"message":"fleet: failover of m0: 8 of 8 tenants stranded: m1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nno healthy fleet backend available","report":{"moves":[],"intra_moves":0,"examined":8,"stranded":8,"total_seconds":0,"budget_seconds":300}}}`},
	"failover":                   {200, `{"moves":[{"id":0,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556},{"id":1,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556},{"id":2,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556},{"id":3,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556}],"intra_moves":0,"examined":4,"stranded":0,"total_seconds":1.6222222222222222,"budget_seconds":1000}`},
	"failover unknown backend":   {404, `{"error":{"code":"unknown_backend","status":404,"message":"fleet: failover of \"nope\": unknown fleet backend"}}`},
	"failover live backend":      {409, `{"error":{"code":"backend_alive","status":409,"message":"fleet: failover of m0: fleet backend is alive (healthy; Drain for a graceful move)"}}`},
	"failover strands":           {503, `{"error":{"code":"no_healthy_backend","status":503,"message":"fleet: failover of m0: 6 of 8 tenants stranded: m1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nm1: machine full\nno healthy fleet backend available","report":{"moves":[{"id":0,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556},{"id":1,"workload":"gcc","vcpus":1,"from":"m0","to":"m1","seconds":0.40555555555555556}],"intra_moves":0,"examined":8,"stranded":6,"total_seconds":0.8111111111111111,"budget_seconds":1000}}}`},
	"revive":                     {200, `{"backend":"m0","fenced":1}`},
	"revive unknown backend":     {404, `{"error":{"code":"unknown_backend","status":404,"message":"fleet: reviving \"nope\": unknown fleet backend"}}`},
	"revive live backend":        {409, `{"error":{"code":"backend_alive","status":409,"message":"fleet: reviving m0: fleet backend is alive (healthy)"}}`},
	"snapshot":                   {200, `{"seq":41}`},
	"snapshot unpersisted":       {503, `{"error":{"code":"log_closed","status":503,"message":"wire: snapshot: persistence not enabled: fleet log closed"}}`},
	"snapshot fails":             {500, `{"error":{"code":"internal","status":500,"message":"disk gone: short write"}}`},
	"stats":                      {200, `{"backends":[{"name":"m0","machine":"amd-opteron-6272","health":"healthy","draining":false,"tenants":8,"free_nodes":0,"total_nodes":8,"utilization":1},{"name":"m1","machine":"intel-xeon-e7-4830v3","health":"dead","draining":false,"tenants":1,"free_nodes":0,"total_nodes":4,"utilization":0}],"domains":[{"domain":"","backends":2,"dead":1,"tenants":9,"free_nodes":0,"total_nodes":8,"utilization":1}],"tenants":9,"admitted":9,"rejected":0,"released":0,"moves":0,"failovers":1,"failed_over":0,"migration_seconds":0,"utilization":1}`},
	"assignments":                {200, `{"assignments":[{"id":0,"backend":"m0","assignment":{"id":0,"workload":"gcc","vcpus":1,"class":0,"nodes":[0],"base_perf":1,"probe_perf":0,"predicted_perf":1}},{"id":2,"backend":"m0","assignment":{"id":2,"workload":"gcc","vcpus":1,"class":0,"nodes":[2],"base_perf":1,"probe_perf":0,"predicted_perf":1}},{"id":3,"backend":"m0","assignment":{"id":3,"workload":"gcc","vcpus":1,"class":0,"nodes":[3],"base_perf":1,"probe_perf":0,"predicted_perf":1}},{"id":4,"backend":"m0","assignment":{"id":4,"workload":"gcc","vcpus":1,"class":0,"nodes":[4],"base_perf":1,"probe_perf":0,"predicted_perf":1}},{"id":5,"backend":"m0","assignment":{"id":5,"workload":"gcc","vcpus":1,"class":0,"nodes":[5],"base_perf":1,"probe_perf":0,"predicted_perf":1}},{"id":6,"backend":"m0","assignment":{"id":6,"workload":"gcc","vcpus":1,"class":0,"nodes":[6],"base_perf":1,"probe_perf":0,"predicted_perf":1}},{"id":7,"backend":"m0","assignment":{"id":7,"workload":"gcc","vcpus":1,"class":0,"nodes":[7],"base_perf":1,"probe_perf":0,"predicted_perf":1}},{"id":8,"backend":"m1","assignment":{"id":0,"workload":"gcc","vcpus":1,"class":0,"nodes":[0],"base_perf":2,"probe_perf":0,"predicted_perf":2}}]}`},
	"assignments empty":          {200, `{"assignments":[]}`},
	"log head":                   {200, `{"seq":41,"snapshot_seq":30,"recovered_seq":37,"recovered_tenants":5,"persistent":true}`},
	"log head unpersisted":       {200, `{"seq":0,"snapshot_seq":0,"recovered_seq":0,"recovered_tenants":0,"persistent":false}`},
	"health":                     {200, `{"backend":"m1","health":"healthy"}`},
	"health unknown backend":     {404, `{"error":{"code":"unknown_backend","status":404,"message":"wire: health of \"nope\": unknown fleet backend"}}`},
	"healthz":                    {200, "ok\n"},
	"events":                     {200, ": numaplaced event stream\n"},
}
