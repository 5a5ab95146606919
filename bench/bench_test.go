package bench

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDaemonLeavesNothingBehind starts and stops the in-process daemon the
// way wire_churn does and checks the three things a benchmark must not
// leak: the listener, its goroutines, and the temp data directory.
func TestDaemonLeavesNothingBehind(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	ctx := context.Background()
	before := runtime.NumGoroutine()

	e, err := startWire(ctx, 1, seams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newCaller(wirePlacer{e.c}, 1, 1, daemonFleet.sizes, nil)
	for i := 0; i < 50; i++ {
		c.cycle(ctx)
	}
	if c.firstErr != nil || c.cycles != 50 {
		t.Fatalf("50 cycles over the wire: %d completed, first error %v", c.cycles, c.firstErr)
	}
	addr, dir := strings.TrimPrefix(e.d.addr, "http://"), e.d.dir
	if err := e.stop(); err != nil {
		t.Fatalf("stopping the daemon: %v", err)
	}

	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("listener %s still accepts connections after stop", addr)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("data directory %s still exists after stop (stat: %v)", dir, err)
	}
	// Connection goroutines exit asynchronously after their sockets close.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after stop:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestReference: the reference runs, reads a positive speed and reports no
// pipe error.
func TestReference(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	if v := ref.speed(5 * time.Millisecond); v <= 0 || ref.err != nil {
		t.Errorf("speed %v, error %v", v, ref.err)
	}
}

// TestSmoke runs every workload, tracing off and traced, with a 200 ms
// window, and checks what does not depend on the machine's speed: the run
// is correct, and it emits exactly the declared metrics.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			rep := Run(context.Background(), Options{
				Workload: w.Name, Seed: 1, Seconds: 0.2, Traced: traced, Setups: 1, OutDir: t.TempDir(),
			})
			if !rep.Result.Correct {
				t.Errorf("%s traced=%v: not correct: %v", w.Name, traced, rep.Problems)
			}
			want := EndToEnd
			if traced {
				want = PerLayer
			}
			if len(rep.Result.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(rep.Result.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Result.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s [%s] missing or with unit %q", w.Name, traced, m.Name, m.Unit, v.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.Name, m.Name, v.Value)
				}
			}
			if rep.Notes["pack_digest"] == "" {
				t.Errorf("%s traced=%v: no pack digest printed", w.Name, traced)
			}
		}
	}
}

// TestPackRepeats: one seed gives one decision stream.
func TestPackRepeats(t *testing.T) {
	ctx := context.Background()
	a, err := startResident(ctx, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := startResident(ctx, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.filled != b.filled || a.digest != b.digest {
		t.Errorf("seed 7 packed %d tenants (%s), then %d (%s)", a.filled, a.digest, b.filled, b.digest)
	}
	c, err := startResident(ctx, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Errorf("seeds 7 and 8 produced the same decision digest %s", a.digest)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables this package emits
// from and to the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(Workloads))
	}
	for i, w := range doc.Workloads {
		check(w.Name, "")
		if w.Name != Workloads[i].Name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a one-line why", i, w.Name, len(w.Why), Workloads[i].Name)
		}
	}
	if len(doc.EndToEnd) != len(EndToEnd) || len(doc.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d emitted (limit 16)", len(doc.EndToEnd), len(EndToEnd))
	}
	for i, m := range doc.EndToEnd {
		check(m.Name, m.Unit)
		if want := EndToEnd[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end-to-end %d: %+v, want %+v", i, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(PerLayer) || len(doc.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d emitted (limit 128)", len(doc.PerLayer), len(PerLayer))
	}
	for i, m := range doc.PerLayer {
		check(m.Name, m.Unit)
		if want := PerLayer[i]; m.Name != want.Name || m.Unit != want.Unit {
			t.Errorf("per-layer %d: %s [%s], want %s [%s]", i, m.Name, m.Unit, want.Name, want.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" || len(raw) > 64<<10 {
		t.Errorf("run_seconds %d, paths %v, %d bytes", doc.RunSeconds, doc.Paths, len(raw))
	}
}

// TestStartsNoProcesses: the previous attempt at this benchmark was
// rejected for leaving a child running; this one cannot start any.
func TestStartsNoProcesses(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(src), `"os/exec"`) || strings.Contains(string(src), "StartProcess") {
			t.Errorf("%s can start a process", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
