//go:build unix

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro"
)

func quickCfg(policy string, n int) Scenario {
	cfg := Scenario{
		machines: []string{"amd", "intel"},
		n:        n, vcpus: 16, seed: 1,
		meanArrival: 15, meanLife: 90,
		rebalanceEvery: 120, budget: 60, drainBelow: 0.9,
		quick: true,
	}
	p, ok := numaplace.ClusterPolicyByName(policy)
	if !ok {
		panic("unknown policy " + policy)
	}
	cfg.policy = p
	return cfg
}

// TestClustersimDeterministic asserts the acceptance property of the fleet
// simulator: a >= 200-container churn trace over the heterogeneous
// AMD+Intel fleet produces byte-identical standard output across repeated
// runs and across GOMAXPROCS 1 vs 4 (training, routing previews and the
// DES trace must all be schedule-independent).
func TestClustersimDeterministic(t *testing.T) {
	ctx := context.Background()
	cfg := quickCfg("best-predicted", 200)

	outputs := make([][]byte, 0, 3)
	for _, procs := range []int{1, 4, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		err := run(ctx, cfg, &out, io.Discard)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("run at GOMAXPROCS %d: %v", procs, err)
		}
		outputs = append(outputs, out.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Errorf("output differs between GOMAXPROCS 1 and 4:\n--- procs=1 ---\n%s\n--- procs=4 ---\n%s",
			outputs[0], outputs[1])
	}
	if !bytes.Equal(outputs[1], outputs[2]) {
		t.Errorf("output differs between repeated runs at the same seed:\n%s\nvs\n%s",
			outputs[1], outputs[2])
	}
}

// TestClustersimPolicies runs a short trace under each routing policy,
// checking the simulator completes without leaking tenants and that every
// admission is accounted for.
func TestClustersimPolicies(t *testing.T) {
	ctx := context.Background()
	for _, policy := range []string{"first-fit", "least-loaded", "best-predicted"} {
		var out bytes.Buffer
		if err := run(ctx, quickCfg(policy, 60), &out, io.Discard); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !bytes.Contains(out.Bytes(), []byte("leaked tenants          0")) {
			t.Errorf("%s: tenants leaked or report format changed:\n%s", policy, out.String())
		}
	}
}

// TestClustersimRestart runs the control-plane crash scenario — mid-trace
// the cluster is discarded, engines are rebuilt from scratch, and the
// write-ahead log is replayed into them — and asserts (a) the in-sim
// identity check passes (recovered assignments and stats equal the
// pre-crash ones exactly), (b) the whole trace, recovery included, is
// byte-identical across GOMAXPROCS 1 and 4, and (c) nothing leaks. The
// second restart replays a log that already spans a failover, so the
// health-transition records are exercised too.
func TestClustersimRestart(t *testing.T) {
	ctx := context.Background()
	mk := func() Scenario {
		cfg := quickCfg("best-predicted", 120)
		cfg.probeEvery = 10
		cfg.crash = []eventSpec{{name: "amd-0", at: 400}}
		cfg.restart = []float64{300, 700}
		return cfg
	}
	outputs := make([][]byte, 0, 2)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		err := run(ctx, mk(), &out, io.Discard)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("run at GOMAXPROCS %d: %v", procs, err)
		}
		outputs = append(outputs, out.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatalf("restart trace differs between GOMAXPROCS 1 and 4:\n--- procs=1 ---\n%s\n--- procs=4 ---\n%s",
			outputs[0], outputs[1])
	}
	got := outputs[0]
	if n := bytes.Count(got, []byte("restart: recovered")); n != 2 {
		t.Errorf("want 2 recovery lines, got %d:\n%s", n, got)
	}
	if bytes.Contains(got, []byte("state identical: false")) {
		t.Errorf("recovered state diverged from pre-crash state:\n%s", got)
	}
	for _, want := range []string{
		"state identical: true",
		"leaked tenants          0",
		"unfenced records        0 on live machines",
		"suspect -> dead",
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// TestClustersimFailureScenarios runs each failure-injection scenario and
// asserts (a) byte-identical output across GOMAXPROCS 1 and 4 — recovery
// must ride the deterministic event stream — and (b) the recovery
// accounting: no tenant record leaked, no stale engine-side record left
// unfenced on a live machine.
func TestClustersimFailureScenarios(t *testing.T) {
	ctx := context.Background()
	base := func() Scenario {
		cfg := quickCfg("first-fit", 120)
		cfg.probeEvery = 10
		return cfg
	}
	scenarios := map[string]func() Scenario{
		"crash": func() Scenario {
			cfg := base()
			cfg.crash = []eventSpec{{name: "amd-0", at: 300}}
			return cfg
		},
		"slow": func() Scenario {
			cfg := base()
			cfg.slow = []eventSpec{{name: "intel-1", at: 300}}
			return cfg
		},
		"partition": func() Scenario {
			cfg := base()
			cfg.partition = []spanSpec{{name: "amd-0", from: 300, to: 700}}
			cfg.spread = true
			return cfg
		},
	}
	for name, mk := range scenarios {
		t.Run(name, func(t *testing.T) {
			outputs := make([][]byte, 0, 2)
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				var out bytes.Buffer
				err := run(ctx, mk(), &out, io.Discard)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("run at GOMAXPROCS %d: %v", procs, err)
				}
				outputs = append(outputs, out.Bytes())
			}
			if !bytes.Equal(outputs[0], outputs[1]) {
				t.Fatalf("scenario output differs between GOMAXPROCS 1 and 4:\n--- procs=1 ---\n%s\n--- procs=4 ---\n%s",
					outputs[0], outputs[1])
			}
			got := outputs[0]
			for _, want := range []string{
				"leaked tenants          0",
				"unfenced records        0 on live machines",
			} {
				if !bytes.Contains(got, []byte(want)) {
					t.Errorf("report missing %q:\n%s", want, got)
				}
			}
			switch name {
			case "crash":
				for _, want := range []string{"healthy -> suspect", "suspect -> dead", "failover amd-0"} {
					if !bytes.Contains(got, []byte(want)) {
						t.Errorf("crash scenario missing %q:\n%s", want, got)
					}
				}
				if bytes.Contains(got, []byte("rejoin")) {
					t.Errorf("crashed machine rejoined without healing:\n%s", got)
				}
			case "slow":
				if !bytes.Contains(got, []byte("healthy -> suspect")) ||
					!bytes.Contains(got, []byte("suspect -> healthy")) {
					t.Errorf("slow scenario should oscillate healthy<->suspect:\n%s", got)
				}
				if bytes.Contains(got, []byte("-> dead")) {
					t.Errorf("slow machine must never die:\n%s", got)
				}
			case "partition":
				for _, want := range []string{"suspect -> dead", "rejoin amd-0", "dead -> healthy"} {
					if !bytes.Contains(got, []byte(want)) {
						t.Errorf("partition scenario missing %q:\n%s", want, got)
					}
				}
			}
		})
	}
}

// runArgs runs clustersim's command line as main does: a command line
// parseFlags refuses never runs. It returns what the run printed on stdout.
func runArgs(ctx context.Context, args []string) ([]byte, error) {
	var out bytes.Buffer
	sc, err := parseFlags(args)
	if err == nil {
		err = run(ctx, sc, &out, io.Discard)
	}
	return out.Bytes(), err
}

// goldenRuns are the scenarios whose standard output testdata pins byte for
// byte: -quick under each policy, the crash and restart scenarios, a slow
// machine and a partition. A change that means to move one regenerates its
// file with `go run ./cmd/clustersim <args> > cmd/clustersim/testdata/<name>.golden`.
var goldenRuns = []struct{ name, args string }{
	{"quick-first-fit", "-quick -policy first-fit"},
	{"quick-least-loaded", "-quick -policy least-loaded"},
	{"quick-best-predicted", "-quick -policy best-predicted"},
	{"crash", "-quick -crash amd-0@600"},
	{"crash-restart", "-quick -crash amd-0@600 -restart 900"},
	{"crash-restart-twice", "-quick -crash amd-0@400 -restart 300,700"},
	{"partition-restart-spread", "-quick -partition amd-0@300:700 -restart 900 -spread"},
	{"slow", "-quick -slow intel-1@300"},
	{"partition", "-quick -partition amd-0@400:900"},
}

func golden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenStdout holds each golden run's standard output to its file.
func TestGoldenStdout(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			got, err := runArgs(context.Background(), strings.Fields(g.args))
			if err != nil {
				t.Fatalf("clustersim %s: %v", g.args, err)
			}
			if want := golden(t, g.name); !bytes.Equal(got, want) {
				t.Errorf("clustersim %s: stdout differs from testdata/%s.golden:\n--- got ---\n%s\n--- want ---\n%s",
					g.args, g.name, got, want)
			}
		})
	}
}

// TestConcurrentScenariosShareNothing runs two different scenarios at once;
// each must print what it prints alone. Under -race this shows that a run
// keeps no state at package level.
func TestConcurrentScenariosShareNothing(t *testing.T) {
	// -quick under first-fit, and two restarts around a crash.
	runs := []struct{ name, args string }{goldenRuns[0], goldenRuns[5]}
	got := make([][]byte, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i, g := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runArgs(context.Background(), strings.Fields(g.args))
		}()
	}
	wg.Wait()
	for i, g := range runs {
		if errs[i] != nil {
			t.Fatalf("clustersim %s: %v", g.args, errs[i])
		}
		if !bytes.Equal(got[i], golden(t, g.name)) {
			t.Errorf("clustersim %s run beside another: stdout differs from testdata/%s.golden:\n%s", g.args, g.name, got[i])
		}
	}
}

// TestParseFlagsQuickTrace: -quick shortens the trace to 200 containers
// unless -n is given, whatever its value and position.
func TestParseFlagsQuickTrace(t *testing.T) {
	for args, want := range map[string]int{
		"":               240,
		"-n 5":           5,
		"-quick":         200,
		"-quick -n 0":    0,
		"-n 0 -quick":    0,
		"-quick -n 37":   37,
		"-quick -seed 3": 200,
		"-quick -n 1000": 1000,
	} {
		sc, err := parseFlags(strings.Fields(args))
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		if sc.n != want {
			t.Errorf("%q: n = %d, want %d", args, sc.n, want)
		}
	}
	sc, err := parseFlags(nil)
	if err != nil || sc.policy.String() != "best-predicted" || strings.Join(sc.machines, ",") != "amd,intel" {
		t.Errorf("defaults: policy %s, machines %v, err %v; want best-predicted over amd,intel", sc.policy, sc.machines, err)
	}
}

// TestFaultFlagsThatWouldDoNothingAreRefused: faults act through health
// probes, so a fault with probing off, or one naming a machine the fleet
// does not have, is an error before anything trains — not a scenario line
// announcing a fault that never happens. So is a malformed spec, an unknown
// policy, a number out of range or not finite. Each refusal comes before
// any output.
func TestFaultFlagsThatWouldDoNothingAreRefused(t *testing.T) {
	ctx := context.Background()
	cases := map[string]string{
		"crash without probes":                 "-probe-every 0 -crash amd-0@600",
		"slow without probes":                  "-probe-every 0 -slow intel-1@300",
		"partition without probes":             "-probe-every 0 -partition amd-0@300:700",
		"unknown crash machine without probes": "-probe-every 0 -crash amd-7@1",
		"unknown slow machine":                 "-slow intel-0@1",
		"unknown partition machine":            "-partition nope@1:2",
		"NaN arrival":                          "-arrival NaN",
		"infinite life":                        "-life +Inf",
		"NaN drain-below":                      "-drain-below NaN",
		"NaN crash time":                       "-crash amd-0@NaN",
		"NaN probe period with a crash":        "-probe-every NaN -crash amd-0@600",
		"infinite partition end":               "-partition amd-0@300:Inf",
		"NaN restart":                          "-restart NaN",
		"crash without a time":                 "-crash amd-0",
		"crash without a machine":              "-crash @600",
		"crash at no number":                   "-crash amd-0@soon",
		"partition without an end":             "-partition amd-0@300",
		"partition ending at its start":        "-partition amd-0@300:300",
		"partition ending before its start":    "-partition amd-0@700:300",
		"partition span not a number":          "-partition amd-0@a:b",
		"restart not a number":                 "-restart soon",
		"restart at zero":                      "-restart 0",
		"restart list with a gap":              "-restart 300,,700",
		"unknown policy":                       "-policy round-robin",
		"negative trace":                       "-n -1",
		"no vCPUs":                             "-vcpus 0",
		"unknown flag":                         "-crashes amd-0@600",
		"unknown machine model":                "-machines amd,foo",
		"empty machine model":                  "-machines amd,",
	}
	for name, args := range cases {
		out, err := runArgs(ctx, strings.Fields("-quick -n 10 "+args))
		if err == nil {
			t.Errorf("%s: clustersim %s ran, want a refusal; output:\n%s", name, args, out)
		} else if len(out) != 0 {
			t.Errorf("%s: refused after writing output:\n%s", name, out)
		}
	}
	// run refuses a Scenario built in code as parseFlags does.
	sc := quickCfg("first-fit", 10)
	sc.meanArrival = math.NaN()
	var out bytes.Buffer
	if err := run(ctx, sc, &out, io.Discard); err == nil || out.Len() != 0 {
		t.Errorf("run of a NaN arrival: err %v, output:\n%s", err, out.String())
	}
}

// TestProbeTickPartitionSequence pins what the probe tick does to one
// partitioned machine, line by line and at the simulated time each happens,
// at GOMAXPROCS 1 and 4: misses from the first tick inside the partition
// turn it suspect at the second miss and dead, with a failover pass, at the
// fifth; the first tick after the partition heals revives it.
// The times follow from the probe period and the thresholds alone.
func TestProbeTickPartitionSequence(t *testing.T) {
	const (
		period       = 10.0
		from, to     = 305.0, 702.0
		suspectAfter = 2 // the fleet's thresholds
		deadAfter    = 5
	)
	firstMiss := math.Ceil(from/period) * period // ticks fall on multiples of the period
	at := func(miss int) float64 { return firstMiss + float64(miss-1)*period }
	rejoin := math.Ceil(to/period) * period
	want := []string{
		fmt.Sprintf("t=%8.1f  health amd-0      healthy -> suspect", at(suspectAfter)),
		fmt.Sprintf("t=%8.1f  health amd-0      suspect -> dead", at(deadAfter)),
		fmt.Sprintf("t=%8.1f  failover amd-0", at(deadAfter)),
		fmt.Sprintf("t=%8.1f  rejoin amd-0      revived", rejoin),
		fmt.Sprintf("t=%8.1f  health amd-0      dead -> healthy", rejoin),
	}

	ctx := context.Background()
	for _, procs := range []int{1, 4} {
		cfg := quickCfg("first-fit", 120)
		cfg.probeEvery = period
		cfg.partition = []spanSpec{{name: "amd-0", from: from, to: to}}
		prev := runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		err := run(ctx, cfg, &out, io.Discard)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "t=") && (strings.Contains(line, "  health ") ||
				strings.Contains(line, "  failover ") || strings.Contains(line, "  rejoin ")) {
				got = append(got, line)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: health lines\n%s\nwant %d lines starting\n%s",
				procs, strings.Join(got, "\n"), len(want), strings.Join(want, "\n"))
		}
		for i := range want {
			if !strings.HasPrefix(got[i], want[i]) {
				t.Errorf("GOMAXPROCS %d: line %d = %q, want prefix %q", procs, i, got[i], want[i])
			}
		}
	}
}
