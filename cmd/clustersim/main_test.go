//go:build unix

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro"
)

func quickCfg(policy string, n int) simConfig {
	cfg := simConfig{
		machines: []string{"amd", "intel"},
		n:        n, vcpus: 16, seed: 1,
		meanArrival: 15, meanLife: 90,
		rebalanceEvery: 120, budget: 60, drainBelow: 0.9,
		trials: 2, trees: 8, corpus: 8,
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
	mk := func() simConfig {
		cfg := quickCfg("best-predicted", 120)
		cfg.probeEvery = 10
		cfg.crash = []eventSpec{{name: "amd-0", at: 400}}
		cfg.restart = []float64{300, 700}
		cfg.dataDir = t.TempDir()
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
	base := func() simConfig {
		cfg := quickCfg("first-fit", 120)
		cfg.probeEvery = 10
		return cfg
	}
	scenarios := map[string]func() simConfig{
		"crash": func() simConfig {
			cfg := base()
			cfg.crash = []eventSpec{{name: "amd-0", at: 300}}
			return cfg
		},
		"slow": func() simConfig {
			cfg := base()
			cfg.slow = []eventSpec{{name: "intel-1", at: 300}}
			return cfg
		},
		"partition": func() simConfig {
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

// TestFaultFlagsThatWouldDoNothingAreRefused: faults act through health
// probes, so a fault with probing off, or one naming a machine the fleet
// does not have, is an error before anything trains — not a scenario line
// announcing a fault that never happens.
func TestFaultFlagsThatWouldDoNothingAreRefused(t *testing.T) {
	ctx := context.Background()
	cases := map[string]func(*simConfig){
		"crash without probes": func(c *simConfig) { c.crash = []eventSpec{{name: "amd-0", at: 600}} },
		"slow without probes":  func(c *simConfig) { c.slow = []eventSpec{{name: "intel-1", at: 300}} },
		"partition without probes": func(c *simConfig) {
			c.partition = []spanSpec{{name: "amd-0", from: 300, to: 700}}
		},
		"unknown crash machine without probes": func(c *simConfig) { c.crash = []eventSpec{{name: "amd-7", at: 1}} },
		"unknown slow machine": func(c *simConfig) {
			c.probeEvery = 10
			c.slow = []eventSpec{{name: "intel-0", at: 1}}
		},
		"unknown partition machine": func(c *simConfig) {
			c.probeEvery = 10
			c.partition = []spanSpec{{name: "nope", from: 1, to: 2}}
		},
	}
	for name, edit := range cases {
		cfg := quickCfg("first-fit", 10)
		edit(&cfg)
		var out bytes.Buffer
		if err := run(ctx, cfg, &out, io.Discard); err == nil {
			t.Errorf("%s: run returned nil, want an error; output:\n%s", name, out.String())
		} else if out.Len() != 0 {
			t.Errorf("%s: refused after writing output:\n%s", name, out.String())
		}
	}
}

// TestProbeTickPartitionSequence pins what the probe tick does to one
// partitioned machine, line by line and at the simulated time each happens,
// at GOMAXPROCS 1 and 4: misses from the first tick inside the partition
// turn it suspect at the SuspectAfter-th miss and dead, with a failover pass,
// at the DeadAfter-th; the first tick after the partition heals revives it.
// The times follow from the probe period and the thresholds alone.
func TestProbeTickPartitionSequence(t *testing.T) {
	const (
		period       = 10.0
		from, to     = 305.0, 702.0
		suspectAfter = 2 // fleet.HealthConfig defaults, which clustersim uses
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
