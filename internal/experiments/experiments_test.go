package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machines"
)

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"L2/SMT", "L3", "Interconnect", "35000"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestPlacementCounts(t *testing.T) {
	var buf bytes.Buffer
	res, err := PlacementCounts(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d machines", len(res))
	}
	if res[0].Total != 13 || res[1].Total != 7 {
		t.Errorf("placement counts: AMD %d (want 13), Intel %d (want 7)", res[0].Total, res[1].Total)
	}
}

func TestFigure1Shapes(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure1(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	intel, amd := res[0], res[1]
	// Intel: single node (with SMT) beats everything else.
	best := intel.Series["1n-smt"]
	for k, v := range intel.Series {
		if k != "1n-smt" && v >= best {
			t.Errorf("Intel: %s (%.0f) >= 1n-smt (%.0f)", k, v, best)
		}
	}
	// AMD: 4 nodes without CMT sharing wins; 8 nodes buys nothing.
	if amd.Series["4n"] <= amd.Series["2n-smt"] {
		t.Error("AMD: 4n should beat 2n")
	}
	if amd.Series["8n"] > amd.Series["4n"] {
		t.Error("AMD: 8n should not beat 4n")
	}
}

func TestFigure3Categories(t *testing.T) {
	var buf bytes.Buffer
	res, err := Figure3(context.Background(), &buf, Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports six categories (§5); this reproduction's vectors
	// fall into three, and README states the divergence.
	if res.K != 3 {
		t.Fatalf("k = %d, want 3", res.K)
	}
	if res.Silhouette < 0.3 {
		t.Errorf("weak clustering: silhouette %.2f", res.Silhouette)
	}
	// kmeans (the lone SMT-lover) must not share a category with the
	// SMT-averse streamcluster.
	var kmCat, scCat int
	for c, members := range res.Members {
		for _, name := range members {
			if name == "kmeans" {
				kmCat = c
			}
			if name == "streamcluster" {
				scCat = c
			}
		}
	}
	if kmCat == scCat {
		t.Error("kmeans and streamcluster clustered together")
	}
}

func TestFigure4QuickAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	res, err := Figure4(context.Background(), &buf, machines.Intel(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	perf, hpe := res[0], res[1]
	if perf.Variant != core.PerfFeatures || hpe.Variant != core.HPEFeatures {
		t.Fatal("variant order wrong")
	}
	// Even at quick fidelity the perf-features model stays accurate.
	if perf.Mean > 12 {
		t.Errorf("perf-features MAPE %.1f%% too high", perf.Mean)
	}
	if len(perf.MAPEs) != 18 {
		t.Errorf("expected 18 workloads, got %d", len(perf.MAPEs))
	}
}

func TestTable2Claims(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Table2(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.FastSec >= r.LinuxSec {
			t.Errorf("%s: fast %.1f >= linux %.1f", r.Workload, r.FastSec, r.LinuxSec)
		}
	}
	if !strings.Contains(buf.String(), "throttled WiredTiger") {
		t.Error("throttled note missing")
	}
}

func TestVCPUsFor(t *testing.T) {
	if VCPUsFor(machines.AMD()) != 16 || VCPUsFor(machines.Intel()) != 24 {
		t.Error("paper vCPU counts wrong")
	}
}
