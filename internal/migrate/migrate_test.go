package migrate

import (
	"context"
	"testing"

	"repro/internal/workloads"
)

func profile(t *testing.T, name string) Profile {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	return ProfileFor(w, 16)
}

func run(t *testing.T, name string, mech Mechanism) *Result {
	t.Helper()
	r, err := Run(context.Background(), profile(t, name), mech)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFastBeatsLinuxEverywhere is Table 2's headline: the improved
// mechanism is faster for every workload.
func TestFastBeatsLinuxEverywhere(t *testing.T) {
	for _, w := range workloads.Paper() {
		fast := run(t, w.Name, Fast)
		linux := run(t, w.Name, DefaultLinux)
		if fast.Seconds >= linux.Seconds {
			t.Errorf("%s: fast %.2fs >= linux %.2fs", w.Name, fast.Seconds, linux.Seconds)
		}
	}
}

// TestOrderOfMagnitudeForMultiProcess checks the paper's strongest rows:
// Linux is an order of magnitude slower for Postgres and Spark ("38x
// faster for Spark", per-task cpuset overhead for TPC-C).
func TestOrderOfMagnitudeForMultiProcess(t *testing.T) {
	for _, tc := range []struct {
		name     string
		minRatio float64
	}{
		{"postgres-tpcc", 25},
		{"postgres-tpch", 10},
		{"spark-cc", 20},
		{"spark-pr-lj", 20},
	} {
		fast := run(t, tc.name, Fast)
		linux := run(t, tc.name, DefaultLinux)
		if ratio := linux.Seconds / fast.Seconds; ratio < tc.minRatio {
			t.Errorf("%s: speedup %.1fx < %.0fx", tc.name, ratio, tc.minRatio)
		}
	}
}

// TestPageCacheDominatesFastMigration: "page cache migration ... can be a
// large part of migration overhead (93% with BLAST, 75% with TPC-C and
// 62% on TPC-H)".
func TestPageCacheDominatesFastMigration(t *testing.T) {
	for _, tc := range []struct {
		name    string
		minFrac float64
	}{
		{"BLAST", 0.90},
		{"postgres-tpcc", 0.70},
		{"postgres-tpch", 0.55},
	} {
		r := run(t, tc.name, Fast)
		if frac := r.PageCacheGB / r.MovedGB; frac < tc.minFrac {
			t.Errorf("%s: page-cache fraction %.2f < %.2f", tc.name, frac, tc.minFrac)
		}
	}
}

// TestLinuxSkipsPageCache: default Linux migrates anonymous memory only.
func TestLinuxSkipsPageCache(t *testing.T) {
	r := run(t, "BLAST", DefaultLinux)
	if r.PageCacheGB != 0 {
		t.Errorf("linux moved %.1f GB of page cache", r.PageCacheGB)
	}
	p := profile(t, "BLAST")
	if r.MovedGB != p.AnonGB {
		t.Errorf("linux moved %.1f GB, want anon %.1f GB", r.MovedGB, p.AnonGB)
	}
}

// TestFastMigrationSpeed: "We are able to migrate a large amount of memory
// in a few seconds."
func TestFastMigrationSpeed(t *testing.T) {
	for _, name := range []string{"BLAST", "WTbtree", "dc.B", "postgres-tpch"} {
		r := run(t, name, Fast)
		if r.Seconds > 16 {
			t.Errorf("%s: fast migration took %.1fs", name, r.Seconds)
		}
		if r.MovedGB < 18 {
			t.Errorf("%s: moved only %.1f GB", name, r.MovedGB)
		}
	}
}

// TestThrottledWiredTiger: "the migration takes 60 seconds ... the
// overhead ... is between 3% and 6%".
func TestThrottledWiredTiger(t *testing.T) {
	r := run(t, "WTbtree", Throttled)
	if r.Seconds < 50 || r.Seconds > 70 {
		t.Errorf("throttled WTbtree took %.1fs, want ~60s", r.Seconds)
	}
	if r.OverheadPct < 3 || r.OverheadPct > 6 {
		t.Errorf("throttled overhead %.1f%%, want 3-6%%", r.OverheadPct)
	}
	// Throttled moves the page cache too.
	if r.PageCacheGB == 0 {
		t.Error("throttled migration skipped the page cache")
	}
}

// TestMigrationProportionalToMemory: "the migration overhead is
// proportional to the amount of memory used by the container".
func TestMigrationProportionalToMemory(t *testing.T) {
	small := Profile{Name: "s", AnonGB: 1, PageCacheGB: 1, Tasks: 1, RunningThreads: 16, SharedMappings: 1}
	big := Profile{Name: "b", AnonGB: 8, PageCacheGB: 8, Tasks: 1, RunningThreads: 16, SharedMappings: 1}
	rs, err := Run(context.Background(), small, Fast)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(context.Background(), big, Fast)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rb.Seconds / rs.Seconds
	if ratio < 4 || ratio > 10 {
		t.Errorf("8x memory gave %.1fx time", ratio)
	}
}

func TestPerTaskOverheadScalesLinux(t *testing.T) {
	// TPC-C's many tasks add per-task cpuset overhead under Linux.
	few := Profile{Name: "few", AnonGB: 4, Tasks: 1, RunningThreads: 16, SharedMappings: 1, HugePageFrac: 0.25}
	many := few
	many.Tasks = 64
	rf, _ := Run(context.Background(), few, DefaultLinux)
	rm, _ := Run(context.Background(), many, DefaultLinux)
	if rm.Seconds <= rf.Seconds {
		t.Error("task count did not increase Linux migration time")
	}
}

func TestWorkerScaling(t *testing.T) {
	p := Profile{Name: "x", AnonGB: 16, Tasks: 1, RunningThreads: 16, SharedMappings: 1, HugePageFrac: 0.25}
	r1, r8 := runFast(p, 1), runFast(p, 8)
	if r8.Seconds >= r1.Seconds {
		t.Errorf("8 workers (%.2fs) not faster than 1 (%.2fs)", r8.Seconds, r1.Seconds)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(context.Background(), Profile{AnonGB: -1}, Fast); err == nil {
		t.Error("negative memory accepted")
	}
	if _, err := Run(context.Background(), Profile{}, Mechanism(9)); err == nil {
		t.Error("unknown mechanism accepted")
	}
}

func TestMechanismString(t *testing.T) {
	if DefaultLinux.String() != "default-linux" || Fast.String() != "fast" || Throttled.String() != "throttled" {
		t.Error("mechanism names wrong")
	}
}

func TestProfileForDerivation(t *testing.T) {
	w, _ := workloads.ByName("postgres-tpcc")
	p := ProfileFor(w, 16)
	if p.Tasks != 64 {
		t.Errorf("tpcc tasks = %d", p.Tasks)
	}
	if p.SharedMappings < 8 {
		t.Errorf("tpcc shared mappings = %d", p.SharedMappings)
	}
	if p.AnonGB <= 0 || p.PageCacheGB != 28 {
		t.Errorf("tpcc memory split: anon %.1f cache %.1f", p.AnonGB, p.PageCacheGB)
	}
}
