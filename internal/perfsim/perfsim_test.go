package perfsim

import (
	"math"
	"testing"

	"repro/internal/concern"
	"repro/internal/machines"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// pin returns the thread assignment for an important placement by its
// (nodes, L2 score) identity.
func pin(t *testing.T, m machines.Machine, v int, nodes topology.NodeSet, l2 int) []topology.ThreadID {
	t.Helper()
	spec := concern.FromMachine(m)
	threads, err := placement.Pin(spec, placement.Placement{Nodes: nodes, PerNodeScores: []int{l2}}, v)
	if err != nil {
		t.Fatal(err)
	}
	return threads
}

func testWorkload() Workload {
	return Workload{
		Name: "test", BaselineOps: 50e3, WorkingSetMB: 60,
		MemIntensity: 0.6, BWPerVCPU: 800, CommIntensity: 0.4,
		ICPerVCPU: 200, SMTFactor: 0.85, CacheCoop: 0.1,
	}
}

func TestComputeAttrsIntelSingleNode(t *testing.T) {
	m := machines.Intel()
	threads := pin(t, m, 24, topology.NewNodeSet(0), 12)
	a, err := ComputeAttrs(m, threads)
	if err != nil {
		t.Fatal(err)
	}
	if a.VCPUs != 24 || a.NumNodes != 1 || a.UsedL2 != 12 || a.UsedL3 != 1 {
		t.Fatalf("attrs = %+v", a)
	}
	if a.SMTShare != 2 {
		t.Errorf("SMTShare = %v, want 2 (hyperthread pairs)", a.SMTShare)
	}
	if a.AggL3MB != 30 {
		t.Errorf("AggL3MB = %v, want 30", a.AggL3MB)
	}
	if a.DRAMBWMBs != 25000 {
		t.Errorf("DRAMBWMBs = %v, want 25000", a.DRAMBWMBs)
	}
	if a.ICBWMBs != 0 {
		t.Errorf("ICBWMBs = %v, want 0 for one node", a.ICBWMBs)
	}
	if a.Imbalance != 1 {
		t.Errorf("Imbalance = %v, want 1", a.Imbalance)
	}
	// All 24 vCPUs on one node: pairs share either a core (25ns) or the
	// L3 (70ns); mean must be strictly between.
	if a.AvgLatNS <= 25 || a.AvgLatNS >= 70 {
		t.Errorf("AvgLatNS = %v, want within (25, 70)", a.AvgLatNS)
	}
}

func TestComputeAttrsAMDSpread(t *testing.T) {
	m := machines.AMD()
	threads := pin(t, m, 16, topology.FullNodeSet(8), 16)
	a, err := ComputeAttrs(m, threads)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes != 8 || a.UsedL2 != 16 || a.UsedL3 != 8 {
		t.Fatalf("attrs = %+v", a)
	}
	if a.SMTShare != 1 {
		t.Errorf("SMTShare = %v, want 1 (no CMT sharing)", a.SMTShare)
	}
	if a.AggL3MB != 64 {
		t.Errorf("AggL3MB = %v, want 64", a.AggL3MB)
	}
	if a.ICBWMBs != 35000 {
		t.Errorf("ICBWMBs = %v, want 35000", a.ICBWMBs)
	}
}

func TestComputeAttrsErrors(t *testing.T) {
	m := machines.AMD()
	if _, err := ComputeAttrs(m, nil); err == nil {
		t.Error("empty assignment accepted")
	}
	if _, err := ComputeAttrs(m, []topology.ThreadID{0, 0}); err == nil {
		t.Error("duplicate thread accepted")
	}
	if _, err := ComputeAttrs(m, []topology.ThreadID{9999}); err == nil {
		t.Error("out-of-range thread accepted")
	}
}

func TestComputeAttrsImbalance(t *testing.T) {
	m := machines.AMD()
	// 3 threads on node 0, 1 thread on node 1: max 3 / mean 2 = 1.5.
	threads := []topology.ThreadID{0, 1, 2, 8}
	a, err := ComputeAttrs(m, threads)
	if err != nil {
		t.Fatal(err)
	}
	if a.Imbalance != 1.5 {
		t.Errorf("Imbalance = %v, want 1.5", a.Imbalance)
	}
}

// Synthetic attrs for direct model probing.
func baseAttrs() Attrs {
	return Attrs{
		VCPUs: 16, NumNodes: 4, UsedL2: 16, UsedL3: 4,
		SMTShare: 1, L3ShareAvg: 4, AggL3MB: 32, DRAMBWMBs: 48000,
		ICBWMBs: 9000, AvgLatNS: 180, Imbalance: 1,
		coreSpeed: 1, latSameL2NS: 45,
	}
}

func TestPerfMonotonicity(t *testing.T) {
	w := testWorkload()
	base := Perf(w, baseAttrs(), ExclusiveShares())
	if base <= 0 {
		t.Fatal("non-positive performance")
	}

	// More aggregate L3 never hurts.
	a := baseAttrs()
	a.AggL3MB *= 2
	if Perf(w, a, ExclusiveShares()) < base {
		t.Error("more L3 reduced performance")
	}
	// Higher communication latency never helps.
	a = baseAttrs()
	a.AvgLatNS += 100
	if Perf(w, a, ExclusiveShares()) > base {
		t.Error("higher latency increased performance")
	}
	// More DRAM bandwidth never hurts.
	a = baseAttrs()
	a.DRAMBWMBs *= 2
	if Perf(w, a, ExclusiveShares()) < base {
		t.Error("more DRAM bandwidth reduced performance")
	}
	// SMT sharing hurts a workload with SMTFactor < 1 ...
	a = baseAttrs()
	a.SMTShare = 2
	if Perf(w, a, ExclusiveShares()) >= base {
		t.Error("SMT sharing did not hurt an SMT-averse workload")
	}
	// ... and helps one with SMTFactor > 1.
	w2 := w
	w2.SMTFactor = 1.1
	if Perf(w2, a, ExclusiveShares()) <= Perf(w2, baseAttrs(), ExclusiveShares()) {
		t.Error("SMT sharing did not help an SMT-friendly workload")
	}
	// Load imbalance hurts.
	a = baseAttrs()
	a.Imbalance = 1.5
	if Perf(w, a, ExclusiveShares()) >= base {
		t.Error("imbalance did not hurt")
	}
	// Reduced resource shares hurt.
	if Perf(w, baseAttrs(), Shares{L3: 0.5, DRAM: 0.5, IC: 0.5}) >= base {
		t.Error("halved shares did not hurt")
	}
}

func TestPerfScalesWithCoreSpeed(t *testing.T) {
	w := testWorkload()
	w.MemIntensity, w.BWPerVCPU, w.CommIntensity, w.ICPerVCPU = 0, 0, 0, 0
	a := baseAttrs()
	base := Perf(w, a, ExclusiveShares())
	a.coreSpeed = 2
	if got := Perf(w, a, ExclusiveShares()); math.Abs(got-2*base) > 1e-6*base {
		t.Errorf("compute-bound perf at 2x speed = %v, want %v", got, 2*base)
	}
}

// TestFigure1Shapes is the reproduction's Fig. 1 validation: the WiredTiger
// workload must prefer a single node on Intel and four nodes (without CMT
// sharing) on AMD, with eight nodes buying nothing.
func TestFigure1Shapes(t *testing.T) {
	wt := wtbtree(t)

	intel := machines.Intel()
	perfAt := func(m machines.Machine, v int, nodes topology.NodeSet, l2 int) float64 {
		p, err := Run(m, wt, pin(t, m, v, nodes, l2), 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	one := perfAt(intel, 24, topology.NewNodeSet(0), 12)
	two := perfAt(intel, 24, topology.NewNodeSet(0, 1), 24)
	four := perfAt(intel, 24, topology.FullNodeSet(4), 24)
	if !(one > two && two > four) {
		t.Errorf("Intel WTbtree: want 1 node > 2 nodes > 4 nodes, got %.0f / %.0f / %.0f", one, two, four)
	}

	amd := machines.AMD()
	two = perfAt(amd, 16, topology.NewNodeSet(0, 1), 8)
	fourSMT := perfAt(amd, 16, topology.NewNodeSet(2, 3, 4, 5), 8)
	fourNoSMT := perfAt(amd, 16, topology.NewNodeSet(2, 3, 4, 5), 16)
	eightNoSMT := perfAt(amd, 16, topology.FullNodeSet(8), 16)
	if fourNoSMT <= two {
		t.Errorf("AMD WTbtree: 4 nodes no-SMT (%.0f) must beat 2 nodes (%.0f)", fourNoSMT, two)
	}
	if fourNoSMT <= fourSMT {
		t.Errorf("AMD WTbtree: no-SMT (%.0f) must beat SMT (%.0f) at 4 nodes", fourNoSMT, fourSMT)
	}
	// "using eight nodes does not buy you better performance"
	if eightNoSMT > fourNoSMT {
		t.Errorf("AMD WTbtree: 8 nodes (%.0f) must not beat 4 nodes (%.0f)", eightNoSMT, fourNoSMT)
	}
	// 4 nodes with SMT is not meaningfully better than 2 nodes.
	if fourSMT > two*1.1 {
		t.Errorf("AMD WTbtree: 4 nodes with SMT (%.0f) should not clearly beat 2 nodes (%.0f)", fourSMT, two)
	}
}

// wtbtree fetches the WTbtree descriptor without importing the workloads
// package (which would create an import cycle in tests).
func wtbtree(t *testing.T) Workload {
	t.Helper()
	return Workload{
		Name: "WTbtree", BaselineOps: 70e3, WorkingSetMB: 25,
		MemIntensity: 0.45, BWPerVCPU: 650, CommIntensity: 1.40,
		ICPerVCPU: 250, SMTFactor: 0.84, CacheCoop: 0.12,
		MemoryGB: 36.3, PageCacheGB: 30.0, Processes: 1, ReportsOnline: true,
	}
}

func TestRunDeterministicNoise(t *testing.T) {
	m := machines.AMD()
	w := testWorkload()
	threads := pin(t, m, 16, topology.NewNodeSet(2, 3, 4, 5), 16)
	a1, err := Run(m, w, threads, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := Run(m, w, threads, 0)
	if a1 != a2 {
		t.Error("same trial produced different results")
	}
	b, _ := Run(m, w, threads, 1)
	if a1 == b {
		t.Error("different trials produced identical results")
	}
	// Noise is small: within 10% of the deterministic value.
	attrs, _ := ComputeAttrs(m, threads)
	det := Perf(w, attrs, ExclusiveShares())
	if math.Abs(a1-det)/det > 0.1 {
		t.Errorf("noise too large: %v vs deterministic %v", a1, det)
	}
}

func TestSimulateSharedInterference(t *testing.T) {
	m := machines.AMD()
	w := testWorkload()
	// Tenant A alone on nodes {0,1,2,3}.
	ta := Tenant{W: w, Threads: pin(t, m, 16, topology.NewNodeSet(0, 1, 2, 3), 16)}
	alone, err := SimulateShared(m, []Tenant{ta}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same nodes shared with an identical tenant on the CMT siblings.
	spec := concern.FromMachine(m)
	tbThreads, err := placement.Pin(spec, placement.Placement{
		Nodes: topology.NewNodeSet(4, 5, 6, 7), PerNodeScores: []int{16}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	_ = tbThreads
	// Overlap: tenant B pinned to the *same* node set's remaining threads.
	var tb Tenant
	tb.W = w
	used := map[topology.ThreadID]bool{}
	for _, id := range ta.Threads {
		used[id] = true
	}
	for _, th := range m.Topo.Threads {
		if len(tb.Threads) == 16 {
			break
		}
		if !used[th.ID] && topology.NewNodeSet(0, 1, 2, 3).Contains(th.Node) {
			tb.Threads = append(tb.Threads, th.ID)
		}
	}
	shared, err := SimulateShared(m, []Tenant{ta, tb}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shared[0] >= alone[0] {
		t.Errorf("sharing nodes did not hurt: alone %.0f, shared %.0f", alone[0], shared[0])
	}
	// Tenants on disjoint node sets (no shared interconnect concern here)
	// do not interfere.
	tc := Tenant{W: w, Threads: pin(t, m, 16, topology.NewNodeSet(4, 5, 6, 7), 16)}
	disjoint, err := SimulateShared(m, []Tenant{ta, tc}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(disjoint[0]-alone[0])/alone[0] > 0.05 {
		t.Errorf("disjoint tenant changed performance: alone %.0f, disjoint %.0f", alone[0], disjoint[0])
	}
}

func TestLinuxMapProperties(t *testing.T) {
	m := machines.Intel()
	rng := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		threads := LinuxMap(m, 24, nil, rng)
		if len(threads) != 24 {
			t.Fatalf("mapped %d threads", len(threads))
		}
		seen := map[topology.ThreadID]bool{}
		cores := map[topology.CoreID]int{}
		for _, id := range threads {
			if seen[id] {
				t.Fatal("duplicate thread in Linux mapping")
			}
			seen[id] = true
			cores[m.Topo.Threads[id].Core]++
		}
		// 24 threads on 48 idle cores: the balancer uses one thread per
		// core before SMT siblings.
		for c, n := range cores {
			if n > 1 {
				t.Fatalf("core %d got %d threads with idle cores available", c, n)
			}
		}
	}
}

func TestLinuxMapRespectsBusy(t *testing.T) {
	m := machines.AMD()
	rng := xrand.New(3)
	busy := map[topology.ThreadID]bool{}
	for i := 0; i < 48; i++ {
		busy[topology.ThreadID(i)] = true
	}
	threads := LinuxMap(m, 16, busy, rng)
	if len(threads) != 16 {
		t.Fatalf("mapped %d threads", len(threads))
	}
	for _, id := range threads {
		if busy[id] {
			t.Fatal("mapped a busy thread")
		}
	}
	// Machine full: no mapping possible.
	for i := 0; i < m.Topo.TotalThreads(); i++ {
		busy[topology.ThreadID(i)] = true
	}
	if got := LinuxMap(m, 1, busy, rng); got != nil {
		t.Error("mapping on a full machine should fail")
	}
}

func TestHPECounts(t *testing.T) {
	intel := machines.Intel()
	amd := machines.AMD()
	if n := len(HPENames(intel)); n != 41 {
		t.Errorf("Intel HPE count = %d, want 41 (paper §5)", n)
	}
	if n := len(HPENames(amd)); n != 25 {
		t.Errorf("AMD HPE count = %d, want 25 (paper §5)", n)
	}
}

// hpes is HPEsAttrs over the attributes of threads, as Collect derives them.
func hpes(t *testing.T, m machines.Machine, w Workload, threads []topology.ThreadID, trial int) []float64 {
	t.Helper()
	a, err := ComputeAttrs(m, threads)
	if err != nil {
		t.Fatal(err)
	}
	v, err := HPEsAttrs(m, w, a, trial)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHPEValues(t *testing.T) {
	m := machines.Intel()
	w := testWorkload()
	threads := pin(t, m, 24, topology.NewNodeSet(0, 1), 24)
	v1 := hpes(t, m, w, threads, 0)
	if len(v1) != 41 {
		t.Fatalf("got %d values", len(v1))
	}
	for i, v := range v1 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("counter %d (%s) = %v", i, HPENames(m)[i], v)
		}
	}
	// Deterministic per trial.
	v2 := hpes(t, m, w, threads, 0)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("HPEs not deterministic")
		}
	}
	v3 := hpes(t, m, w, threads, 1)
	same := true
	for i := range v1 {
		if v1[i] != v3[i] {
			same = false
		}
	}
	if same {
		t.Error("different trials gave identical HPEs")
	}
}

func TestHPEBackendStallConfounded(t *testing.T) {
	// Two workloads — one memory-bound, one latency-bound — are tuned to
	// produce similar backend stalls in a spread placement, illustrating
	// why single-placement HPEs have poor predictive power (§6).
	m := machines.Intel()
	threads := pin(t, m, 24, topology.FullNodeSet(4), 24)
	memBound := Workload{Name: "mem", BaselineOps: 50e3, WorkingSetMB: 200,
		MemIntensity: 0.8, BWPerVCPU: 900, SMTFactor: 0.9}
	latBound := Workload{Name: "lat", BaselineOps: 50e3, WorkingSetMB: 10,
		CommIntensity: 1.1, BWPerVCPU: 200, SMTFactor: 0.9}
	idx := -1
	for i, n := range HPENames(m) {
		if n == "stall_backend_frac" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("stall_backend_frac missing")
	}
	a := hpes(t, m, memBound, threads, 0)
	b := hpes(t, m, latBound, threads, 0)
	ratio := a[idx] / b[idx]
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("backend stalls should be confounded (similar magnitude), got %v vs %v", a[idx], b[idx])
	}
}

// TestUnknownCounterError: the error HPEsAttrs returns for a counter name it has
// no value for names the counter.
func TestUnknownCounterError(t *testing.T) {
	if got, want := errUnknownCounter("llc_misses").Error(), "perfsim: unknown counter llc_misses"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}
