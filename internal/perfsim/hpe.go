package perfsim

import (
	"math"

	"repro/internal/machines"
	"repro/internal/xrand"
)

// HPE synthesis. The paper's §5-§6 baseline model feeds hardware
// performance events observed in a single placement into the regressor.
// This file synthesizes those counters from the simulator's internals with
// the same information limits real counters have:
//
//   - backend stall cycles mix cache-miss stalls and communication stalls
//     into one number, so latency sensitivity cannot be separated from
//     memory intensity (the paper's WTbtree example);
//   - whether the working set would fit into a *different* number of L3
//     caches is not observable from one placement's miss rate;
//   - many counters are only loosely related to placement response, and
//     all carry measurement noise.

// hpeNoiseSD is the per-counter relative measurement noise.
const hpeNoiseSD = 0.06

// HPENames returns the counter names available on a machine, in order.
// Mirroring the paper's setup, the Intel machine exposes 41 plausible
// counters and the AMD machine 25.
func HPENames(m machines.Machine) []string {
	names := allHPENames()
	if m.Topo.ThreadsPerCore == 1 { // AMD-style machine
		return names[:25]
	}
	return names
}

func allHPENames() []string {
	return []string{
		// Core execution.
		"instructions", "cycles", "ipc", "uops_issued", "uops_retired",
		// Cache hierarchy.
		"l1d_miss_rate", "l2_miss_rate", "l3_miss_rate", "l3_occupancy_mb",
		"llc_lines_in", "llc_lines_out",
		// Memory system.
		"dram_bw_read_mbs", "dram_bw_write_mbs", "dram_bw_util",
		"remote_access_ratio", "mem_stall_frac",
		// TLB and paging.
		"dtlb_miss_rate", "itlb_miss_rate", "page_walks",
		// Pipeline stalls (deliberately confounded: backend stalls mix
		// memory and communication stalls).
		"stall_frontend_frac", "stall_backend_frac", "resource_stalls",
		// Branching.
		"branch_mpki", "branch_miss_ratio",
		// SMT / core sharing.
		"smt_active_ratio",
		// Interconnect.
		// (index 25: counters below exist only on the Intel machine)
		"qpi_tx_mbs", "qpi_rx_mbs", "qpi_util",
		// Prefetchers.
		"pf_l2_issued", "pf_l2_useless", "pf_llc_issued",
		// Floating point / vector.
		"fp_scalar_ops", "fp_vector_ops", "fp_ratio",
		// Frontend detail.
		"icache_miss_rate", "decode_stall_frac",
		// Energy/frequency proxies.
		"avg_frequency_ghz", "c1_residency", "pkg_power_w",
		// OS-level.
		"context_switches", "migrations",
	}
}

// HPEsAttrs synthesizes the counter readings for workload w running on a
// placement, from the attributes ComputeAttrs derived for its threads.
// Identical (workload, placement, trial) triples return identical readings.
func HPEsAttrs(m machines.Machine, w Workload, a Attrs, trial int) ([]float64, error) {
	names := HPENames(m)

	// Model internals in this placement.
	miss := 0.0
	if w.WorkingSetMB > 0 {
		miss = math.Max(0, 1-a.AggL3MB/w.WorkingSetMB)
	}
	demand := float64(a.VCPUs) * w.BWPerVCPU * (0.25 + 0.75*miss) * a.coreSpeed
	bwUtil := math.Min(1, demand/math.Max(1, a.DRAMBWMBs))
	commStall := w.CommIntensity * math.Max(0, a.AvgLatNS-a.latSameL2NS) / latRefNS
	memStall := w.MemIntensity * missPenalty * miss
	remote := 0.0
	if a.NumNodes > 1 {
		remote = float64(a.NumNodes-1) / float64(a.NumNodes) * (0.3 + 0.7*w.MemIntensity)
	}
	perf := Perf(w, a, ExclusiveShares())
	smtActive := a.SMTShare - 1

	// Counters are measured in hardware units, not application units: the
	// instructions executed per application-level operation vary wildly
	// across programs and are unknown to an observer, so instruction-based
	// counters carry a per-workload scale that hides the mapping from IPC
	// to throughput. Similarly, the shape of the miss-ratio curve depends
	// on access patterns and associativity, so the observed miss rate is a
	// workload-specific distortion of the architectural one — a single
	// placement's reading cannot be inverted into a working-set size.
	wshape := xrand.New(xrand.Mix(xrand.HashString(w.Name), 0x51A9E))
	instrPerOp := 0.5 + 3.0*wshape.Float64() // hardware instructions per app-level op
	missExp := 0.6 + 0.8*wshape.Float64()    // miss-curve shape distortion
	occDistort := 0.6 + 0.8*wshape.Float64() // occupancy sampling distortion
	obsMiss := math.Pow(miss, missExp)
	tlbDistort := 0.3 + 1.4*wshape.Float64()  // page locality is workload-specific
	remoteDistort := 0.5 + wshape.Float64()   // access interleaving is workload-specific
	l1Coeff := 0.04 + 0.12*wshape.Float64()   // L1 behaviour barely tracks L3 pressure
	lineDistort := 0.7 + 0.6*wshape.Float64() // cacheline utilisation varies
	writeFrac := 0.2 + 0.4*wshape.Float64()   // read/write mix varies
	instructions := perf * instrPerOp
	cycles := float64(a.VCPUs) * 2.1e9 * a.coreSpeed

	// Workload "personality" for counters with no placement response:
	// stable per workload, useless as predictors — exactly the kind of
	// plausible-but-irrelevant counter real machines offer in abundance.
	wrng := xrand.New(xrand.Mix(xrand.HashString(w.Name), 0xC0FFEE))
	personality := func() float64 { return wrng.Float64() }

	vals := map[string]float64{
		"instructions":        instructions,
		"cycles":              cycles,
		"ipc":                 instructions / cycles,
		"uops_issued":         (1.1 + 0.3*personality()) * instructions,
		"uops_retired":        (1.0 + 0.2*personality()) * instructions,
		"l1d_miss_rate":       0.02 + l1Coeff*w.MemIntensity + 0.02*personality(),
		"l2_miss_rate":        0.05 + 0.5*w.MemIntensity*(0.4+0.6*obsMiss),
		"l3_miss_rate":        obsMiss,
		"l3_occupancy_mb":     occDistort * math.Min(w.WorkingSetMB, a.AggL3MB),
		"llc_lines_in":        lineDistort * demand / 64,
		"llc_lines_out":       writeFrac * lineDistort * demand / 64,
		"dram_bw_read_mbs":    (1 - writeFrac) * demand,
		"dram_bw_write_mbs":   writeFrac * demand,
		"dram_bw_util":        bwUtil,
		"remote_access_ratio": math.Min(1, remoteDistort*remote),
		// Memory stalls include remote cache-line transfers, i.e.
		// communication: a single placement cannot separate the two
		// (the paper's WTbtree argument).
		"mem_stall_frac":      (memStall + 0.8*commStall) / (1 + memStall + 0.8*commStall),
		"dtlb_miss_rate":      tlbDistort * (0.001 + 0.01*math.Min(1, w.WorkingSetMB/512)),
		"itlb_miss_rate":      0.0005 + 0.002*personality(),
		"page_walks":          tlbDistort * (0.001 + 0.01*math.Min(1, w.WorkingSetMB/512)) * float64(a.VCPUs) * 1e6,
		"stall_frontend_frac": 0.05 + 0.15*smtActive + 0.05*personality(),
		// The confounded counter: memory and communication stalls merge.
		"stall_backend_frac": (memStall + commStall) / (1 + memStall + commStall),
		"resource_stalls":    (memStall + commStall + 0.2*smtActive) * 1e6,
		"branch_mpki":        1 + 20*personality(),
		"branch_miss_ratio":  0.01 + 0.08*personality(),
		"smt_active_ratio":   smtActive,
		"qpi_tx_mbs":         float64(a.VCPUs) * w.ICPerVCPU * remote,
		"qpi_rx_mbs":         float64(a.VCPUs) * w.ICPerVCPU * remote * 0.9,
		"qpi_util":           math.Min(1, float64(a.VCPUs)*w.ICPerVCPU*remote/math.Max(1, a.ICBWMBs)),
		"pf_l2_issued":       (0.5 + personality()) * demand / 64,
		"pf_l2_useless":      (0.1 + 0.3*personality()) * demand / 64,
		"pf_llc_issued":      (0.3 + 0.5*personality()) * demand / 64,
		"fp_scalar_ops":      personality() * 1e6,
		"fp_vector_ops":      personality() * 1e6,
		"fp_ratio":           personality(),
		"icache_miss_rate":   0.001 + 0.01*personality(),
		"decode_stall_frac":  0.02 + 0.1*smtActive + 0.03*personality(),
		"avg_frequency_ghz":  2.1*a.coreSpeed - 0.2*smtActive,
		"c1_residency":       math.Max(0, 0.1-0.1*bwUtil),
		"pkg_power_w":        80 + 60*bwUtil + 20*smtActive,
		"context_switches":   (1 + 50*personality()) * 1e3,
		"migrations":         (1 + 10*personality()) * 1e2,
	}

	rng := xrand.New(xrand.Mix(
		xrand.HashString(w.Name), uint64(a.Nodes), uint64(a.UsedL2),
		uint64(trial), 0x48504553, // "HPES"
	))
	out := make([]float64, len(names))
	for i, n := range names {
		v, ok := vals[n]
		if !ok {
			return nil, errUnknownCounter(n)
		}
		out[i] = v * (1 + hpeNoiseSD*rng.NormFloat64())
	}
	return out, nil
}

type errUnknownCounter string

func (e errUnknownCounter) Error() string { return "perfsim: unknown counter " + string(e) }
