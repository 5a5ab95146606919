package perfsim

import (
	"repro/internal/machines"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// noiseSD is the relative standard deviation of measurement noise applied
// to every simulated run (real throughput measurements over a few seconds
// jitter by a percent or two).
const noiseSD = 0.012

// icCoupling scales how strongly one tenant's cross-node traffic consumes
// interconnect capacity seen by other tenants on disjoint nodes.
const icCoupling = 0.45

// Run executes workload w on the given thread assignment with exclusive
// node ownership and returns its noisy throughput in operations/second.
// trial selects the noise draw; identical (workload, placement, trial)
// triples always return the same value.
//
// Run derives everything from scratch, the noise seed included, apart from
// Prepared: TestPreparedAtIsRun holds Prepare(…).At(trial) to it bit for bit.
func Run(m machines.Machine, w Workload, threads []topology.ThreadID, trial int) (float64, error) {
	a, err := ComputeAttrs(m, threads)
	if err != nil {
		return 0, err
	}
	return noisy(Perf(w, a, ExclusiveShares()), w, a, trial), nil
}

// Prepared is a memoizable exclusive-node observation: the deterministic
// part of Run (placement attributes plus the noise-free performance model)
// captured once for a (machine, workload, thread assignment) triple. Only
// the per-trial noise draw remains, so serving schedulers that observe the
// same container shape in the same probe placements thousands of times per
// second pay the O(vCPUs^2) attribute derivation once instead of per
// admission. Prepared is immutable after Prepare and safe to share.
type Prepared struct {
	perf float64 // noise-free model output
	// seed is the noise seed's trial-independent prefix,
	// xrand.Mix(xrand.HashString(w.Name), nodes, usedL2): Mix folds left,
	// so Mix2(seed, trial) is the seed Run mixes from all four words.
	seed uint64
}

// Prepare derives the trial-independent part of Run for one observation:
// ComputeAttrs followed by PrepareAttrs.
func Prepare(m machines.Machine, w Workload, threads []topology.ThreadID) (Prepared, error) {
	a, err := ComputeAttrs(m, threads)
	if err != nil {
		return Prepared{}, err
	}
	return PrepareAttrs(w, a), nil
}

// PrepareAttrs is Prepare from a placement's already derived attributes,
// for callers (training collection) that observe many workloads in the
// same placement and derive its attributes once.
func PrepareAttrs(w Workload, a Attrs) Prepared {
	return Prepared{
		perf: Perf(w, a, ExclusiveShares()),
		seed: xrand.Mix(xrand.HashString(w.Name), uint64(a.Nodes), uint64(a.UsedL2)),
	}
}

// At returns the observation for one noise trial, bit-identical to Run with
// the same (machine, workload, threads, trial): the seed is Run's, folded
// from the stored prefix, and the prepared perf is the same float the model
// produces inside Run.
func (p Prepared) At(trial int) float64 {
	return applyNoise(p.perf, xrand.Mix2(p.seed, uint64(trial)))
}

// noisy applies deterministic multiplicative measurement noise, seeded by
// the fields of w and a that identify the observation and by the trial.
func noisy(perf float64, w Workload, a Attrs, trial int) float64 {
	return applyNoise(perf, xrand.Mix(
		xrand.HashString(w.Name),
		uint64(a.Nodes),
		uint64(a.UsedL2),
		uint64(trial),
	))
}

// applyNoise is the shared noise draw: one seeded normal deviate scaled by
// noiseSD. Every observation path (Run, Prepared.At, SimulateShared) funnels
// through it so cached and recomputed observations stay bit-identical.
func applyNoise(perf float64, seed uint64) float64 {
	rng := xrand.New(seed)
	return perf * (1 + noiseSD*rng.NormFloat64())
}

// Tenant is one container participating in a shared-machine simulation.
type Tenant struct {
	W       Workload
	Threads []topology.ThreadID
}

// SimulateShared runs several containers on one machine at once and
// returns each tenant's noisy throughput. Tenants whose threads land on
// the same NUMA nodes split that node's L3 capacity and DRAM bandwidth in
// proportion to their thread counts; tenants sharing an L2/SMT group
// experience the group's total occupancy. This models the §7 scenario
// where the Aggressive policy lets containers interfere.
func SimulateShared(m machines.Machine, tenants []Tenant, trial int) ([]float64, error) {
	t := m.Topo

	// Per-node and per-L2-group occupancy across all tenants.
	nodeTotal := map[topology.NodeID]int{}
	l2Total := map[topology.DomainID]int{}
	for _, tn := range tenants {
		for _, id := range tn.Threads {
			th := t.Threads[id]
			nodeTotal[th.Node]++
			l2Total[th.L2]++
		}
	}

	// Cross-tenant interconnect pressure: even disjoint node sets share
	// HT/QPI links (the paper's §3 caveat that nodes interfere "if those
	// nodes share the interconnect"). Each tenant's interconnect supply is
	// reduced by the fraction of machine-wide link capacity consumed by
	// the other tenants' cross-node traffic.
	capacity := float64(m.IC.Measure(topology.FullNodeSet(t.NumNodes)))
	traffic := make([]float64, len(tenants))
	var totalTraffic float64
	for i, tn := range tenants {
		nodes := map[topology.NodeID]bool{}
		for _, id := range tn.Threads {
			nodes[t.Threads[id].Node] = true
		}
		if len(nodes) > 1 {
			remote := float64(len(nodes)-1) / float64(len(nodes))
			traffic[i] = float64(len(tn.Threads)) * tn.W.ICPerVCPU * remote * t.CoreSpeed
		}
		totalTraffic += traffic[i]
	}

	out := make([]float64, len(tenants))
	for i, tn := range tenants {
		a, err := ComputeAttrs(m, tn.Threads)
		if err != nil {
			return nil, err
		}

		// Thread-proportional share of each node this tenant touches.
		// Nodes are visited in ascending ID order so the float sum is
		// deterministic (map iteration order would jitter the last ULP).
		var nodeMine [64]int
		var used topology.NodeSet
		for _, id := range tn.Threads {
			n := t.Threads[id].Node
			nodeMine[n]++
			used = used.Add(n)
		}
		var shareSum float64
		used.ForEach(func(n topology.NodeID) {
			shareSum += float64(nodeMine[n]) / float64(nodeTotal[n])
		})
		share := shareSum / float64(used.Len()) // mean share across used nodes

		// SMT occupancy including foreign threads: recompute the average
		// threads per used L2 group counting everyone in the group.
		var occ float64
		for _, id := range tn.Threads {
			occ += float64(l2Total[t.Threads[id].L2])
		}
		a.SMTShare = occ / float64(len(tn.Threads))

		icShare := share
		if capacity > 0 {
			// Routed traffic only partially overlaps any given tenant's
			// links, so foreign traffic costs less than its full volume.
			foreign := icCoupling * (totalTraffic - traffic[i]) / capacity
			if cross := 1 - foreign; cross < icShare {
				icShare = cross
			}
			if icShare < 0.2 {
				icShare = 0.2
			}
		}
		shares := Shares{L3: share, DRAM: share, IC: icShare}
		out[i] = noisy(Perf(tn.W, a, shares), tn.W, a, trial*31+i)
	}
	return out, nil
}

// LinuxMap simulates the vCPU-to-thread mapping an unpinned Linux kernel
// produces for a container of v vCPUs on an otherwise configured machine
// (§7: "Neither Conservative nor Aggressive pin vCPUs to cores, allowing
// Linux to perform the mapping in the way it wishes, and possibly creating
// unneeded contention"). The load balancer packs one runnable thread per
// idle core before using SMT siblings, but it is placement-naive: the cores
// it picks are effectively arbitrary with respect to nodes and cache
// groups. busy marks hardware threads already taken by other containers.
func LinuxMap(m machines.Machine, v int, busy map[topology.ThreadID]bool, rng *xrand.SplitMix64) []topology.ThreadID {
	t := m.Topo
	coreLoad := map[topology.CoreID]int{}
	for id, b := range busy {
		if b {
			coreLoad[t.Threads[id].Core]++
		}
	}
	// Candidate threads grouped by how loaded their core already is:
	// prefer fully idle cores, then lightly loaded ones.
	var out []topology.ThreadID
	taken := map[topology.ThreadID]bool{}
	for len(out) < v {
		// Collect free threads at the minimum current core load.
		best := -1
		var candidates []topology.ThreadID
		for _, th := range t.Threads {
			if busy[th.ID] || taken[th.ID] {
				continue
			}
			load := coreLoad[th.Core]
			if best == -1 || load < best {
				best = load
				candidates = candidates[:0]
			}
			if load == best {
				candidates = append(candidates, th.ID)
			}
		}
		if len(candidates) == 0 {
			return nil // machine full
		}
		// CFS has wake affinity: related threads usually stay near nodes
		// the container already occupies, but the balancer still leaks
		// them across the machine.
		if len(out) > 0 && rng.Float64() < 0.7 {
			usedNodes := map[topology.NodeID]bool{}
			for _, id := range out {
				usedNodes[t.Threads[id].Node] = true
			}
			var near []topology.ThreadID
			for _, id := range candidates {
				if usedNodes[t.Threads[id].Node] {
					near = append(near, id)
				}
			}
			if len(near) > 0 {
				candidates = near
			}
		}
		pick := candidates[rng.Intn(len(candidates))]
		out = append(out, pick)
		taken[pick] = true
		coreLoad[t.Threads[pick].Core]++
	}
	return out
}
