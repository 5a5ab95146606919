// Package topology models the hardware layout of a multicore NUMA machine:
// NUMA nodes, physical cores, hardware threads, and the cache domains that
// group them. It is the machine description consumed by the scheduling
// concerns and placement algorithms of the paper (Funston et al., ATC'18).
//
// A topology is purely structural; interconnect bandwidth lives in the
// companion package interconnect, and dynamic performance behaviour in
// perfsim.
package topology

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/xrand"
)

// NodeID identifies a NUMA node.
type NodeID int

// CoreID identifies a physical core, globally across the machine.
type CoreID int

// ThreadID identifies a hardware thread (logical CPU), globally.
type ThreadID int

// DomainID identifies a cache domain (an L2 or L3 instance), globally.
type DomainID int

// Thread is one hardware context (logical CPU).
type Thread struct {
	ID   ThreadID
	Core CoreID
	Node NodeID
	L2   DomainID // L2 cache domain this thread uses
	L3   DomainID // L3 cache domain this thread uses
	SMT  int      // index of this thread within its core (0..ThreadsPerCore-1)
}

// Node is one NUMA node: an L3 cache, a memory controller and a set of cores.
type Node struct {
	ID      NodeID
	Threads []ThreadID
	Cores   []CoreID
	L2s     []DomainID
	L3      DomainID
}

// MaxNodes is the most NUMA nodes a machine may have. Every machine in the
// tree has 4 or 8; the bound lets a table indexed by free-node mask (the
// serving scheduler's best free sets) cover every mask of a machine.
const MaxNodes = 16

// Params describes a homogeneous machine; all current systems of interest
// (and the paper's two testbeds) are homogeneous.
type Params struct {
	Name           string
	NumNodes       int
	CoresPerNode   int
	ThreadsPerCore int // SMT width (Intel HyperThreading: 2; AMD Opteron: 1)
	CoresPerL2     int // cores sharing an L2/front-end (AMD CMT module: 2; Intel: 1)
	L3PerNode      int // L3 domains per node (1 everywhere except Zen-style CCX)

	L2SizeKB int // per-L2 capacity
	L3SizeKB int // per-L3 capacity

	// NodeDRAMBandwidthMBs is the local memory bandwidth of one node's
	// memory controller, in MB/s. Used by perfsim.
	NodeDRAMBandwidthMBs int64

	// CoreSpeed is a relative single-thread throughput multiplier used by
	// perfsim (1.0 = one Opteron 6272 core).
	CoreSpeed float64

	// Latencies (nanoseconds) between two threads exchanging a cache line,
	// by the closest level they share. Used by perfsim's communication model.
	LatSameL2NS, LatSameL3NS, LatOneHopNS, LatTwoHopNS float64
}

// Topology is a fully built machine description.
type Topology struct {
	Params

	Nodes   []Node
	Threads []Thread

	NumL2 int // total L2 domains on the machine (paper: "L2Count")
	NumL3 int // total L3 domains (paper: "L3Count")
}

// New builds a Topology from Params. It panics on structurally invalid
// parameters; machine descriptions are static program data, so an invalid
// one is a programming error, not a runtime condition.
func New(p Params) *Topology {
	if err := p.validate(); err != nil {
		panic("topology: " + err.Error())
	}
	t := &Topology{Params: p}
	l2PerNode := p.CoresPerNode / p.CoresPerL2
	coresPerL3 := p.CoresPerNode / p.L3PerNode
	t.NumL2 = p.NumNodes * l2PerNode
	t.NumL3 = p.NumNodes * p.L3PerNode

	var tid ThreadID
	var cid CoreID
	for n := 0; n < p.NumNodes; n++ {
		node := Node{ID: NodeID(n), L3: DomainID(n * p.L3PerNode)}
		for l := 0; l < l2PerNode; l++ {
			node.L2s = append(node.L2s, DomainID(n*l2PerNode+l))
		}
		for c := 0; c < p.CoresPerNode; c++ {
			l2 := DomainID(n*l2PerNode + c/p.CoresPerL2)
			l3 := DomainID(n*p.L3PerNode + c/coresPerL3)
			node.Cores = append(node.Cores, cid)
			for s := 0; s < p.ThreadsPerCore; s++ {
				th := Thread{
					ID: tid, Core: cid, Node: NodeID(n),
					L2: l2, L3: l3, SMT: s,
				}
				t.Threads = append(t.Threads, th)
				node.Threads = append(node.Threads, tid)
				tid++
			}
			cid++
		}
		t.Nodes = append(t.Nodes, node)
	}
	return t
}

func (p Params) validate() error {
	switch {
	case p.NumNodes <= 0 || p.NumNodes > MaxNodes:
		return fmt.Errorf("NumNodes %d must be in [1, %d]", p.NumNodes, MaxNodes)
	case p.CoresPerNode <= 0:
		return fmt.Errorf("CoresPerNode %d must be positive", p.CoresPerNode)
	case p.ThreadsPerCore <= 0:
		return fmt.Errorf("ThreadsPerCore %d must be positive", p.ThreadsPerCore)
	case p.CoresPerL2 <= 0 || p.CoresPerNode%p.CoresPerL2 != 0:
		return fmt.Errorf("CoresPerL2 %d must divide CoresPerNode %d", p.CoresPerL2, p.CoresPerNode)
	case p.L3PerNode <= 0 || p.CoresPerNode%p.L3PerNode != 0:
		return fmt.Errorf("L3PerNode %d must divide CoresPerNode %d", p.L3PerNode, p.CoresPerNode)
	case p.CoresPerNode/p.L3PerNode < p.CoresPerL2:
		return fmt.Errorf("an L3 domain (%d cores) must hold at least one L2 group (%d cores)",
			p.CoresPerNode/p.L3PerNode, p.CoresPerL2)
	}
	return nil
}

// TotalThreads returns the number of hardware threads on the machine.
func (t *Topology) TotalThreads() int { return len(t.Threads) }

// ThreadsPerL2 returns the capacity of one L2 domain in hardware threads
// (the paper's "L2 Capacity").
func (t *Topology) ThreadsPerL2() int { return t.CoresPerL2 * t.ThreadsPerCore }

// ThreadsPerL3 returns the capacity of one L3 domain in hardware threads
// (the paper's "L3 Capacity").
func (t *Topology) ThreadsPerL3() int {
	return t.CoresPerNode / t.L3PerNode * t.ThreadsPerCore
}

// ThreadsPerNode returns the hardware threads per NUMA node.
func (t *Topology) ThreadsPerNode() int { return t.CoresPerNode * t.ThreadsPerCore }

// L2PerNode returns the number of L2 domains per node.
func (t *Topology) L2PerNode() int { return t.CoresPerNode / t.CoresPerL2 }

// String summarizes the machine, e.g.
// "amd-opteron-6272: 8 nodes x 8 cores x 1 threads (64 hw threads, 32 L2, 8 L3)".
func (t *Topology) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes x %d cores x %d threads (%d hw threads, %d L2, %d L3)",
		t.Name, t.NumNodes, t.CoresPerNode, t.ThreadsPerCore,
		t.TotalThreads(), t.NumL2, t.NumL3)
	return b.String()
}

// Fingerprint returns a 64-bit value hash of the machine's structural
// parameters. Two topologies built from identical Params fingerprint
// identically regardless of pointer identity; serving-layer caches key
// their memoized artifacts on it.
func (t *Topology) Fingerprint() uint64 {
	h := xrand.HashString(t.Name)
	for _, x := range []int{
		t.NumNodes, t.CoresPerNode, t.ThreadsPerCore, t.CoresPerL2,
		t.L3PerNode, t.L2SizeKB, t.L3SizeKB,
	} {
		h = xrand.Mix2(h, uint64(x))
	}
	h = xrand.Mix2(h, uint64(t.NodeDRAMBandwidthMBs))
	for _, f := range []float64{
		t.CoreSpeed, t.LatSameL2NS, t.LatSameL3NS, t.LatOneHopNS, t.LatTwoHopNS,
	} {
		h = xrand.Mix2(h, math.Float64bits(f))
	}
	return h
}
