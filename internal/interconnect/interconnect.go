// Package interconnect models the cross-node interconnect of a NUMA
// machine: a graph of point-to-point links with per-link bandwidth, plus a
// routed effective bandwidth for node pairs without a direct link.
//
// The paper obtains interconnect scores by measuring aggregate bandwidth
// with the stream benchmark "for each possible combination of nodes".
// Measure reproduces that: the aggregate score of a node set is the sum of
// effective pairwise bandwidths inside the set, where a pair connected by a
// direct link contributes the link bandwidth and a routed pair contributes a
// discounted bottleneck along its widest path (routed traffic shares links
// and crosses more hops, so it never performs like a direct link).
package interconnect

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// Graph is the interconnect of a machine with N nodes.
type Graph struct {
	n                    int
	link                 [][]int64 // direct link bandwidth in MB/s; 0 = no direct link
	once                 sync.Once // guards the lazy compute (queries may be concurrent)
	pair                 [][]int64 // memoized effective pair bandwidth
	hops                 [][]int   // memoized hop count of the widest path
	routedNum, routedDen int64
}

// RoutedFraction is the default fraction of the bottleneck link bandwidth
// that a routed (multi-hop) pair achieves per extra hop. Measured systems
// lose roughly half the bottleneck bandwidth per intermediate hop to
// store-and-forward and link sharing.
const (
	routedNumDefault = 1
	routedDenDefault = 2
)

// NewGraph returns an empty graph over n nodes with no links.
func NewGraph(n int) *Graph {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("interconnect: invalid node count %d", n))
	}
	g := &Graph{n: n, routedNum: routedNumDefault, routedDen: routedDenDefault}
	g.link = make([][]int64, n)
	for i := range g.link {
		g.link[i] = make([]int64, n)
	}
	return g
}

// NewSymmetric returns a fully connected graph in which every node pair has
// the same direct bandwidth (e.g. the paper's Intel Xeon E7-4830 v3).
func NewSymmetric(n int, bwMBs int64) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddLink(topology.NodeID(i), topology.NodeID(j), bwMBs)
		}
	}
	return g
}

// AddLink installs a bidirectional direct link between a and b.
// Adding a link invalidates previously computed routed bandwidths,
// so all links must be added before the first query.
func (g *Graph) AddLink(a, b topology.NodeID, bwMBs int64) {
	if a == b {
		panic("interconnect: self link")
	}
	if int(a) >= g.n || int(b) >= g.n || a < 0 || b < 0 {
		panic(fmt.Sprintf("interconnect: link %d-%d out of range", a, b))
	}
	if bwMBs <= 0 {
		panic(fmt.Sprintf("interconnect: non-positive bandwidth %d", bwMBs))
	}
	if g.pair != nil {
		panic("interconnect: AddLink after first query")
	}
	g.link[a][b] = bwMBs
	g.link[b][a] = bwMBs
}

// Symmetric reports whether every node pair has a direct link of identical
// bandwidth. On such machines the interconnect concern is unnecessary: all
// same-size node sets score identically (paper §4, the Intel system).
func (g *Graph) Symmetric() bool {
	var bw int64 = -1
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			if g.link[i][j] == 0 {
				return false
			}
			if bw == -1 {
				bw = g.link[i][j]
			} else if g.link[i][j] != bw {
				return false
			}
		}
	}
	return true
}

// compute fills the effective pair bandwidth and hop matrices. The
// effective bandwidth of a pair is the maximum over all routes of the
// route's bottleneck link bandwidth discounted by routedNum/routedDen per
// extra hop (store-and-forward and link sharing costs). Because the
// discount depends on hop count, a plain widest-path search is wrong: a
// wide 3-hop route can lose to a narrower direct link. Instead a DP over
// (node, hop count) finds, for every hop budget h, the widest bottleneck
// reachable in exactly h hops, then the discounted maximum is taken.
func (g *Graph) compute() {
	g.pair = make([][]int64, g.n)
	g.hops = make([][]int, g.n)
	for i := range g.pair {
		g.pair[i] = make([]int64, g.n)
		g.hops[i] = make([]int, g.n)
	}
	maxHops := g.n - 1
	for s := 0; s < g.n; s++ {
		// width[h][j]: widest bottleneck from s to j over paths of exactly
		// h hops (0 if unreachable in h hops).
		width := make([][]int64, maxHops+1)
		for h := range width {
			width[h] = make([]int64, g.n)
		}
		for j := 0; j < g.n; j++ {
			width[1][j] = g.link[s][j]
		}
		for h := 2; h <= maxHops; h++ {
			for j := 0; j < g.n; j++ {
				for k := 0; k < g.n; k++ {
					if g.link[k][j] == 0 || width[h-1][k] == 0 {
						continue
					}
					if w := min64(width[h-1][k], g.link[k][j]); w > width[h][j] {
						width[h][j] = w
					}
				}
			}
		}
		for t := 0; t < g.n; t++ {
			if t == s {
				continue
			}
			var bestBW int64
			bestHops := 0
			for h := 1; h <= maxHops; h++ {
				if width[h][t] == 0 {
					continue
				}
				bw := width[h][t]
				for d := 1; d < h; d++ {
					bw = bw * g.routedNum / g.routedDen
				}
				if bw > bestBW {
					bestBW, bestHops = bw, h
				}
			}
			g.pair[s][t] = bestBW
			g.hops[s][t] = bestHops
		}
	}
}

// Hops returns the number of links on the widest path between a and b
// (1 for a direct link). It returns 0 for a==b or a disconnected pair.
func (g *Graph) Hops(a, b topology.NodeID) int {
	if a == b {
		return 0
	}
	g.once.Do(g.compute)
	return g.hops[a][b]
}

// Measure returns the aggregate interconnect score of a node set in MB/s:
// the sum of effective pairwise bandwidths over all pairs inside the set.
// This is the simulated analogue of the paper's per-node-combination stream
// measurement. A single-node set scores 0 (no interconnect in use).
func (g *Graph) Measure(s topology.NodeSet) int64 {
	if uint64(s) == 0 {
		return 0
	}
	g.once.Do(g.compute)
	var total int64
	for m := uint64(s); m != 0; m &= m - 1 {
		row := g.pair[bits.TrailingZeros64(m)]
		for o := m & (m - 1); o != 0; o &= o - 1 {
			total += row[bits.TrailingZeros64(o)]
		}
	}
	return total
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Fingerprint returns a 64-bit value hash of the link structure: node
// count, every direct link bandwidth, and the routed-discount fraction.
// Graphs with identical links fingerprint identically regardless of
// pointer identity.
func (g *Graph) Fingerprint() uint64 {
	h := uint64(g.n)
	h = xrand.Mix2(h, uint64(g.routedNum))
	h = xrand.Mix2(h, uint64(g.routedDen))
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			h = xrand.Mix2(h, uint64(g.link[i][j]))
		}
	}
	return h
}
