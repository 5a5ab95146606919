// Package placement implements the paper's placement algorithms (§4):
// generating feasible concern scores (Algorithm 1), packing node sets
// (Algorithm 2), and filtering to the important placements (Algorithm 3) —
// the small set of placements that are balanced, feasible, and not
// superseded by a strictly better packing of the machine.
package placement

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/concern"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Placement is a class of vCPU-to-hardware mappings: the set of NUMA nodes
// used plus the chosen sharing degree for every enumerated per-node concern
// (for the paper's systems, the number of L2/SMT groups in use).
type Placement struct {
	Nodes topology.NodeSet
	// PerNodeScores holds, for each per-node concern in spec order, the
	// total number of instances of that resource the placement uses.
	PerNodeScores []int
}

// Vector is a placement's score vector: one score per concern. Placements
// with identical vectors are deemed to perform identically (paper §3).
type Vector struct {
	PerNode []int   // per-node concern scores, spec order (e.g. L2/SMT)
	Node    int     // node/allocation concern score (number of nodes)
	Pareto  []int64 // Pareto concern scores (e.g. interconnect MB/s)
}

// Equal reports whether two vectors are identical.
func (v Vector) Equal(o Vector) bool {
	return v.Node == o.Node && slices.Equal(v.PerNode, o.PerNode) && slices.Equal(v.Pareto, o.Pareto)
}

// hash returns a 64-bit fingerprint of the vector for bucketed
// de-duplication; colliding vectors are verified with Equal.
func (v Vector) hash() uint64 {
	h := uint64(v.Node)
	for _, s := range v.PerNode {
		h = xrand.Mix2(h, uint64(s))
	}
	for _, s := range v.Pareto {
		h = xrand.Mix2(h, uint64(s))
	}
	return h
}

// String formats the vector the way the paper does, e.g. "[16, 8, 35000]"
// for the AMD 8-node no-SMT placement (L2, L3, interconnect).
func (v Vector) String() string {
	parts := make([]string, 0, len(v.PerNode)+1+len(v.Pareto))
	for _, s := range v.PerNode {
		parts = append(parts, fmt.Sprintf("%d", s))
	}
	parts = append(parts, fmt.Sprintf("%d", v.Node))
	for _, s := range v.Pareto {
		parts = append(parts, fmt.Sprintf("%d", s))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Important is one important placement with its identity and score vector.
// IDs are 1-based and stable for a given (spec, vCPU count), matching the
// paper's numbering of placements along figure x-axes.
type Important struct {
	ID int
	Placement
	Vec Vector
}

// String formats an important placement, e.g. "#9 {2,3,4,5} L2=8 [8, 4, 14000]".
func (p Important) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s", p.ID, p.Nodes)
	for i, s := range p.PerNodeScores {
		fmt.Fprintf(&b, " %s=%d", shortName(i), s)
	}
	fmt.Fprintf(&b, " %s", p.Vec)
	return b.String()
}

func shortName(i int) string { return fmt.Sprintf("c%d", i) }

// VectorOf computes the score vector of a placement under a spec.
func VectorOf(spec *concern.Spec, p Placement) Vector {
	v := Vector{
		PerNode: append([]int(nil), p.PerNodeScores...),
		Node:    p.Nodes.Len(),
	}
	for _, c := range spec.Pareto {
		v.Pareto = append(v.Pareto, c.Score(p.Nodes))
	}
	return v
}
