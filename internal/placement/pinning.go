package placement

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/concern"
	"repro/internal/nperr"
	"repro/internal/topology"
)

// Pin materializes a placement into a concrete assignment of v vCPUs to
// hardware threads (one thread per vCPU). vCPUs are spread evenly over the
// placement's nodes; inside a node they fill the selected number of cache
// domains hierarchically, coarsest concern first (node, then e.g. L3 on
// Zen-style machines, then L2/SMT). The result is deterministic:
// lowest-numbered domains and threads are used first, and when a cache
// group is not fully used, distinct cores are preferred over SMT siblings.
//
// A cold pin is what every fresh engine pays once per placement during a
// recovery replay, so the walk allocates only its result and one node's
// worth of scratch: each node's thread table is copied into the scratch and
// regrouped in place, level by level.
func Pin(spec *concern.Spec, p Placement, v int) ([]topology.ThreadID, error) {
	t := spec.Machine.Topo
	n := p.Nodes.Len()
	if n == 0 {
		return nil, fmt.Errorf("placement: empty node set: %w", nperr.ErrInfeasible)
	}
	if v%n != 0 {
		return nil, fmt.Errorf("placement: %d vCPUs not divisible by %d nodes: %w", v, n, nperr.ErrInfeasible)
	}
	if v/n > t.ThreadsPerNode() {
		return nil, fmt.Errorf("placement: %d vCPUs per node exceeds capacity %d: %w", v/n, t.ThreadsPerNode(), nperr.ErrInfeasible)
	}
	if len(p.PerNodeScores) != len(spec.PerNode) {
		return nil, fmt.Errorf("placement: %d per-node scores for %d concerns", len(p.PerNodeScores), len(spec.PerNode))
	}

	// The chain of sharing levels is the node count, then each per-node
	// concern score coarse to fine. Each level's score must divide the
	// next (the balance property, enforced by Enumerate).
	coarser := n
	for i, score := range p.PerNodeScores {
		c := spec.PerNode[i]
		if score%coarser != 0 {
			return nil, fmt.Errorf("placement: concern %q score %d not divisible by coarser score %d",
				c.Name, score, coarser)
		}
		if v%score != 0 {
			return nil, fmt.Errorf("placement: %d vCPUs not divisible by %q score %d", v, c.Name, score)
		}
		coarser = score
	}

	// Node level: the placement's node set *is* the selection, and every
	// node takes an equal share of the vCPUs.
	pn := pinner{spec: spec, threads: t.Threads, nodes: n, scores: p.PerNodeScores}
	out := make([]topology.ThreadID, 0, v)
	scratch := make([]topology.ThreadID, 0, t.ThreadsPerNode())
	for rest := p.Nodes; !rest.Empty(); {
		node := rest.Lowest()
		rest = rest.Remove(node)
		scratch = append(scratch[:0], t.Nodes[node].Threads...)
		var err error
		if out, err = pn.pick(out, 1, scratch, v/n); err != nil {
			return nil, err
		}
	}
	slices.Sort(out)
	return out, nil
}

// pinner is the fixed part of one Pin call. Levels count from 1, the first
// per-node concern; level len(scores)+1 is the leaf.
type pinner struct {
	spec    *concern.Spec
	threads []topology.Thread
	nodes   int   // the placement's node count: the score above level 1
	scores  []int // per-node concern scores, coarse to fine
}

// pick appends want threads chosen from cand, the threads of one domain of
// the level above, and returns the grown slice. At a concern level it
// groups cand by that concern's domain, keeps the lowest-numbered
// (score/coarser score) domains and gives each an equal share; at the leaf
// it takes distinct cores before SMT siblings. cand is reordered in place.
func (pn *pinner) pick(out []topology.ThreadID, level int, cand []topology.ThreadID, want int) ([]topology.ThreadID, error) {
	if level > len(pn.scores) {
		slices.SortFunc(cand, func(a, b topology.ThreadID) int {
			return cmp.Or(cmp.Compare(pn.threads[a].SMT, pn.threads[b].SMT), cmp.Compare(a, b))
		})
		if want > len(cand) {
			return nil, fmt.Errorf("placement: need %d threads, domain has %d", want, len(cand))
		}
		return append(out, cand[:want]...), nil
	}

	name := pn.spec.PerNode[level-1].Name
	if name != "L2/SMT" && name != "L3" && len(cand) > 0 {
		return nil, fmt.Errorf("placement: unknown per-node concern %q", name)
	}
	domain := func(id topology.ThreadID) topology.DomainID {
		if name == "L3" {
			return pn.threads[id].L3
		}
		return pn.threads[id].L2
	}
	slices.SortStableFunc(cand, func(a, b topology.ThreadID) int {
		return cmp.Compare(domain(a), domain(b))
	})
	// cand is now runs of equal domain, ascending.
	domains := 0
	for i, id := range cand {
		if i == 0 || domain(id) != domain(cand[i-1]) {
			domains++
		}
	}
	coarser := pn.nodes
	if level > 1 {
		coarser = pn.scores[level-2]
	}
	keep := pn.scores[level-1] / coarser
	if keep > domains {
		return nil, fmt.Errorf("placement: need %d domains at level %d, have %d", keep, level, domains)
	}
	if want%keep != 0 {
		return nil, fmt.Errorf("placement: %d vCPUs not divisible over %d domains", want, keep)
	}
	for start, kept := 0, 0; kept < keep; kept++ {
		end := start + 1
		for end < len(cand) && domain(cand[end]) == domain(cand[start]) {
			end++
		}
		var err error
		if out, err = pn.pick(out, level+1, cand[start:end], want/keep); err != nil {
			return nil, err
		}
		start = end
	}
	return out, nil
}
