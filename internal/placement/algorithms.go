package placement

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/concern"
	"repro/internal/nperr"
	"repro/internal/topology"
	"repro/internal/xparallel"
	"repro/internal/xrand"
)

// AllNodes returns the full node set of the spec's machine.
func AllNodes(spec *concern.Spec) topology.NodeSet {
	return topology.FullNodeSet(spec.Node.Count)
}

// Packing is a partition of the machine's nodes into placements (paper
// Algorithm 2): the first part might host the target container, the rest
// host other containers. Parts are kept in canonical order (ascending by
// bitmask) so identical packings compare equal.
type Packing []topology.NodeSet

func (p Packing) String() string {
	s := make([]string, len(p))
	for i, part := range p {
		s[i] = part.String()
	}
	return "[" + strings.Join(s, " ") + "]"
}

// sizeKey returns the canonical encoding of the packing's part-size multiset
// (the paper's "L3 scores in a packing"). The encoding is exact, not a hash:
// a partition of n <= 64 nodes fits in n bits (each part of size s
// contributes s-1 zeros followed by a one).
func (p Packing) sizeKey() uint64 {
	var sizes [64]int
	n := 0
	for _, part := range p {
		// Insertion sort keeps sizes ascending.
		s := part.Len()
		i := n
		for i > 0 && sizes[i-1] > s {
			sizes[i] = sizes[i-1]
			i--
		}
		sizes[i] = s
		n++
	}
	return shapeKey(sizes[:n])
}

// shapeKey encodes an ascending-sorted list of part sizes summing to <= 64
// into a unique uint64.
func shapeKey(sorted []int) uint64 {
	var key uint64
	shift := 0
	for _, s := range sorted {
		key |= 1 << uint(shift+s-1)
		shift += s
	}
	return key
}

func (p Packing) canonical() Packing {
	q := append(Packing(nil), p...)
	slices.Sort(q)
	return q
}

// GenPackings implements Algorithm 2: it enumerates every partition of the
// node set `all` into parts whose sizes appear in nodeScores. Unlike the
// paper's pseudocode, which enumerates every part ordering and removes
// duplicates afterwards, this version generates each unordered partition
// exactly once by always placing the lowest unassigned node into the next
// part; TestGenPackingsMatchesNaive cross-checks the two against each other.
//
// The search is sharded across goroutines by the first part (the one
// containing the lowest node); shard results are concatenated in first-part
// order, so the output is identical to the serial enumeration at every
// worker count.
func GenPackings(nodeScores []int, all topology.NodeSet) []Packing {
	if all.Empty() {
		return []Packing{nil}
	}
	low := all.Lowest()
	rest := all.Remove(low)
	var firsts []topology.NodeSet
	for _, size := range nodeScores {
		if size > all.Len() {
			continue
		}
		rest.Subsets(size-1, func(sub topology.NodeSet) {
			firsts = append(firsts, sub.Add(low))
		})
	}
	shards := xparallel.Map(len(firsts), func(i int) []Packing {
		return genShard(nodeScores, firsts[i], all)
	})
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	out := make([]Packing, 0, total)
	for _, s := range shards {
		out = append(out, s...)
	}
	return out
}

// genShard enumerates every packing whose first part (the part containing
// the machine's lowest node) is first. The recursion reuses a single part
// buffer; each emitted packing allocates exactly once.
func genShard(nodeScores []int, first, all topology.NodeSet) []Packing {
	cur := make(Packing, 1, all.Len())
	cur[0] = first
	var out []Packing
	var rec func(left topology.NodeSet)
	rec = func(left topology.NodeSet) {
		if left.Empty() {
			p := make(Packing, len(cur))
			copy(p, cur)
			slices.Sort(p)
			out = append(out, p)
			return
		}
		low := left.Lowest()
		rest := left.Remove(low)
		for _, size := range nodeScores {
			if size > left.Len() {
				continue
			}
			rest.Subsets(size-1, func(sub topology.NodeSet) {
				part := sub.Add(low)
				cur = append(cur, part)
				rec(left.Minus(part))
				cur = cur[:len(cur)-1]
			})
		}
	}
	rec(all.Minus(first))
	return out
}

// paretoScoresFlat returns the packing's Pareto score lists flattened into a
// single slice: one block of len(p) scores per Pareto concern, each block
// sorted ascending. A nil slice means the spec has no Pareto concerns.
func paretoScoresFlat(spec *concern.Spec, p Packing) []int64 {
	if len(spec.Pareto) == 0 {
		return nil
	}
	scores := make([]int64, 0, len(spec.Pareto)*len(p))
	for _, c := range spec.Pareto {
		start := len(scores)
		for _, part := range p {
			scores = append(scores, c.Score(part))
		}
		slices.Sort(scores[start:])
	}
	return scores
}

// dominatesFlat reports whether flattened score list b supersedes a: at
// least as good elementwise and not identical.
func dominatesFlat(b, a []int64) bool {
	equal := true
	for i := range a {
		if b[i] < a[i] {
			return false
		}
		if b[i] != a[i] {
			equal = false
		}
	}
	return !equal
}

func hashScores(scores []int64) uint64 {
	h := uint64(len(scores))
	for _, s := range scores {
		h = xrand.Mix2(h, uint64(s))
	}
	return h
}

// FilterPackings implements the first half of Algorithm 3: group packings
// by their part-size multiset (same "L3 scores"), de-duplicate packings
// with identical Pareto score lists, and remove packings superseded by a
// strictly better packing of the same shape. With no Pareto concerns
// (symmetric interconnect) every shape collapses to one representative.
//
// Scoring and per-shape filtering run on the worker pool; the dominance
// check is a sort-then-sweep skyline (dominators sort lexicographically
// before the packings they dominate, so each entry is only tested against
// the current frontier) instead of the naive all-pairs scan. Survivors keep
// their enumeration order, so output is identical at every worker count.
func FilterPackings(spec *concern.Spec, packings []Packing) []Packing {
	type scored struct {
		shape  uint64
		scores []int64
	}
	meta := xparallel.Map(len(packings), func(i int) scored {
		return scored{shape: packings[i].sizeKey(), scores: paretoScoresFlat(spec, packings[i])}
	})

	// Group packing indices by shape, preserving first-seen shape order.
	groupIdx := make(map[uint64]int)
	var groups [][]int
	for i, m := range meta {
		gi, ok := groupIdx[m.shape]
		if !ok {
			gi = len(groups)
			groupIdx[m.shape] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}

	perGroup := xparallel.Map(len(groups), func(gi int) []int {
		g := groups[gi]
		// De-duplicate identical score lists keeping the first
		// representative (the paper's "remove duplicates"). Buckets are
		// hashed but membership is verified exactly.
		buckets := make(map[uint64][]int, len(g))
		uniq := make([]int, 0, len(g))
		for _, i := range g {
			h := hashScores(meta[i].scores)
			dup := false
			for _, j := range buckets[h] {
				if slices.Equal(meta[j].scores, meta[i].scores) {
					dup = true
					break
				}
			}
			if !dup {
				buckets[h] = append(buckets[h], i)
				uniq = append(uniq, i)
			}
		}
		// Skyline sweep: process in lexicographically descending score
		// order; any dominator of an entry is itself non-dominated or led
		// by a non-dominated dominator earlier in this order, so testing
		// against the accepted frontier suffices.
		ord := slices.Clone(uniq)
		slices.SortFunc(ord, func(a, b int) int {
			return slices.Compare(meta[b].scores, meta[a].scores)
		})
		sky := make([]int, 0, len(ord))
		for _, i := range ord {
			dominated := false
			for _, j := range sky {
				if dominatesFlat(meta[j].scores, meta[i].scores) {
					dominated = true
					break
				}
			}
			if !dominated {
				sky = append(sky, i)
			}
		}
		slices.Sort(sky) // restore enumeration order
		return sky
	})

	var out []Packing
	for _, sky := range perGroup {
		for _, i := range sky {
			out = append(out, packings[i])
		}
	}
	return out
}

// Enumerate runs the full pipeline of §4 for a container with v vCPUs:
// Algorithm 1 (feasible scores), Algorithm 2 (packings), Algorithm 3
// (Pareto filter + per-node concern enumeration + de-duplication by score
// vector). The result is the machine's important placements, sorted by
// ascending node count, then per-node scores, then descending Pareto
// scores, and numbered from 1 (the numbering used on figure x-axes). The
// pipeline checks ctx between stages and while expanding packings, and
// returns ctx.Err() if the context is done. Infeasible requests return
// errors wrapping nperr.ErrInfeasible.
func Enumerate(ctx context.Context, spec *concern.Spec, v int) ([]Important, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if v <= 0 {
		return nil, fmt.Errorf("placement: vCPU count %d must be positive: %w", v, nperr.ErrInfeasible)
	}
	nodeScores := spec.Node.FeasibleScores(v)
	if len(nodeScores) == 0 {
		return nil, fmt.Errorf("placement: no balanced feasible node counts for %d vCPUs (node capacity %d, %d nodes): %w",
			v, spec.Node.Capacity, spec.Node.Count, nperr.ErrInfeasible)
	}
	perNodeScores := make([][]int, len(spec.PerNode))
	for i, c := range spec.PerNode {
		perNodeScores[i] = c.FeasibleScores(v)
		if len(perNodeScores[i]) == 0 {
			return nil, fmt.Errorf("placement: no balanced feasible scores for concern %q with %d vCPUs: %w",
				c.Name, v, nperr.ErrInfeasible)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	all := topology.FullNodeSet(spec.Node.Count)
	packings := GenPackings(nodeScores, all)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	packings = FilterPackings(spec, packings)

	// Collect placements from surviving packings, enumerating per-node
	// concern scores that fit in the part (Algorithm 3's final loop:
	// keep L2S iff perNode*L3S >= L2S, strengthened with divisibility so
	// every node uses the same number of instances — the balance property).
	// Expansion runs per packing on the worker pool; the de-duplication
	// sweep consumes the results in packing order, so the surviving
	// placements and their ordering match the serial pipeline exactly.
	type cand struct {
		p   Placement
		vec Vector
	}
	perPacking, err := xparallel.MapErr(ctx, len(packings), func(i int) ([]cand, error) {
		var cands []cand
		for _, part := range packings[i] {
			for _, p := range expandPerNode(spec, perNodeScores, part) {
				cands = append(cands, cand{p, VectorOf(spec, p)})
			}
		}
		return cands, nil
	})
	if err != nil {
		return nil, err
	}

	seen := make(map[uint64][]Vector)
	var out []Important
	for _, cands := range perPacking {
		for _, c := range cands {
			h := c.vec.hash()
			dup := false
			for _, v := range seen[h] {
				if v.Equal(c.vec) {
					dup = true
					break
				}
			}
			if !dup {
				seen[h] = append(seen[h], c.vec)
				out = append(out, Important{Placement: c.p, Vec: c.vec})
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Vec, out[j].Vec
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		for k := range a.PerNode {
			if a.PerNode[k] != b.PerNode[k] {
				return a.PerNode[k] < b.PerNode[k]
			}
		}
		for k := range a.Pareto {
			if a.Pareto[k] != b.Pareto[k] {
				return a.Pareto[k] > b.Pareto[k]
			}
		}
		return false
	})
	for i := range out {
		out[i].ID = i + 1
	}
	return out, nil
}

// expandPerNode enumerates every valid combination of per-node concern
// scores for a placement on the given node set.
func expandPerNode(spec *concern.Spec, feasible [][]int, part topology.NodeSet) []Placement {
	n := part.Len()
	var out []Placement
	chosen := make([]int, 0, len(spec.PerNode))
	var rec func(i int)
	rec = func(i int) {
		if i == len(spec.PerNode) {
			out = append(out, Placement{
				Nodes:         part,
				PerNodeScores: append([]int(nil), chosen...),
			})
			return
		}
		c := spec.PerNode[i]
		for _, s := range feasible[i] {
			// The part offers perNode*n instances of this resource.
			if s > c.PerNode*n {
				continue
			}
			// Balance: every node must use the same number of instances,
			// and each coarser domain must split evenly into finer ones
			// (spec builders list per-node concerns coarse to fine).
			prev := n
			perPrev := c.PerNode // finer instances per coarser domain
			if i > 0 {
				prev = chosen[i-1]
				perPrev = c.Count / spec.PerNode[i-1].Count
			}
			if s%n != 0 || s%prev != 0 {
				continue
			}
			// Nested capacity: the selected coarser domains only contain
			// perPrev instances of this finer resource each.
			if s/prev > perPrev {
				continue
			}
			chosen = append(chosen, s)
			rec(i + 1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	rec(0)
	return out
}
