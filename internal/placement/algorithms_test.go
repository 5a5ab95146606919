package placement

import (
	"context"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/concern"
	"repro/internal/machines"
	"repro/internal/topology"
)

func amdSpec() *concern.Spec   { return concern.FromMachine(machines.AMD()) }
func intelSpec() *concern.Spec { return concern.FromMachine(machines.Intel()) }

// TestAMDImportantPlacements checks the paper's headline result for the AMD
// system (§4): 16 vCPUs yield exactly 13 important placements — two 8-node,
// eight 4-node and three 2-node.
func TestAMDImportantPlacements(t *testing.T) {
	imps, err := Enumerate(context.Background(), amdSpec(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 13 {
		t.Fatalf("got %d important placements, want 13:\n%v", len(imps), imps)
	}
	byNodes := map[int]int{}
	for _, p := range imps {
		byNodes[p.Vec.Node]++
	}
	want := map[int]int{2: 3, 4: 8, 8: 2}
	if !reflect.DeepEqual(byNodes, want) {
		t.Fatalf("composition %v, want %v", byNodes, want)
	}
	// Paper example score vectors: [16, 8, 35000] without SMT and
	// [8, 8, 35000] with CMT sharing.
	var found16, found8 bool
	for _, p := range imps {
		if p.Vec.Node == 8 && p.Vec.Pareto[0] == 35000 {
			switch p.Vec.PerNode[0] {
			case 16:
				found16 = true
			case 8:
				found8 = true
			}
		}
	}
	if !found16 || !found8 {
		t.Errorf("missing the paper's example vectors [16,8,35000]/[8,8,35000]: %v", imps)
	}
}

// TestAMDPackingNarrative checks the specific packing examples in §4.
func TestAMDPackingNarrative(t *testing.T) {
	spec := amdSpec()
	imps, err := Enumerate(context.Background(), spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	sets := map[topology.NodeSet]bool{}
	var best4 int64
	var best4Set topology.NodeSet
	for _, p := range imps {
		if p.Vec.Node == 4 {
			sets[p.Nodes] = true
			if p.Vec.Pareto[0] > best4 {
				best4, best4Set = p.Vec.Pareto[0], p.Nodes
			}
		}
	}
	// "we need to keep the 4-node placement that uses nodes {2,3,4,5}
	// because it is the 4-node placement with the highest interconnect score"
	if best4Set != topology.NewNodeSet(2, 3, 4, 5) {
		t.Errorf("best 4-node set = %s, want {2,3,4,5}", best4Set)
	}
	// "Therefore the placement using nodes {0,1,6,7} is also an important
	// placement and will be kept"
	if !sets[topology.NewNodeSet(0, 1, 6, 7)] {
		t.Error("{0,1,6,7} missing from important placements")
	}
	// "the vectors for placements {0,2,4,6} and {1,3,5,7} will be kept
	// over the worse pair of 4-node placements"
	if !sets[topology.NewNodeSet(0, 2, 4, 6)] || !sets[topology.NewNodeSet(1, 3, 5, 7)] {
		t.Error("{0,2,4,6}/{1,3,5,7} missing from important placements")
	}
	// "suppose that we consider a 4-node placement that uses nodes
	// {0,1,4,5} ... Both of these placements have poor interconnect scores"
	if sets[topology.NewNodeSet(0, 1, 4, 5)] || sets[topology.NewNodeSet(2, 3, 6, 7)] {
		t.Error("{0,1,4,5}/{2,3,6,7} should be filtered out")
	}
}

// TestIntelImportantPlacements checks the Intel headline (§4): 24 vCPUs
// yield exactly 7 important placements: one 1-node sharing L2, and two each
// of 2-, 3- and 4-node placements.
func TestIntelImportantPlacements(t *testing.T) {
	imps, err := Enumerate(context.Background(), intelSpec(), 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 7 {
		t.Fatalf("got %d important placements, want 7:\n%v", len(imps), imps)
	}
	type key struct{ nodes, l2 int }
	got := map[key]int{}
	for _, p := range imps {
		got[key{p.Vec.Node, p.Vec.PerNode[0]}]++
	}
	want := map[key]int{
		{1, 12}: 1,
		{2, 12}: 1, {2, 24}: 1,
		{3, 12}: 1, {3, 24}: 1,
		{4, 12}: 1, {4, 24}: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("placement classes %v, want %v", got, want)
	}
}

func TestEnumerateIDsAndOrdering(t *testing.T) {
	imps, err := Enumerate(context.Background(), amdSpec(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range imps {
		if p.ID != i+1 {
			t.Fatalf("placement %d has ID %d", i, p.ID)
		}
	}
	// Sorted by ascending node count.
	if !sort.SliceIsSorted(imps, func(i, j int) bool {
		return imps[i].Vec.Node < imps[j].Vec.Node
	}) {
		// Equal node counts may interleave; verify the node counts only.
		prev := 0
		for _, p := range imps {
			if p.Vec.Node < prev {
				t.Fatal("placements not sorted by node count")
			}
			prev = p.Vec.Node
		}
	}
	// Deterministic: re-running yields the identical list.
	again, err := Enumerate(context.Background(), amdSpec(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(imps, again) {
		t.Fatal("Enumerate is not deterministic")
	}
}

func TestEnumerateVectorsUnique(t *testing.T) {
	for _, tc := range []struct {
		spec *concern.Spec
		v    int
	}{{amdSpec(), 16}, {intelSpec(), 24}, {concern.FromMachine(machines.Zen()), 16}} {
		imps, err := Enumerate(context.Background(), tc.spec, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range imps {
			for _, q := range imps[:i] {
				if p.Vec.Equal(q.Vec) {
					t.Fatalf("duplicate vector %s", p.Vec)
				}
			}
		}
	}
}

func TestEnumerateErrors(t *testing.T) {
	if _, err := Enumerate(context.Background(), amdSpec(), 0); err == nil {
		t.Error("v=0 accepted")
	}
	if _, err := Enumerate(context.Background(), amdSpec(), -4); err == nil {
		t.Error("negative v accepted")
	}
	// 17 vCPUs: prime > 8 nodes, no balanced feasible node count.
	if _, err := Enumerate(context.Background(), amdSpec(), 17); err == nil {
		t.Error("v=17 should have no balanced feasible node counts on AMD")
	}
	// More vCPUs than hardware threads.
	if _, err := Enumerate(context.Background(), amdSpec(), 128); err == nil {
		t.Error("v=128 exceeds capacity, should error")
	}
	if _, err := Enumerate(context.Background(), &concern.Spec{Machine: machines.AMD()}, 16); err == nil {
		t.Error("invalid spec accepted")
	}
}

// canonical returns p's parts in ascending order, the order GenPackings
// emits them in.
func canonical(p Packing) Packing {
	q := append(Packing(nil), p...)
	slices.Sort(q)
	return q
}

// genPackingsNaive is the paper's Algorithm 2 verbatim: for every allowed
// size, for every combination of remaining nodes, recurse; duplicates (the
// same partition reached in different part orders) are removed afterwards.
// It is the test oracle for GenPackings.
func genPackingsNaive(nodeScores []int, all topology.NodeSet) []Packing {
	var out []Packing
	var rec func(left topology.NodeSet, cur Packing)
	rec = func(left topology.NodeSet, cur Packing) {
		for _, size := range nodeScores {
			if size > left.Len() {
				continue
			}
			left.Subsets(size, func(part topology.NodeSet) {
				remaining := left.Minus(part)
				next := append(append(Packing(nil), cur...), part)
				if remaining.Empty() {
					out = append(out, canonical(next))
				} else {
					rec(remaining, next)
				}
			})
		}
	}
	rec(all, nil)
	// Remove duplicates (exactly: sort canonically, then compact equal
	// neighbors — the oracle must never rely on hashed identity).
	slices.SortFunc(out, func(a, b Packing) int { return slices.Compare(a, b) })
	return slices.CompactFunc(out, func(a, b Packing) bool { return slices.Equal(a, b) })
}

func TestGenPackingsMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		sizes []int
		n     int
	}{
		{[]int{2, 4, 8}, 8},
		{[]int{1, 2, 3, 4}, 4},
		{[]int{2}, 6},
		{[]int{3}, 6},
		{[]int{1}, 5},
		{[]int{2, 3}, 7},
	} {
		all := topology.FullNodeSet(tc.n)
		fast := sortedPackings(GenPackings(tc.sizes, all))
		naive := sortedPackings(genPackingsNaive(tc.sizes, all))
		if !reflect.DeepEqual(fast, naive) {
			t.Errorf("sizes %v n=%d: canonical %d packings, naive %d; mismatch",
				tc.sizes, tc.n, len(fast), len(naive))
		}
	}
}

// sortedPackings returns a canonically ordered copy for exact set
// comparison.
func sortedPackings(ps []Packing) []Packing {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b Packing) int { return slices.Compare(a, b) })
	return out
}

func TestGenPackingsCountsAMD(t *testing.T) {
	// Partitions of 8 nodes into parts of size {2,4,8}:
	// (8): 1, (4,4): 35, (4,2,2): 210, (2,2,2,2): 105 -- total 351.
	packs := GenPackings([]int{2, 4, 8}, topology.FullNodeSet(8))
	if len(packs) != 351 {
		t.Fatalf("got %d packings, want 351", len(packs))
	}
	byShape := map[uint64]int{}
	for _, p := range packs {
		byShape[p.sizeKey()]++
	}
	want := map[uint64]int{
		shapeKey([]int{8}):          1,
		shapeKey([]int{4, 4}):       35,
		shapeKey([]int{2, 2, 4}):    210,
		shapeKey([]int{2, 2, 2, 2}): 105,
	}
	if !reflect.DeepEqual(byShape, want) {
		t.Fatalf("shapes %v, want %v", byShape, want)
	}
	// Every packing is an exact partition: parts disjoint, union = all.
	for _, p := range packs {
		var u topology.NodeSet
		total := 0
		for _, part := range p {
			if !u.Intersect(part).Empty() {
				t.Fatalf("packing %s has overlapping parts", p)
			}
			u = u.Union(part)
			total += part.Len()
		}
		if u != topology.FullNodeSet(8) || total != 8 {
			t.Fatalf("packing %s does not cover all nodes", p)
		}
	}
}

func TestFilterPackingsSymmetricCollapses(t *testing.T) {
	// On the symmetric Intel machine there is no Pareto concern, so each
	// part-size shape collapses to a single representative packing.
	spec := intelSpec()
	packs := GenPackings(spec.Node.FeasibleScores(24), topology.FullNodeSet(4))
	filtered := FilterPackings(spec, packs)
	shapes := map[uint64]int{}
	for _, p := range filtered {
		shapes[p.sizeKey()]++
	}
	for shape, n := range shapes {
		if n != 1 {
			t.Errorf("shape %b has %d representatives, want 1", shape, n)
		}
	}
}

func TestFilterPackingsKeepsParetoFrontier(t *testing.T) {
	spec := amdSpec()
	packs := FilterPackings(spec, GenPackings([]int{2, 4, 8}, topology.FullNodeSet(8)))
	// No surviving packing may dominate another surviving packing of the
	// same shape (frontier property).
	for i, a := range packs {
		for j, b := range packs {
			if i == j || a.sizeKey() != b.sizeKey() {
				continue
			}
			if dominatesFlat(paretoScoresFlat(spec, b), paretoScoresFlat(spec, a)) {
				t.Fatalf("surviving packing %s dominated by %s", a, b)
			}
		}
	}
	// The all-intra-package pairing must survive (it has the three best
	// pair scores).
	wantPairs := canonical(Packing{
		topology.NewNodeSet(0, 1), topology.NewNodeSet(2, 3),
		topology.NewNodeSet(4, 5), topology.NewNodeSet(6, 7),
	})
	found := false
	for _, p := range packs {
		if slices.Equal(p, wantPairs) {
			found = true
		}
	}
	if !found {
		t.Error("all-intra pairing missing from surviving packings")
	}
}

func TestVectorKeyAndString(t *testing.T) {
	v := Vector{PerNode: []int{16}, Node: 8, Pareto: []int64{35000}}
	if got := v.String(); got != "[16, 8, 35000]" {
		t.Errorf("String = %q", got)
	}
	w := Vector{PerNode: []int{16}, Node: 8, Pareto: []int64{35000}}
	if !v.Equal(w) {
		t.Error("equal vectors not Equal")
	}
	w.Pareto[0] = 34999
	if v.Equal(w) {
		t.Error("different vectors Equal")
	}
}

func TestExpandPerNodeRespectsDivisibility(t *testing.T) {
	// A hypothetical 12-vCPU container: L2 score 6 does not divide into a
	// 4-node part evenly (6 % 4 != 0) and must be rejected even though
	// 6 <= perNode*4.
	m := machines.AMD()
	spec := concern.FromMachine(m)
	feasible := [][]int{spec.PerNode[0].FeasibleScores(12)} // {6, 12}
	got := expandPerNode(spec, feasible, topology.NewNodeSet(0, 1, 2, 3))
	for _, p := range got {
		if p.PerNodeScores[0]%4 != 0 {
			t.Errorf("placement uses %d L2s over 4 nodes (unbalanced)", p.PerNodeScores[0])
		}
	}
}

func TestAllNodes(t *testing.T) {
	if got := AllNodes(amdSpec()); got != topology.FullNodeSet(8) {
		t.Errorf("AllNodes = %s", got)
	}
}

// TestImportantPlacementsAreSubsetOfBalancedFeasible: every important
// placement satisfies Algorithm 1's balance and feasibility constraints.
func TestImportantPlacementsAreSubsetOfBalancedFeasible(t *testing.T) {
	for _, tc := range []struct {
		spec *concern.Spec
		v    int
	}{{amdSpec(), 16}, {intelSpec(), 24}, {amdSpec(), 8}, {intelSpec(), 12}} {
		imps, err := Enumerate(context.Background(), tc.spec, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range imps {
			n := p.Vec.Node
			if tc.v%n != 0 {
				t.Errorf("v=%d: placement %s unbalanced across nodes", tc.v, p)
			}
			if tc.v/n > tc.spec.Node.Capacity {
				t.Errorf("v=%d: placement %s infeasible", tc.v, p)
			}
			for i, c := range tc.spec.PerNode {
				s := p.Vec.PerNode[i]
				if tc.v%s != 0 || tc.v/s > c.Capacity {
					t.Errorf("v=%d: placement %s violates %s constraints", tc.v, p, c.Name)
				}
			}
		}
	}
}

// TestEnumerateAcrossVCPUCounts: the pipeline works for every balanced
// feasible container size, and every placement remains pinnable.
func TestEnumerateAcrossVCPUCounts(t *testing.T) {
	for _, v := range []int{2, 4, 8, 16, 32, 64} {
		imps, err := Enumerate(context.Background(), amdSpec(), v)
		if err != nil {
			t.Fatalf("v=%d: %v", v, err)
		}
		if len(imps) == 0 {
			t.Fatalf("v=%d: no placements", v)
		}
		for _, p := range imps {
			if _, err := Pin(amdSpec(), p.Placement, v); err != nil {
				t.Errorf("v=%d: %s not pinnable: %v", v, p, err)
			}
		}
	}
}

// TestSingleVCPUDegenerateCase: one vCPU has one important placement per
// distinct single-node interconnect environment at most.
func TestSingleVCPUDegenerateCase(t *testing.T) {
	imps, err := Enumerate(context.Background(), intelSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range imps {
		if p.Vec.Node != 1 {
			t.Errorf("1 vCPU placed on %d nodes", p.Vec.Node)
		}
	}
}
