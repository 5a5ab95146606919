package placement

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/concern"
	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/topology"
)

func TestPinAMDAllImportantPlacements(t *testing.T) {
	spec := amdSpec()
	topo := spec.Machine.Topo
	imps, err := Enumerate(context.Background(), spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range imps {
		threads, err := Pin(spec, p.Placement, 16)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(threads) != 16 {
			t.Fatalf("%s: pinned %d threads", p, len(threads))
		}
		// Threads distinct, each vCPU on its own hardware thread.
		seen := map[topology.ThreadID]bool{}
		nodeCount := map[topology.NodeID]int{}
		l2Used := map[topology.DomainID]int{}
		for _, id := range threads {
			if seen[id] {
				t.Fatalf("%s: thread %d pinned twice", p, id)
			}
			seen[id] = true
			th := topo.Threads[id]
			if !p.Nodes.Contains(th.Node) {
				t.Fatalf("%s: thread %d on node %d outside placement", p, id, th.Node)
			}
			nodeCount[th.Node]++
			l2Used[th.L2]++
		}
		// Balance: equal vCPUs per node.
		perNode := 16 / p.Nodes.Len()
		for n, c := range nodeCount {
			if c != perNode {
				t.Fatalf("%s: node %d has %d vCPUs, want %d", p, n, c, perNode)
			}
		}
		if len(nodeCount) != p.Nodes.Len() {
			t.Fatalf("%s: used %d nodes, want %d", p, len(nodeCount), p.Nodes.Len())
		}
		// L2 score honoured: exactly that many L2 domains, evenly loaded.
		if len(l2Used) != p.PerNodeScores[0] {
			t.Fatalf("%s: used %d L2 domains, want %d", p, len(l2Used), p.PerNodeScores[0])
		}
		perL2 := 16 / p.PerNodeScores[0]
		for d, c := range l2Used {
			if c != perL2 {
				t.Fatalf("%s: L2 %d has %d vCPUs, want %d", p, d, c, perL2)
			}
		}
	}
}

func TestPinIntelAllImportantPlacements(t *testing.T) {
	spec := intelSpec()
	topo := spec.Machine.Topo
	imps, err := Enumerate(context.Background(), spec, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range imps {
		threads, err := Pin(spec, p.Placement, 24)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		l2Used := map[topology.DomainID]int{}
		coresUsed := map[topology.CoreID]int{}
		for _, id := range threads {
			th := topo.Threads[id]
			l2Used[th.L2]++
			coresUsed[th.Core]++
		}
		if len(l2Used) != p.Vec.PerNode[0] {
			t.Fatalf("%s: used %d L2 domains, want %d", p, len(l2Used), p.Vec.PerNode[0])
		}
		// No-SMT placements (L2 score 24) put one vCPU per core; SMT
		// placements (score 12) put two on each used core.
		wantPerCore := 24 / p.Vec.PerNode[0]
		for c, n := range coresUsed {
			if n != wantPerCore {
				t.Fatalf("%s: core %d has %d vCPUs, want %d", p, c, n, wantPerCore)
			}
		}
	}
}

func TestPinPrefersDistinctCores(t *testing.T) {
	// Intel, 24 vCPUs, 4 nodes, L2 score 24 (no SMT): all SMT indices 0.
	spec := intelSpec()
	topo := spec.Machine.Topo
	p := Placement{Nodes: topology.FullNodeSet(4), PerNodeScores: []int{24}}
	threads, err := Pin(spec, p, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range threads {
		if topo.Threads[id].SMT != 0 {
			t.Fatalf("no-SMT placement uses sibling thread %d", id)
		}
	}
}

func TestPinErrors(t *testing.T) {
	spec := amdSpec()
	// Empty node set.
	if _, err := Pin(spec, Placement{}, 16); err == nil {
		t.Error("empty placement accepted")
	}
	// vCPUs not divisible by nodes.
	if _, err := Pin(spec, Placement{Nodes: topology.NewNodeSet(0, 1, 2), PerNodeScores: []int{8}}, 16); err == nil {
		t.Error("16 vCPUs on 3 nodes accepted")
	}
	// Too many vCPUs per node.
	if _, err := Pin(spec, Placement{Nodes: topology.NewNodeSet(0), PerNodeScores: []int{8}}, 16); err == nil {
		t.Error("16 vCPUs on one 8-thread node accepted")
	}
	// Wrong per-node score count.
	if _, err := Pin(spec, Placement{Nodes: topology.NewNodeSet(0, 1), PerNodeScores: nil}, 16); err == nil {
		t.Error("missing per-node scores accepted")
	}
	// L2 score not divisible by node count.
	if _, err := Pin(spec, Placement{Nodes: topology.NewNodeSet(0, 1, 2, 5), PerNodeScores: []int{10}}, 16); err == nil {
		t.Error("unbalanced L2 score accepted")
	}
}

func TestPinDeterministic(t *testing.T) {
	spec := amdSpec()
	p := Placement{Nodes: topology.NewNodeSet(2, 3, 4, 5), PerNodeScores: []int{16}}
	a, err := Pin(spec, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Pin(spec, p, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Pin not deterministic")
		}
	}
}

func TestPinZen(t *testing.T) {
	spec := zenSpec()
	imps, err := Enumerate(context.Background(), spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := spec.Machine.Topo
	for _, p := range imps {
		threads, err := Pin(spec, p.Placement, 16)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		l3Used := map[topology.DomainID]bool{}
		l2Used := map[topology.DomainID]bool{}
		for _, id := range threads {
			l3Used[topo.Threads[id].L3] = true
			l2Used[topo.Threads[id].L2] = true
		}
		// Zen per-node concerns: [L3, L2/SMT]; both scores must be honoured.
		if len(l3Used) != p.Vec.PerNode[0] {
			t.Fatalf("%s: used %d L3s, want %d", p, len(l3Used), p.Vec.PerNode[0])
		}
		if len(l2Used) != p.Vec.PerNode[1] {
			t.Fatalf("%s: used %d L2s, want %d", p, len(l2Used), p.Vec.PerNode[1])
		}
	}
}

func zenSpec() *concern.Spec { return concern.FromMachine(machines.Zen()) }

// pinOracle is Pin as it stood before the in-place walk: candidates grouped
// through a map per level, domains and leaves ordered by sort.Slice. It is
// kept as the reference TestPinMatchesOracle holds Pin to.
func pinOracle(spec *concern.Spec, p Placement, v int) ([]topology.ThreadID, error) {
	t := spec.Machine.Topo
	nodes := p.Nodes.IDs()
	n := len(nodes)
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

	// Build the chain of sharing levels: node count, then each per-node
	// concern score coarse to fine. Each level's score must divide the
	// next (the balance property, enforced by Enumerate).
	scores := append([]int{n}, p.PerNodeScores...)
	for i := 1; i < len(scores); i++ {
		c := spec.PerNode[i-1]
		if scores[i]%scores[i-1] != 0 {
			return nil, fmt.Errorf("placement: concern %q score %d not divisible by coarser score %d",
				c.Name, scores[i], scores[i-1])
		}
		if v%scores[i] != 0 {
			return nil, fmt.Errorf("placement: %d vCPUs not divisible by %q score %d", v, c.Name, scores[i])
		}
	}

	// domainOf returns the grouping key of a thread at a given level.
	domainOf := func(level int, th topology.Thread) (topology.DomainID, error) {
		if level == 0 {
			return topology.DomainID(th.Node), nil
		}
		switch spec.PerNode[level-1].Name {
		case "L2/SMT":
			return th.L2, nil
		case "L3":
			return th.L3, nil
		default:
			return 0, fmt.Errorf("placement: unknown per-node concern %q", spec.PerNode[level-1].Name)
		}
	}

	// Recursively select threads: at each level, group the candidate
	// threads by domain, keep the first (score[level]/score[level-1])
	// domains, and recurse into each with an equal share of vCPUs.
	var pick func(level int, candidates []topology.Thread, want int) ([]topology.ThreadID, error)
	pick = func(level int, candidates []topology.Thread, want int) ([]topology.ThreadID, error) {
		if level == len(scores) {
			// Leaf: pick `want` threads, distinct cores before SMT siblings.
			sort.Slice(candidates, func(i, j int) bool {
				if candidates[i].SMT != candidates[j].SMT {
					return candidates[i].SMT < candidates[j].SMT
				}
				return candidates[i].ID < candidates[j].ID
			})
			if want > len(candidates) {
				return nil, fmt.Errorf("placement: need %d threads, domain has %d", want, len(candidates))
			}
			ids := make([]topology.ThreadID, want)
			for i := 0; i < want; i++ {
				ids[i] = candidates[i].ID
			}
			return ids, nil
		}
		perParent := scores[level]
		if level > 0 {
			perParent = scores[level] / scores[level-1]
		}
		byDomain := make(map[topology.DomainID][]topology.Thread)
		var order []topology.DomainID
		for _, th := range candidates {
			d, err := domainOf(level, th)
			if err != nil {
				return nil, err
			}
			if _, ok := byDomain[d]; !ok {
				order = append(order, d)
			}
			byDomain[d] = append(byDomain[d], th)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		if level == 0 {
			// Node level: the placement's node set *is* the selection.
			order = order[:0]
			for _, id := range nodes {
				order = append(order, topology.DomainID(id))
			}
		} else {
			if perParent > len(order) {
				return nil, fmt.Errorf("placement: need %d domains at level %d, have %d", perParent, level, len(order))
			}
			order = order[:perParent]
		}
		if want%len(order) != 0 {
			return nil, fmt.Errorf("placement: %d vCPUs not divisible over %d domains", want, len(order))
		}
		share := want / len(order)
		var out []topology.ThreadID
		for _, d := range order {
			ids, err := pick(level+1, byDomain[d], share)
			if err != nil {
				return nil, err
			}
			out = append(out, ids...)
		}
		return out, nil
	}

	all := make([]topology.Thread, 0, v)
	for _, node := range nodes {
		for _, tid := range t.Nodes[node].Threads {
			all = append(all, t.Threads[tid])
		}
	}
	pinned, err := pick(0, all, v)
	if err != nil {
		return nil, err
	}
	sort.Slice(pinned, func(i, j int) bool { return pinned[i] < pinned[j] })
	return pinned, nil
}

// samePin fails unless Pin and the oracle agree on p: the same threads, or
// the same error text.
func samePin(t *testing.T, spec *concern.Spec, p Placement, v int) {
	t.Helper()
	got, gotErr := Pin(spec, p, v)
	want, wantErr := pinOracle(spec, p, v)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %v, %d vCPUs: error %v, oracle's %v", spec.Machine.Topo.Name, p, v, gotErr, wantErr)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s %v, %d vCPUs: pinned %v, oracle %v", spec.Machine.Topo.Name, p, v, got, want)
	}
}

// TestPinMatchesOracle holds Pin to the implementation it replaced over
// every important placement on every node set of its size, and over the
// inputs that must fail.
func TestPinMatchesOracle(t *testing.T) {
	for _, spec := range []*concern.Spec{amdSpec(), intelSpec(), zenSpec()} {
		all := topology.FullNodeSet(spec.Machine.Topo.NumNodes)
		pinned := 0
		for _, v := range []int{8, 16, 24, 32} {
			imps, err := Enumerate(context.Background(), spec, v)
			if err != nil {
				continue // no balanced placement of this size on this machine
			}
			for _, imp := range imps {
				all.Subsets(imp.Nodes.Len(), func(nodes topology.NodeSet) {
					samePin(t, spec, Placement{Nodes: nodes, PerNodeScores: imp.PerNodeScores}, v)
					pinned++
				})
			}
		}
		if pinned == 0 {
			t.Fatalf("%s: no placement compared", spec.Machine.Topo.Name)
		}

		// What must fail, once per check in Pin and in the walk. Every
		// per-node concern gets the same score.
		nodes01 := topology.NewNodeSet(0, 1)
		for _, bad := range []struct {
			nodes  topology.NodeSet
			score  int
			scores int // how many scores; -1: one per concern
			v      int
		}{
			{0, 4, -1, 16}, // empty node set
			{topology.NewNodeSet(0, 1, 2), 4, -1, 16}, // vCPUs indivisible by nodes
			{nodes01, 4, 0, 16},                       // no scores
			{nodes01, 4, len(spec.PerNode) + 1, 16},   // one score too many
			{topology.NewNodeSet(0), 4, -1, 1024},     // over a node's capacity
			{topology.FullNodeSet(4), 6, -1, 24},      // score indivisible by node count
			{nodes01, 16, -1, 24},                     // vCPUs indivisible by score
			{nodes01, 32, -1, 32},                     // more domains than a node has
			{nodes01, 2, -1, 32},                      // more threads than a domain has
		} {
			if bad.scores < 0 {
				bad.scores = len(spec.PerNode)
			}
			samePin(t, spec, Placement{Nodes: bad.nodes, PerNodeScores: slices.Repeat([]int{bad.score}, bad.scores)}, bad.v)
		}
	}

	// A concern Pin has no domain for is refused when the walk reaches it.
	odd := *amdSpec()
	odd.PerNode = []*concern.CountConcern{{Name: "L4"}}
	samePin(t, &odd, Placement{Nodes: topology.NewNodeSet(0, 1), PerNodeScores: []int{4}}, 8)

	// On the stock machines the finest concern is L2/SMT, so a leaf never
	// holds two cores' siblings. Without it a leaf is an Intel node's twelve
	// hyperthreaded cores, and a quarter load must take six cores' first
	// threads, not three cores whole.
	wide := *intelSpec()
	wide.PerNode = []*concern.CountConcern{{Name: "L3"}}
	p := Placement{Nodes: topology.NewNodeSet(1, 2), PerNodeScores: []int{2}}
	samePin(t, &wide, p, 12)
	threads, err := Pin(&wide, p, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range threads {
		if wide.Machine.Topo.Threads[id].SMT != 0 {
			t.Fatalf("%v: thread %d is an SMT sibling while cores sit idle", threads, id)
		}
	}
}

// TestPinColdAllocCeiling bounds a cold pin, which every fresh engine of a
// recovering fleet runs once per placement it replays: the result, the
// scratch copy of one node's thread table, and nothing per level.
func TestPinColdAllocCeiling(t *testing.T) {
	spec := amdSpec()
	imps, err := Enumerate(context.Background(), spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range imps {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Pin(spec, imp.Placement, 16); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Fatalf("%s: a cold pin allocates %v times, want <= 4", imp, allocs)
		}
	}
}
