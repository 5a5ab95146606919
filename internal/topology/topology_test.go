package topology

import (
	"testing"
	"testing/quick"
)

func amdParams() Params {
	return Params{
		Name: "amd", NumNodes: 8, CoresPerNode: 8, ThreadsPerCore: 1,
		CoresPerL2: 2, L3PerNode: 1,
	}
}

func intelParams() Params {
	return Params{
		Name: "intel", NumNodes: 4, CoresPerNode: 12, ThreadsPerCore: 2,
		CoresPerL2: 1, L3PerNode: 1,
	}
}

func TestAMDStructure(t *testing.T) {
	top := New(amdParams())
	if got := top.TotalThreads(); got != 64 {
		t.Errorf("TotalThreads = %d, want 64", got)
	}
	if got := top.NumNodes * top.CoresPerNode; got != 64 {
		t.Errorf("cores = %d, want 64", got)
	}
	if top.NumL2 != 32 {
		t.Errorf("NumL2 = %d, want 32 (paper: L2Count 32)", top.NumL2)
	}
	if top.NumL3 != 8 {
		t.Errorf("NumL3 = %d, want 8", top.NumL3)
	}
	if got := top.ThreadsPerL2(); got != 2 {
		t.Errorf("ThreadsPerL2 = %d, want 2 (CMT pair)", got)
	}
	if got := top.ThreadsPerL3(); got != 8 {
		t.Errorf("ThreadsPerL3 = %d, want 8 (paper: 8 hw threads per L3)", got)
	}
	if got := top.L2PerNode(); got != 4 {
		t.Errorf("L2PerNode = %d, want 4", got)
	}
}

func TestIntelStructure(t *testing.T) {
	top := New(intelParams())
	if got := top.TotalThreads(); got != 96 {
		t.Errorf("TotalThreads = %d, want 96 (paper: 96 hardware threads)", got)
	}
	if top.NumL2 != 48 {
		t.Errorf("NumL2 = %d, want 48", top.NumL2)
	}
	if got := top.ThreadsPerL2(); got != 2 {
		t.Errorf("ThreadsPerL2 = %d, want 2 (SMT)", got)
	}
	if got := top.ThreadsPerL3(); got != 24 {
		t.Errorf("ThreadsPerL3 = %d, want 24", got)
	}
}

func TestThreadInvariants(t *testing.T) {
	for _, p := range []Params{amdParams(), intelParams(),
		{Name: "zen", NumNodes: 4, CoresPerNode: 8, ThreadsPerCore: 2, CoresPerL2: 1, L3PerNode: 2}} {
		top := New(p)
		if len(top.Threads) != top.TotalThreads() {
			t.Fatalf("%s: %d threads listed, want %d", p.Name, len(top.Threads), top.TotalThreads())
		}
		// Thread IDs are dense and self-indexed.
		for i, th := range top.Threads {
			if int(th.ID) != i {
				t.Fatalf("%s: thread %d has ID %d", p.Name, i, th.ID)
			}
			if th.Node < 0 || int(th.Node) >= p.NumNodes {
				t.Fatalf("%s: thread %d on bad node %d", p.Name, i, th.Node)
			}
		}
		// Every L2 domain holds exactly ThreadsPerL2 threads, every L3
		// exactly ThreadsPerL3, every node exactly ThreadsPerNode.
		l2 := map[DomainID]int{}
		l3 := map[DomainID]int{}
		node := map[NodeID]int{}
		for _, th := range top.Threads {
			l2[th.L2]++
			l3[th.L3]++
			node[th.Node]++
		}
		if len(l2) != top.NumL2 {
			t.Fatalf("%s: %d distinct L2 domains, want %d", p.Name, len(l2), top.NumL2)
		}
		if len(l3) != top.NumL3 {
			t.Fatalf("%s: %d distinct L3 domains, want %d", p.Name, len(l3), top.NumL3)
		}
		for d, n := range l2 {
			if n != top.ThreadsPerL2() {
				t.Fatalf("%s: L2 %d has %d threads, want %d", p.Name, d, n, top.ThreadsPerL2())
			}
		}
		for d, n := range l3 {
			if n != top.ThreadsPerL3() {
				t.Fatalf("%s: L3 %d has %d threads, want %d", p.Name, d, n, top.ThreadsPerL3())
			}
		}
		for id, n := range node {
			if n != top.ThreadsPerNode() {
				t.Fatalf("%s: node %d has %d threads, want %d", p.Name, id, n, top.ThreadsPerNode())
			}
		}
		// Threads sharing an L2 share an L3 and a node (cache hierarchy
		// is strictly nested).
		byL2 := map[DomainID]Thread{}
		for _, th := range top.Threads {
			if first, ok := byL2[th.L2]; ok {
				if first.L3 != th.L3 || first.Node != th.Node {
					t.Fatalf("%s: L2 domain %d spans L3/nodes", p.Name, th.L2)
				}
			} else {
				byL2[th.L2] = th
			}
		}
	}
}

func TestNewPanicsOnInvalidParams(t *testing.T) {
	cases := []Params{
		{NumNodes: 0, CoresPerNode: 8, ThreadsPerCore: 1, CoresPerL2: 2, L3PerNode: 1},
		{NumNodes: MaxNodes + 1, CoresPerNode: 8, ThreadsPerCore: 1, CoresPerL2: 2, L3PerNode: 1},
		{NumNodes: 8, CoresPerNode: 0, ThreadsPerCore: 1, CoresPerL2: 2, L3PerNode: 1},
		{NumNodes: 8, CoresPerNode: 8, ThreadsPerCore: 0, CoresPerL2: 2, L3PerNode: 1},
		{NumNodes: 8, CoresPerNode: 8, ThreadsPerCore: 1, CoresPerL2: 3, L3PerNode: 1}, // 3 does not divide 8
		{NumNodes: 8, CoresPerNode: 8, ThreadsPerCore: 1, CoresPerL2: 2, L3PerNode: 3}, // 3 does not divide 8
		{NumNodes: 8, CoresPerNode: 8, ThreadsPerCore: 1, CoresPerL2: 4, L3PerNode: 4}, // L3 smaller than L2 group
	}
	for i, p := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, p)
				}
			}()
			New(p)
		}()
	}
}

func TestNodeSetBasics(t *testing.T) {
	s := NewNodeSet(2, 3, 4, 5)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if !s.Contains(3) || s.Contains(6) {
		t.Fatal("Contains wrong")
	}
	if got := s.String(); got != "{2,3,4,5}" {
		t.Fatalf("String = %q", got)
	}
	if got := s.Remove(3).Add(7); got.Len() != 4 || got.Contains(3) || !got.Contains(7) {
		t.Fatalf("Remove/Add wrong: %s", got)
	}
	full := FullNodeSet(8)
	if full.Len() != 8 {
		t.Fatalf("FullNodeSet(8).Len = %d", full.Len())
	}
	if got := full.Minus(s); got.Len() != 4 || got.Contains(2) {
		t.Fatalf("Minus wrong: %s", got)
	}
	if got := s.Intersect(NewNodeSet(4, 5, 6)); got != NewNodeSet(4, 5) {
		t.Fatalf("Intersect wrong: %s", got)
	}
	if got := s.Union(NewNodeSet(0)); got.Len() != 5 {
		t.Fatalf("Union wrong: %s", got)
	}
	if !NodeSet(0).Empty() || s.Empty() {
		t.Fatal("Empty wrong")
	}
	if FullNodeSet(0) != 0 {
		t.Fatal("FullNodeSet(0) should be empty")
	}
	if FullNodeSet(64) != ^NodeSet(0) {
		t.Fatal("FullNodeSet(64) should be all ones")
	}
}

func TestNodeSetSubsetsCounts(t *testing.T) {
	// Subsets(k) must enumerate exactly C(n, k) distinct subsets.
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 0; i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for n := 0; n <= 8; n++ {
		for k := -1; k <= n+1; k++ {
			seen := map[NodeSet]bool{}
			FullNodeSet(n).Subsets(k, func(s NodeSet) {
				if s.Len() != k {
					t.Fatalf("subset %s has size %d, want %d", s, s.Len(), k)
				}
				if seen[s] {
					t.Fatalf("duplicate subset %s", s)
				}
				seen[s] = true
			})
			if len(seen) != binom(n, k) {
				t.Fatalf("n=%d k=%d: %d subsets, want %d", n, k, len(seen), binom(n, k))
			}
		}
	}
}

func TestNodeSetQuickProperties(t *testing.T) {
	// IDs round-trips through NewNodeSet.
	roundTrip := func(raw uint16) bool {
		s := NodeSet(raw)
		return NewNodeSet(s.IDs()...) == s
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
	// Len is consistent with IDs, ForEach visits Len elements ascending.
	lenOK := func(raw uint16) bool {
		s := NodeSet(raw)
		ids := s.IDs()
		if len(ids) != s.Len() {
			return false
		}
		prev := NodeID(-1)
		ok := true
		n := 0
		s.ForEach(func(id NodeID) {
			if id <= prev {
				ok = false
			}
			prev = id
			n++
		})
		return ok && n == s.Len()
	}
	if err := quick.Check(lenOK, nil); err != nil {
		t.Error(err)
	}
	// Set algebra: Minus then Union restores a superset relation.
	algebra := func(a, b uint16) bool {
		x, y := NodeSet(a), NodeSet(b)
		return x.Minus(y).Intersect(y) == 0 &&
			x.Minus(y).Union(x.Intersect(y)) == x &&
			x.Union(y).Len() == x.Len()+y.Len()-x.Intersect(y).Len()
	}
	if err := quick.Check(algebra, nil); err != nil {
		t.Error(err)
	}
}

func TestTopologyString(t *testing.T) {
	top := New(amdParams())
	want := "amd: 8 nodes x 8 cores x 1 threads (64 hw threads, 32 L2, 8 L3)"
	if got := top.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// TestNodeOfThread: the node hosting a thread reads the same both ways, as
// the thread's Node and as membership in that node's Threads.
func TestNodeOfThread(t *testing.T) {
	top := New(intelParams())
	seen := 0
	for _, n := range top.Nodes {
		for _, id := range n.Threads {
			if got := top.Threads[id].Node; got != n.ID {
				t.Fatalf("thread %d is listed by node %d but says node %d", id, n.ID, got)
			}
			seen++
		}
	}
	if seen != len(top.Threads) {
		t.Fatalf("nodes list %d threads, want %d", seen, len(top.Threads))
	}
}
