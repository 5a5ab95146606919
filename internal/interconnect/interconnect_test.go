package interconnect

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// ladder builds the calibrated AMD-style graph used across the tests.
func ladder() *Graph {
	g := NewGraph(8)
	type link struct {
		a, b topology.NodeID
		bw   int64
	}
	for _, l := range []link{
		{0, 1, 2096}, {6, 7, 2096}, {2, 3, 1876}, {4, 5, 1926},
		{0, 2, 1675}, {0, 4, 1500}, {0, 6, 625},
		{2, 4, 1750}, {2, 6, 1675}, {4, 6, 1575},
		{1, 3, 1575}, {1, 5, 1625}, {1, 7, 650},
		{3, 5, 1800}, {3, 7, 1575}, {5, 7, 1450},
	} {
		g.AddLink(l.a, l.b, l.bw)
	}
	return g
}

func TestSymmetricGraph(t *testing.T) {
	g := NewSymmetric(4, 9000)
	if !g.Symmetric() {
		t.Fatal("NewSymmetric not Symmetric")
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if bw := g.Measure(topology.NewNodeSet(topology.NodeID(i), topology.NodeID(j))); bw != 9000 {
				t.Fatalf("Measure({%d,%d}) = %d, want 9000", i, j, bw)
			}
			if h := g.Hops(topology.NodeID(i), topology.NodeID(j)); h != 1 {
				t.Fatalf("Hops(%d,%d) = %d, want 1", i, j, h)
			}
		}
	}
	// Aggregate of a k-node set is C(k,2) * bw.
	if got := g.Measure(topology.NewNodeSet(0, 1, 2)); got != 3*9000 {
		t.Fatalf("Measure 3 nodes = %d, want %d", got, 3*9000)
	}
	if got := g.Measure(topology.FullNodeSet(4)); got != 6*9000 {
		t.Fatalf("Measure 4 nodes = %d, want %d", got, 6*9000)
	}
}

func TestAsymmetricDetected(t *testing.T) {
	if ladder().Symmetric() {
		t.Fatal("ladder graph reported symmetric")
	}
	// Fully connected but unequal bandwidths is also asymmetric.
	g := NewGraph(3)
	g.AddLink(0, 1, 100)
	g.AddLink(0, 2, 100)
	g.AddLink(1, 2, 200)
	if g.Symmetric() {
		t.Fatal("unequal full mesh reported symmetric")
	}
}

func TestPaperTwoHopPairs(t *testing.T) {
	g := ladder()
	// The paper's packing example: nodes 0-5 and 3-6 are two hops apart.
	for _, pair := range [][2]topology.NodeID{{0, 5}, {3, 6}} {
		if g.link[pair[0]][pair[1]] != 0 {
			t.Errorf("nodes %d-%d should have no direct link", pair[0], pair[1])
		}
		if h := g.Hops(pair[0], pair[1]); h != 2 {
			t.Errorf("Hops(%d,%d) = %d, want 2", pair[0], pair[1], h)
		}
	}
}

func TestRoutedDiscountPrefersDirectLink(t *testing.T) {
	// A direct link must win over a wider two-hop route whenever the
	// discounted route is slower: direct 2800 vs min(4200,3000)/2 = 1500.
	g := NewGraph(4)
	g.AddLink(0, 1, 4200)
	g.AddLink(1, 2, 3000)
	g.AddLink(0, 2, 2800)
	if bw := g.Measure(topology.NewNodeSet(0, 2)); bw != 2800 {
		t.Fatalf("Measure({0,2}) = %d, want direct 2800", bw)
	}
	if h := g.Hops(0, 2); h != 1 {
		t.Fatalf("Hops(0,2) = %d, want 1", h)
	}
}

func TestRoutedBypassOfWeakDirectLink(t *testing.T) {
	// A weak direct link is bypassed when a routed path is faster even
	// after the per-hop discount: direct 400 vs min(4000,3000)/2 = 1500.
	g := NewGraph(3)
	g.AddLink(0, 1, 4000)
	g.AddLink(1, 2, 3000)
	g.AddLink(0, 2, 400)
	if bw := g.Measure(topology.NewNodeSet(0, 2)); bw != 1500 {
		t.Fatalf("Measure({0,2}) = %d, want routed 1500", bw)
	}
	if h := g.Hops(0, 2); h != 2 {
		t.Fatalf("Hops(0,2) = %d, want 2", h)
	}
}

func TestMultiHopDiscountCompounds(t *testing.T) {
	// Chain 0-1-2-3 of 8000 links: pair 0-3 is 8000/4 = 2000 (two extra hops).
	g := NewGraph(4)
	g.AddLink(0, 1, 8000)
	g.AddLink(1, 2, 8000)
	g.AddLink(2, 3, 8000)
	if bw := g.Measure(topology.NewNodeSet(0, 3)); bw != 2000 {
		t.Fatalf("Measure({0,3}) = %d, want 2000", bw)
	}
	if bw := g.Measure(topology.NewNodeSet(0, 2)); bw != 4000 {
		t.Fatalf("Measure({0,2}) = %d, want 4000", bw)
	}
}

func TestDisconnectedPair(t *testing.T) {
	g := NewGraph(4)
	g.AddLink(0, 1, 1000)
	g.AddLink(2, 3, 1000)
	if bw := g.Measure(topology.NewNodeSet(0, 2)); bw != 0 {
		t.Fatalf("Measure across components = %d, want 0", bw)
	}
	if h := g.Hops(0, 2); h != 0 {
		t.Fatalf("Hops across components = %d, want 0", h)
	}
	if got := g.Measure(topology.NewNodeSet(0, 2)); got != 0 {
		t.Fatalf("Measure disconnected pair = %d, want 0", got)
	}
}

func TestMeasureBasics(t *testing.T) {
	g := ladder()
	if got := g.Measure(topology.NewNodeSet(3)); got != 0 {
		t.Fatalf("single-node Measure = %d, want 0", got)
	}
	if got := g.Measure(0); got != 0 {
		t.Fatalf("empty Measure = %d, want 0", got)
	}
	// Calibrated total: the paper's 8-node aggregate.
	if got := g.Measure(topology.FullNodeSet(8)); got != 35000 {
		t.Fatalf("full Measure = %d, want 35000", got)
	}
	// Paper fact: {2,3,4,5} is the highest-bandwidth 4-node set.
	best := g.Measure(topology.NewNodeSet(2, 3, 4, 5))
	topology.FullNodeSet(8).Subsets(4, func(s topology.NodeSet) {
		if s != topology.NewNodeSet(2, 3, 4, 5) && g.Measure(s) >= best {
			t.Errorf("set %s measures %d >= best %d", s, g.Measure(s), best)
		}
	})
}

func TestMeasureMonotoneUnderSuperset(t *testing.T) {
	g := ladder()
	full := topology.FullNodeSet(8)
	// Adding a node never decreases the aggregate score.
	check := func(raw uint8, extra uint8) bool {
		s := topology.NodeSet(raw).Intersect(full)
		id := topology.NodeID(extra % 8)
		return g.Measure(s.Add(id)) >= g.Measure(s)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestMeasureSymmetryUnderPairSwap(t *testing.T) {
	// Pair bandwidth is symmetric: Measure must not depend on node order.
	g := ladder()
	g.Measure(topology.FullNodeSet(8)) // computes the pair matrix
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			a, b := topology.NodeID(i), topology.NodeID(j)
			if g.pair[a][b] != g.pair[b][a] {
				t.Fatalf("pair bandwidth asymmetric for %d,%d", i, j)
			}
			if g.Hops(a, b) != g.Hops(b, a) {
				t.Fatalf("Hops asymmetric for %d,%d", i, j)
			}
		}
	}
}

func TestAddLinkPanics(t *testing.T) {
	cases := []func(*Graph){
		func(g *Graph) { g.AddLink(0, 0, 100) },
		func(g *Graph) { g.AddLink(0, 9, 100) },
		func(g *Graph) { g.AddLink(-1, 1, 100) },
		func(g *Graph) { g.AddLink(0, 1, 0) },
		func(g *Graph) { g.AddLink(0, 1, -5) },
		func(g *Graph) {
			g.AddLink(0, 1, 100)
			g.Measure(topology.NewNodeSet(0, 1)) // freezes the graph
			g.AddLink(1, 2, 100)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn(NewGraph(4))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewGraph(0) did not panic")
			}
		}()
		NewGraph(0)
	}()
}

func TestLinkAccessors(t *testing.T) {
	// AddLink installs both directions; an unlinked pair reads 0.
	g := ladder()
	if bw := g.link[0][1]; bw != 2096 {
		t.Fatalf("link 0-1 = %d, want 2096", bw)
	}
	if bw := g.link[1][0]; bw != 2096 {
		t.Fatalf("link 1-0 = %d, want 2096", bw)
	}
	if bw := g.link[0][5]; bw != 0 {
		t.Fatalf("link 0-5 = %d, want 0", bw)
	}
	if g.n != 8 {
		t.Fatalf("n = %d, want 8", g.n)
	}
}
