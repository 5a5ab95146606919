// Command calibrate searches for AMD interconnect link bandwidths that
// reproduce the placement facts published in the paper (§4): exactly 13
// important placements for 16 vCPUs, composed of two 8-node, eight 4-node
// and three 2-node placements; {2,3,4,5} the best 4-node set; the
// {0,2,4,6}+{1,3,5,7} packing surviving; {0,1,4,5}+{2,3,6,7} filtered; and
// an 8-node aggregate bandwidth of 35000 MB/s.
//
// The link *structure* is fixed (a twisted ladder: intra-package links plus
// an even-die clique and an odd-die clique, so every even-odd cross-package
// pair is two hops, matching the paper's 0-5 and 3-6 examples). Intra-
// package links fall into three measured bandwidth classes — that is what
// produces the paper's three 2-node placements. The search is over
// bandwidth values on a 100 MB/s grid; it derived the constants in
// internal/machines and is kept as a maintenance tool for porting the
// reconstruction to other link structures.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/concern"
	"repro/internal/interconnect"
	"repro/internal/machines"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/xrand"
)

type params struct {
	wa int64 // intra-package links 0-1 and 6-7 (fastest class)
	wb int64 // intra-package link 2-3
	wc int64 // intra-package link 4-5
	// Even-die clique.
	e02, e04, e06, e24, e26, e46 int64
	// Odd-die clique.
	o13, o15, o17, o35, o37, o57 int64
}

func (p params) graph() *interconnect.Graph {
	g := interconnect.NewGraph(8)
	type link struct {
		a, b topology.NodeID
		bw   int64
	}
	for _, l := range []link{
		{0, 1, p.wa}, {6, 7, p.wa}, {2, 3, p.wb}, {4, 5, p.wc},
		{0, 2, p.e02}, {0, 4, p.e04}, {0, 6, p.e06},
		{2, 4, p.e24}, {2, 6, p.e26}, {4, 6, p.e46},
		{1, 3, p.o13}, {1, 5, p.o15}, {1, 7, p.o17},
		{3, 5, p.o35}, {3, 7, p.o37}, {5, 7, p.o57},
	} {
		g.AddLink(l.a, l.b, l.bw)
	}
	return g
}

// check runs the placement pipeline for the candidate graph and reports
// whether all paper facts hold; the second return is a failure reason.
// exactTotal additionally requires the 8-node aggregate to be 35000 MB/s.
func check(g *interconnect.Graph, exactTotal bool) (bool, string) {
	m := machines.AMD()
	m.IC = g
	spec := concern.FromMachine(m)
	imps, err := placement.Enumerate(spec, 16)
	if err != nil {
		return false, err.Error()
	}
	byNodes := map[int]int{}
	for _, p := range imps {
		byNodes[p.Vec.Node]++
	}
	if n := byNodes[2]; n != 3 {
		return false, fmt.Sprintf("2-node count %d", n)
	}
	if n := byNodes[4]; n != 8 {
		return false, fmt.Sprintf("4-node count %d", n)
	}
	if len(imps) != 13 {
		return false, fmt.Sprintf("count %d composition %v", len(imps), byNodes)
	}
	best4 := topology.NewNodeSet(2, 3, 4, 5)
	evens := topology.NewNodeSet(0, 2, 4, 6)
	odds := topology.NewNodeSet(1, 3, 5, 7)
	comp := topology.NewNodeSet(0, 1, 6, 7)
	bad1 := topology.NewNodeSet(0, 1, 4, 5)
	bad2 := topology.NewNodeSet(2, 3, 6, 7)
	sets := map[topology.NodeSet]bool{}
	var maxIC int64
	for _, p := range imps {
		if p.Vec.Node == 4 {
			sets[p.Nodes] = true
			if ic := p.Vec.Pareto[0]; ic > maxIC {
				maxIC = ic
			}
		}
	}
	if !sets[best4] {
		return false, "missing {2,3,4,5}"
	}
	if !sets[evens] || !sets[odds] {
		return false, "missing evens/odds"
	}
	if !sets[comp] {
		return false, "missing {0,1,6,7}"
	}
	if sets[bad1] || sets[bad2] {
		return false, "{0,1,4,5} or {2,3,6,7} survived"
	}
	if g.Measure(best4) != maxIC {
		return false, "best 4-node set is not {2,3,4,5}"
	}
	if total := g.Measure(topology.FullNodeSet(8)); exactTotal && total != 35000 {
		return false, fmt.Sprintf("total %d != 35000", total)
	}
	return true, ""
}

// fields returns pointers to every tunable parameter, for local search.
func (p *params) fields() []*int64 {
	return []*int64{
		&p.wa, &p.wb, &p.wc,
		&p.e02, &p.e04, &p.e06, &p.e24, &p.e26, &p.e46,
		&p.o13, &p.o15, &p.o17, &p.o35, &p.o37, &p.o57,
	}
}

// tuneTotal hill-climbs single-parameter adjustments until the 8-node
// aggregate is exactly 35000 MB/s while every structural fact still holds.
func tuneTotal(p params) (params, bool) {
	// First try a global rescale toward the target: structural facts are
	// (approximately) scale-invariant, so this usually lands close without
	// breaking them.
	if total := p.graph().Measure(topology.FullNodeSet(8)); total != 35000 {
		q := p
		for _, f := range q.fields() {
			*f = (*f*35000/total + 12) / 25 * 25
		}
		if ok, _ := check(q.graph(), false); ok {
			p = q
		}
	}
	deltas := []int64{-1000, -500, -200, -100, -50, -25, -10, -5, -2, -1, 1, 2, 5, 10, 25, 50, 100, 200, 500, 1000}
	for round := 0; round < 12; round++ {
		total := p.graph().Measure(topology.FullNodeSet(8))
		if total == 35000 {
			return p, true
		}
		improved := false
		for _, f := range p.fields() {
			orig := *f
			for _, delta := range deltas {
				*f = orig + delta
				if *f <= 0 {
					continue
				}
				g := p.graph()
				if ok, _ := check(g, false); !ok {
					continue
				}
				t := g.Measure(topology.FullNodeSet(8))
				if abs64(t-35000) < abs64(total-35000) {
					total = t
					improved = true
					orig = *f
				}
			}
			*f = orig
		}
		if !improved {
			return p, false
		}
	}
	return p, p.graph().Measure(topology.FullNodeSet(8)) == 35000
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [debug]\n", os.Args[0])
		fmt.Fprintln(os.Stderr, "  debug: report the checked-in parameter set instead of searching")
	}
	flag.Parse()
	if flag.NArg() > 1 || (flag.NArg() == 1 && flag.Arg(0) != "debug") {
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		p := params{wa: 4200, wb: 3400, wc: 3700,
			e02: 3000, e04: 2500, e06: 1200, e24: 3200, e26: 2600, e46: 2900,
			o13: 2800, o15: 2400, o17: 1000, o35: 3100, o37: 2300, o57: 3000}
		ok, why := check(p.graph(), false)
		fmt.Println("check:", ok, why)
		m := machines.AMD()
		m.IC = p.graph()
		spec := concern.FromMachine(m)
		nodeScores := spec.Node.FeasibleScores(16)
		packs := placement.FilterPackings(spec, placement.GenPackings(nodeScores, placement.AllNodes(spec)))
		fmt.Println("surviving packings:")
		for _, pk := range packs {
			fmt.Print("  ", pk, " ICs:")
			for _, part := range pk {
				fmt.Print(" ", m.IC.Measure(part))
			}
			fmt.Println()
		}
		report(p)
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rng := xrand.New(2)
	grid := func(lo, hi int64) int64 { return lo + 50*rng.Int63n((hi-lo)/50+1) }
	miss := map[string]int{}
	for iter := 0; iter < 500_000; iter++ {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "cancelled after %d iters; failure histogram: %v\n", iter, miss)
			os.Exit(130)
		}
		var p params
		p.wa = 2400
		p.wb = grid(1950, 2350)
		p.wc = grid(1950, 2350)
		if p.wb == p.wc || p.wb == p.wa || p.wc == p.wa {
			continue // three distinct 2-node scores needed
		}
		// All inter-package links stay below the weakest intra link so the
		// all-intra pairing dominates every other (2,2,2,2) packing.
		capBW := p.wb
		if p.wc < capBW {
			capBW = p.wc
		}
		capBW -= 100
		g := func(lo, hi int64) int64 {
			if hi > capBW {
				hi = capBW
			}
			if lo > hi {
				lo = hi
			}
			return grid(lo, hi)
		}
		p.e24 = g(1700, 2100) // feeds the best 4-node set {2,3,4,5}
		p.o35 = g(1700, 2100)
		p.e02, p.e46 = g(1350, 1900), g(1350, 1900)
		p.e04, p.e26 = g(1350, 1900), g(1350, 1900)
		p.e06 = g(450, 900)
		p.o13, p.o57 = g(1350, 1900), g(1350, 1900)
		p.o15, p.o37 = g(1350, 1900), g(1350, 1900)
		p.o17 = g(450, 900)
		ok, why := check(p.graph(), false)
		if !ok {
			miss[why]++
			if iter%100_000 == 99_999 {
				fmt.Printf("iter %d, failures so far: %v\n", iter+1, miss)
			}
			continue
		}
		tuned, exact := tuneTotal(p)
		if !exact {
			miss["total-stuck"]++
			fmt.Printf("stuck at total %d: %+v\n", tuned.graph().Measure(topology.FullNodeSet(8)), tuned)
			continue
		}
		fmt.Printf("FOUND after %d iters: %+v\n", iter, tuned)
		report(tuned)
		return
	}
	fmt.Fprintln(os.Stderr, "no candidate found; failure histogram:", miss)
	os.Exit(1)
}

func report(p params) {
	m := machines.AMD()
	m.IC = p.graph()
	spec := concern.FromMachine(m)
	imps, _ := placement.Enumerate(spec, 16)
	for _, ip := range imps {
		fmt.Println(" ", ip)
	}
}
