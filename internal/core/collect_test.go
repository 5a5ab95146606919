package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/concern"
	"repro/internal/machines"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/workloads"
)

// enumerate returns machine m's concern spec and important placements for
// v vCPUs.
func enumerate(t testing.TB, m machines.Machine, v int) (*concern.Spec, []placement.Important) {
	t.Helper()
	spec := concern.FromMachine(m)
	imps, err := placement.Enumerate(context.Background(), spec, v)
	if err != nil {
		t.Fatal(err)
	}
	return spec, imps
}

// TestCollectMatchesRun holds Collect, which derives each placement's
// attributes once, to a plain loop that pins and runs every (workload,
// placement, trial) cell on its own: every Perf cell and every HPE reading
// must be the same float, bit for bit.
func TestCollectMatchesRun(t *testing.T) {
	ws := workloads.Paper()
	for _, m := range []machines.Machine{machines.AMD(), machines.Intel()} {
		for _, v := range []int{8, 32} {
			spec, imps := enumerate(t, m, v)
			for _, trials := range []int{1, 3} {
				for _, withHPEs := range []bool{false, true} {
					name := fmt.Sprintf("%s/v=%d/trials=%d/hpes=%t", m.Topo.Name, v, trials, withHPEs)
					t.Run(name, func(t *testing.T) {
						ds, err := Collect(context.Background(), m, ws, v, CollectConfig{Trials: trials, WithHPEs: withHPEs})
						if err != nil {
							t.Fatal(err)
						}
						for wi, w := range ws {
							for pi, p := range imps {
								threads, err := placement.Pin(spec, p.Placement, v)
								if err != nil {
									t.Fatal(err)
								}
								var sum float64
								for trial := 0; trial < trials; trial++ {
									perf, err := perfsim.Run(m, w, threads, trial)
									if err != nil {
										t.Fatal(err)
									}
									sum += perf
								}
								want := sum / float64(trials)
								if got := ds.Perf[wi][pi]; math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s in %s: Perf %v, Run loop %v", w.Name, p, got, want)
								}
								if !withHPEs {
									continue
								}
								a, err := perfsim.ComputeAttrs(m, threads)
								if err != nil {
									t.Fatal(err)
								}
								h, err := perfsim.HPEsAttrs(m, w, a, 0)
								if err != nil {
									t.Fatal(err)
								}
								got := ds.HPE[wi][pi]
								if len(got) != len(h) {
									t.Fatalf("%s in %s: %d HPEs, want %d", w.Name, p, len(got), len(h))
								}
								for i := range h {
									if math.Float64bits(got[i]) != math.Float64bits(h[i]) {
										t.Fatalf("%s in %s: HPE %d = %v, HPEsAttrs loop %v", w.Name, p, i, got[i], h[i])
									}
								}
							}
						}
						if !withHPEs && ds.HPE != nil {
							t.Fatal("HPE rows collected without WithHPEs")
						}
					})
				}
			}
		}
	}
}

// TestCollectAllocsIndependentOfTrials pins that a trial costs no
// allocation: the placement attributes (ComputeAttrs' maps) are derived
// once per placement, not once per trial, so five trials allocate what
// one does. CollectPrepared is measured so that enumeration stays out of
// the count.
func TestCollectAllocsIndependentOfTrials(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	spec, imps := enumerate(t, machines.AMD(), 16)
	ws := workloads.Paper()
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := CollectPrepared(context.Background(), spec, imps, ws, 16, CollectConfig{Trials: trials}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, five := allocs(1), allocs(5); one != five {
		t.Fatalf("Collect allocates %v at 1 trial and %v at 5, want equal", one, five)
	}
}
