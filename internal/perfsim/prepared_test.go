package perfsim_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/concern"
	"repro/internal/machines"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/workloads"
)

// TestPreparedAtIsRun holds the memoized observation to the uncached one:
// on every shipped machine, for every paper workload in every important
// placement's pinning at 16 vCPUs, Prepare(…).At(trial) equals Run(…) bit
// for bit. The trials include an admission's (2·id, 2·id+1) and the
// negative streams previews draw, down to the most negative one.
func TestPreparedAtIsRun(t *testing.T) {
	const v = 16
	trials := []int{0, 1, 2, 3, 1 << 20, 1<<31 - 1, -2, -3, -1 - 1<<30, -2 - (1<<30 - 1)}
	for _, m := range []machines.Machine{machines.AMD(), machines.Intel(), machines.Zen(), machines.HaswellCoD()} {
		name := m.Topo.Name
		spec := concern.FromMachine(m)
		imps, err := placement.Enumerate(context.Background(), spec, v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, imp := range imps {
			threads, err := placement.Pin(spec, imp.Placement, v)
			if err != nil {
				t.Fatalf("%s %s: %v", name, imp.Nodes, err)
			}
			for _, w := range workloads.Paper() {
				prep, err := perfsim.Prepare(m, w, threads)
				if err != nil {
					t.Fatalf("%s %s %s: %v", name, imp.Nodes, w.Name, err)
				}
				for _, trial := range trials {
					run, err := perfsim.Run(m, w, threads, trial)
					if err != nil {
						t.Fatal(err)
					}
					if at := prep.At(trial); math.Float64bits(at) != math.Float64bits(run) {
						t.Fatalf("%s, %s in %s (#%d), trial %d: At = %v, Run = %v",
							name, w.Name, imp.Nodes, imp.ID, trial, at, run)
					}
				}
			}
		}
	}
}
