package machines

import (
	"testing"

	"repro/internal/topology"
)

func TestAMDMatchesPaperFigure2(t *testing.T) {
	m := AMD()
	if m.Topo.NumNodes != 8 || m.Topo.NumNodes*m.Topo.CoresPerNode != 64 {
		t.Errorf("AMD shape: %s", m.Topo)
	}
	if m.Topo.ThreadsPerL2() != 2 {
		t.Error("AMD CMT pairs missing")
	}
	if m.IC.Symmetric() {
		t.Error("AMD interconnect must be asymmetric")
	}
	if got := m.IC.Measure(topology.FullNodeSet(8)); got != 35000 {
		t.Errorf("AMD 8-node aggregate = %d, want 35000", got)
	}
	// The paper's two-hop pairs.
	if m.IC.Hops(0, 5) != 2 || m.IC.Hops(3, 6) != 2 {
		t.Error("0-5 / 3-6 must be two hops")
	}
}

func TestIntelMatchesPaperFigure2(t *testing.T) {
	m := Intel()
	if m.Topo.NumNodes != 4 || m.Topo.TotalThreads() != 96 {
		t.Errorf("Intel shape: %s", m.Topo)
	}
	if !m.IC.Symmetric() {
		t.Error("Intel interconnect must be symmetric")
	}
	if m.Topo.CoreSpeed <= AMD().Topo.CoreSpeed {
		t.Error("Intel cores should be faster than Opteron cores")
	}
}

func TestForwardLookingMachines(t *testing.T) {
	z := Zen()
	if z.Topo.L3PerNode != 2 {
		t.Error("Zen must have two CCX L3s per node")
	}
	if z.Topo.NumL3 != 8 {
		t.Errorf("Zen NumL3 = %d", z.Topo.NumL3)
	}
	h := HaswellCoD()
	if h.IC.Symmetric() {
		t.Error("Haswell-CoD interconnect must be asymmetric")
	}
	// On-die pairs faster than cross-socket.
	if h.IC.Measure(topology.NewNodeSet(0, 1)) <= h.IC.Measure(topology.NewNodeSet(0, 2)) {
		t.Error("on-die link should beat QPI")
	}
}

func TestMachinesHaveDistinctNames(t *testing.T) {
	names := map[string]bool{}
	for _, m := range []Machine{AMD(), Intel(), Zen(), HaswellCoD()} {
		if names[m.Topo.Name] {
			t.Fatalf("duplicate machine name %q", m.Topo.Name)
		}
		names[m.Topo.Name] = true
		if m.Topo.NodeDRAMBandwidthMBs <= 0 || m.Topo.CoreSpeed <= 0 {
			t.Errorf("%s: missing performance parameters", m.Topo.Name)
		}
		if m.Topo.LatSameL2NS <= 0 || m.Topo.LatTwoHopNS < m.Topo.LatOneHopNS {
			t.Errorf("%s: inconsistent latencies", m.Topo.Name)
		}
	}
}
