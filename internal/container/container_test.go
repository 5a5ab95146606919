package container

import (
	"testing"

	"repro/internal/machines"
	"repro/internal/perfsim"
	"repro/internal/topology"
	"repro/internal/workloads"
)

func TestLifecycle(t *testing.T) {
	w, _ := workloads.ByName("WTbtree")
	c := New(1, w, 4)
	if c.Placed() {
		t.Fatal("new container claims to be placed")
	}
	if _, err := c.Observe(machines.AMD(), 0); err == nil {
		t.Fatal("Observe before placement accepted")
	}
	if err := c.Place([]topology.ThreadID{0, 1}, true); err == nil {
		t.Fatal("short mapping accepted")
	}
	if err := c.Place([]topology.ThreadID{0, 1, 2, 3}, true); err != nil {
		t.Fatal(err)
	}
	if !c.Placed() || !c.Pinned() {
		t.Fatal("placement state wrong")
	}
}

func TestObserveRecordsHistory(t *testing.T) {
	w, _ := workloads.ByName("swaptions")
	m := machines.AMD()
	c := New(2, w, 4)
	if err := c.Place([]topology.ThreadID{0, 1, 2, 3}, true); err != nil {
		t.Fatal(err)
	}
	p1, err := c.Observe(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 <= 0 {
		t.Fatalf("perf %v", p1)
	}
	// The sample is the simulator's run of the current mapping.
	want, err := perfsim.Run(m, w, c.Threads(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != want {
		t.Fatalf("Observe(trial 0) = %v, perfsim.Run = %v", p1, want)
	}
}

// TestPlaceSharesMapping: Place keeps the mapping it is given and Threads
// returns that very slice — schedulers hand over their table set's shared,
// read-only pinning, and neither side copies it.
func TestPlaceSharesMapping(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	c := New(4, w, 2)
	if c.Threads() != nil {
		t.Fatal("an unplaced container has a mapping")
	}
	threads := []topology.ThreadID{5, 6}
	if err := c.Place(threads, false); err != nil {
		t.Fatal(err)
	}
	if got := c.Threads(); len(got) != len(threads) || &got[0] != &threads[0] {
		t.Fatalf("Threads returned %v, not the slice Place was given", got)
	}
	if c.Pinned() {
		t.Fatal("unpinned placement marked pinned")
	}
	if c.ID() != 4 || c.VCPUs() != 2 || c.Workload().Name != "gcc" {
		t.Fatal("identity accessors wrong")
	}
}
