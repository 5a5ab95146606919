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

func TestPlaceCopiesMapping(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	c := New(4, w, 2)
	threads := []topology.ThreadID{5, 6}
	if err := c.Place(threads, false); err != nil {
		t.Fatal(err)
	}
	threads[0] = 99
	if c.Threads()[0] == 99 {
		t.Fatal("Place aliases caller slice")
	}
	c.Threads()[0] = 77
	if c.Threads()[0] == 77 {
		t.Fatal("Threads aliases internal state")
	}
	if c.Pinned() {
		t.Fatal("unpinned placement marked pinned")
	}
	if c.ID() != 4 || c.VCPUs() != 2 || c.Workload().Name != "gcc" {
		t.Fatal("identity accessors wrong")
	}
}
