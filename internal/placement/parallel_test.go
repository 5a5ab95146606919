package placement

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/topology"
	"repro/internal/xparallel"
)

// workerCounts are the pool sizes the determinism tests sweep: serial, the
// smallest genuinely parallel pool, and whatever the host offers.
func workerCounts() []int {
	return []int{1, 2, runtime.GOMAXPROCS(0)}
}

// TestEnumerateIdenticalAcrossWorkerCounts is the golden-equality guarantee
// of the parallel rewrite: Enumerate emits the exact same placements, score
// vectors, IDs and ordering at every worker-pool size.
func TestEnumerateIdenticalAcrossWorkerCounts(t *testing.T) {
	defer xparallel.SetMaxWorkers(xparallel.SetMaxWorkers(1))
	cases := []struct {
		name string
		run  func() ([]Important, error)
	}{
		{"amd-16", func() ([]Important, error) { return Enumerate(context.Background(), amdSpec(), 16) }},
		{"intel-24", func() ([]Important, error) { return Enumerate(context.Background(), intelSpec(), 24) }},
		{"amd-8", func() ([]Important, error) { return Enumerate(context.Background(), amdSpec(), 8) }},
	}
	for _, c := range cases {
		xparallel.SetMaxWorkers(1)
		want, err := c.run()
		if err != nil {
			t.Fatalf("%s serial: %v", c.name, err)
		}
		for _, w := range workerCounts() {
			xparallel.SetMaxWorkers(w)
			got, err := c.run()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, w, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Enumerate differs at %d workers", c.name, w)
			}
		}
	}
}

// TestGenPackingsOrderAcrossWorkerCounts pins the enumeration *order*, not
// just the set: shards must be merged in first-part order.
func TestGenPackingsOrderAcrossWorkerCounts(t *testing.T) {
	defer xparallel.SetMaxWorkers(xparallel.SetMaxWorkers(1))
	all := topology.FullNodeSet(8)
	want := GenPackings([]int{2, 4, 8}, all)
	for _, w := range workerCounts() {
		xparallel.SetMaxWorkers(w)
		got := GenPackings([]int{2, 4, 8}, all)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GenPackings order differs at %d workers", w)
		}
	}
}

// TestFilterPackingsIdenticalAcrossWorkerCounts covers the skyline filter's
// grouping, de-duplication and survivor ordering.
func TestFilterPackingsIdenticalAcrossWorkerCounts(t *testing.T) {
	defer xparallel.SetMaxWorkers(xparallel.SetMaxWorkers(1))
	spec := amdSpec()
	packs := GenPackings([]int{2, 4, 8}, topology.FullNodeSet(8))
	want := FilterPackings(spec, packs)
	for _, w := range workerCounts() {
		xparallel.SetMaxWorkers(w)
		got := FilterPackings(spec, packs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("FilterPackings differs at %d workers", w)
		}
	}
}
