package workloads

import (
	"math"
	"reflect"
	"testing"
)

// TestPaperWorkloadList checks the roster against the paper's Figure 4 /
// Table 2 (18 workloads, exact names and memory footprints).
func TestPaperWorkloadList(t *testing.T) {
	ws := Paper()
	if len(ws) != 18 {
		t.Fatalf("got %d workloads, want 18", len(ws))
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	want := []string{
		"BLAST", "canneal", "fluidanimate", "freqmine", "gcc", "kmeans",
		"pca", "postgres-tpch", "postgres-tpcc", "spark-cc", "spark-pr-lj",
		"streamcluster", "swaptions", "ft.C", "dc.B", "wc", "wr", "WTbtree",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v", names)
	}
}

// TestTable2Footprints verifies the memory sizes copied from Table 2.
func TestTable2Footprints(t *testing.T) {
	want := map[string]float64{
		"BLAST": 18.5, "canneal": 1.1, "fluidanimate": 0.7, "freqmine": 1.3,
		"gcc": 1.4, "kmeans": 7.2, "pca": 12.0, "postgres-tpch": 26.8,
		"postgres-tpcc": 37.7, "spark-cc": 17.0, "spark-pr-lj": 17.1,
		"streamcluster": 0.1, "swaptions": 0.01, "ft.C": 5.0, "dc.B": 27.3,
		"wc": 15.4, "wr": 17.1, "WTbtree": 36.3,
	}
	for _, w := range Paper() {
		if w.MemoryGB != want[w.Name] {
			t.Errorf("%s: MemoryGB = %v, want %v", w.Name, w.MemoryGB, want[w.Name])
		}
		if w.PageCacheGB < 0 || w.PageCacheGB > w.MemoryGB {
			t.Errorf("%s: page cache %v out of [0, %v]", w.Name, w.PageCacheGB, w.MemoryGB)
		}
	}
}

func TestWorkloadParameterRanges(t *testing.T) {
	for _, w := range Paper() {
		if w.BaselineOps <= 0 || w.WorkingSetMB <= 0 || w.BWPerVCPU <= 0 {
			t.Errorf("%s: non-positive scale parameters", w.Name)
		}
		if w.MemIntensity < 0 || w.MemIntensity > 1 {
			t.Errorf("%s: MemIntensity %v out of [0,1]", w.Name, w.MemIntensity)
		}
		if w.SMTFactor < 0.4 || w.SMTFactor > 1.3 {
			t.Errorf("%s: SMTFactor %v implausible", w.Name, w.SMTFactor)
		}
		if w.CommIntensity < 0 || w.CommIntensity > 2 {
			t.Errorf("%s: CommIntensity %v implausible", w.Name, w.CommIntensity)
		}
		if w.Processes < 1 {
			t.Errorf("%s: Processes %d", w.Name, w.Processes)
		}
	}
}

func TestPaperTraits(t *testing.T) {
	// kmeans is the only SMT-loving paper workload (§6).
	for _, w := range Paper() {
		if w.Name == "kmeans" {
			if w.SMTFactor <= 1 {
				t.Error("kmeans must prefer SMT")
			}
		} else if w.SMTFactor > 1 {
			t.Errorf("%s must not prefer SMT", w.Name)
		}
	}
	// Only WiredTiger reports an online metric (§7 footnote).
	for _, w := range Paper() {
		if w.ReportsOnline != (w.Name == "WTbtree") {
			t.Errorf("%s: ReportsOnline = %v", w.Name, w.ReportsOnline)
		}
	}
	// TPC-C has by far the most processes (Table 2 discussion).
	tpcc, _ := ByName("postgres-tpcc")
	for _, w := range Paper() {
		if w.Name != "postgres-tpcc" && w.Processes >= tpcc.Processes {
			t.Errorf("%s has %d processes >= tpcc's %d", w.Name, w.Processes, tpcc.Processes)
		}
	}
}

func TestByName(t *testing.T) {
	w, ok := ByName("WTbtree")
	if !ok || w.Name != "WTbtree" {
		t.Fatal("ByName failed for WTbtree")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName found a nonexistent workload")
	}
	// The index answers for the whole catalog, and the catalog cannot be
	// reached through what Paper hands out.
	ws := Paper()
	for _, want := range ws {
		if got, ok := ByName(want.Name); !ok || got != want {
			t.Fatalf("ByName(%q) = %+v, %v", want.Name, got, ok)
		}
	}
	ws[0].Name, ws[0].BaselineOps = "clobbered", -1
	if got := Paper()[0]; got.Name != "BLAST" || got.BaselineOps <= 0 {
		t.Fatalf("Paper()'s slice aliases the catalog: %+v", got)
	}
	if got, ok := ByName("BLAST"); !ok || got.BaselineOps <= 0 {
		t.Fatalf("ByName reads through Paper()'s slice: %+v, %v", got, ok)
	}
	if n := testing.AllocsPerRun(100, func() { ByName("WTbtree") }); n != 0 {
		t.Fatalf("ByName allocates %v times per lookup, want 0", n)
	}
}

func TestCorpusDeterministicAndValid(t *testing.T) {
	all := []string{"flat", "bw", "lat", "smt-averse", "smt-friendly", "cache"}
	a := CorpusFrom(60, 42, all)
	b := CorpusFrom(60, 42, all)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CorpusFrom not deterministic")
	}
	c := CorpusFrom(60, 43, all)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical corpora")
	}
	if len(a) != 60 {
		t.Fatalf("got %d workloads", len(a))
	}
	names := map[string]bool{}
	for _, w := range a {
		if names[w.Name] {
			t.Fatalf("duplicate corpus name %s", w.Name)
		}
		names[w.Name] = true
		if w.MemIntensity < 0 || w.MemIntensity > 1 {
			t.Errorf("%s: MemIntensity %v", w.Name, w.MemIntensity)
		}
		if w.BaselineOps <= 0 || math.IsNaN(w.BaselineOps) {
			t.Errorf("%s: BaselineOps %v", w.Name, w.BaselineOps)
		}
		if w.PageCacheGB < 0 || w.PageCacheGB > w.MemoryGB {
			t.Errorf("%s: page cache %v vs memory %v", w.Name, w.PageCacheGB, w.MemoryGB)
		}
	}
	// The corpus covers all six archetypes.
	prefixes := map[string]bool{}
	for _, w := range a {
		for _, p := range []string{"flat", "bw-", "lat", "smt-averse", "smt-friendly", "cache"} {
			if len(w.Name) >= len(p) && w.Name[:len(p)] == p {
				prefixes[p] = true
			}
		}
	}
	if len(prefixes) < 6 {
		t.Errorf("corpus archetype coverage incomplete: %v", prefixes)
	}
}
