package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/placement"
	"repro/internal/workloads"
)

// goldenModels names the variants TestSavedModelGolden pins, each with its
// file under testdata.
var goldenModels = []struct {
	variant Variant
	file    string
}{
	{PerfFeatures, "model_perf.golden"},
	{HPEFeatures, "model_hpe.golden"},
}

// goldenPredictor trains the fixed-seed quick predictor of variant v whose
// saved bytes testdata pins.
func goldenPredictor(t testing.TB, v Variant) *Predictor {
	t.Helper()
	ws := append(workloads.Paper()[:6], workloads.CorpusFrom(6, 5, []string{"flat", "bw", "lat"})...)
	ds, err := Collect(context.Background(), machines.Intel(), ws, 24, CollectConfig{Trials: 1, WithHPEs: v != PerfFeatures})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Train(context.Background(), ds, TrainConfig{
		Variant:        v,
		Forest:         mlearn.ForestConfig{Trees: 6},
		SelectionTrees: 3,
		SelectionFolds: 3,
		MaxHPEFeatures: 2,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSavedModelGolden pins the bytes Save writes for a perf-variant and
// an HPE-variant predictor: growth, the forest's arrays and Dump together
// must reproduce the model files earlier builds wrote, and a load must give
// the same bytes back.
func TestSavedModelGolden(t *testing.T) {
	for _, g := range goldenModels {
		var buf bytes.Buffer
		if err := goldenPredictor(t, g.variant).Save(&buf); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: saved model differs from testdata/%s", g.variant, g.file)
		}
		if again := resave(t, want); !bytes.Equal(again, want) {
			t.Fatalf("%s: load and save of testdata/%s changed its bytes", g.variant, g.file)
		}
	}
}

// resave loads a saved predictor and saves it again.
func resave(t *testing.T, b []byte) []byte {
	t.Helper()
	p, err := LoadPredictor(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tinyModel is a valid two-placement perf predictor of one tree: a split
// on the observation ratio at 1 over two leaves.
const tinyModel = `{"variant":0,"base":0,"probe":1,"numPlacements":2,"forest":{"trees":[{"nodes":[{"f":0,"t":1,"l":1,"r":2},{"f":-1,"v":[1,0.5]},{"f":-1,"v":[1,2]}],"in":1,"out":2}],"in":1,"out":2}}`

// TestLoadPredictorErrors holds LoadPredictor to accepting only what
// serving can answer: one case per field a model file could make
// inconsistent.
func TestLoadPredictorErrors(t *testing.T) {
	if _, err := LoadPredictor(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := LoadPredictor(bytes.NewBufferString(`{"forest":{"trees":[]}}`)); err == nil {
		t.Error("empty forest accepted")
	}
	for _, tc := range []struct {
		name   string
		edit   map[string]any
		accept bool
	}{
		{"as saved", nil, true},
		{"base past the placements", map[string]any{"base": 99}, false},
		{"negative base", map[string]any{"base": -1}, false},
		{"probe past the placements", map[string]any{"probe": 2}, false},
		{"negative probe", map[string]any{"probe": -1}, false},
		{"unknown variant", map[string]any{"variant": 7}, false},
		{"negative variant", map[string]any{"variant": -1}, false},
		{"placements not the outputs", map[string]any{"numPlacements": 3}, false},
		{"hpe variant, one counter", map[string]any{"variant": 1, "hpeFeats": []int{5}}, true},
		{"hpe variant wider than the forest", map[string]any{"variant": 1, "hpeFeats": []int{5, 6}}, false},
		{"combined variant wider than the forest", map[string]any{"variant": 2, "hpeFeats": []int{5}}, false},
		{"perf variant with counters", map[string]any{"hpeFeats": []int{5}}, true},
		{"negative counter index", map[string]any{"variant": 1, "hpeFeats": []int{-1}}, false},
	} {
		var m map[string]any
		if err := json.Unmarshal([]byte(tinyModel), &m); err != nil {
			t.Fatal(err)
		}
		for k, v := range tc.edit {
			m[k] = v
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		p, err := LoadPredictor(bytes.NewReader(b))
		if (err == nil) != tc.accept {
			t.Errorf("%s: LoadPredictor err = %v, want accepted %v", tc.name, err, tc.accept)
			continue
		}
		if err == nil {
			answer(t, p)
		}
	}
}

// answer asks a loaded predictor for a vector through both entry points:
// only the perf variant may answer PredictInto, and PredictDatasetInto
// over a one-row dataset of the predictor's placements with 41 counters
// each must answer, or refuse a counter past them with
// ErrMachineMismatch.
func answer(t *testing.T, p *Predictor) {
	t.Helper()
	dst := make([]float64, p.NumPlacements)
	if err := p.PredictInto(dst, 1000, 1200); err == nil && p.Variant != PerfFeatures {
		t.Fatalf("%s predictor answered PredictInto", p.Variant)
	}
	ds := &Dataset{
		Placements: make([]placement.Important, p.NumPlacements),
		Workloads:  make([]perfsim.Workload, 1),
		Perf:       [][]float64{make([]float64, p.NumPlacements)},
		HPE:        [][][]float64{make([][]float64, p.NumPlacements)},
	}
	for i := range ds.Perf[0] {
		ds.Perf[0][i] = 1000 + float64(i)
		ds.HPE[0][i] = make([]float64, 41)
	}
	if err := p.PredictDatasetInto(dst, make([]float64, p.InDim()), ds, nil); err != nil && !errors.Is(err, nperr.ErrMachineMismatch) {
		t.Fatalf("%s predictor: PredictDatasetInto: %v", p.Variant, err)
	}
}

// FuzzLoadPredictor feeds LoadPredictor hostile bytes, seeded with the
// golden perf and HPE model files: whatever it accepts must answer every
// prediction with a vector or an error, never a panic, and saving is a
// fixed point of loading (load, save, load, save gives equal bytes).
func FuzzLoadPredictor(f *testing.F) {
	for _, g := range goldenModels {
		b, err := os.ReadFile(filepath.Join("testdata", g.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(tinyModel))
	f.Add([]byte(strings.Replace(tinyModel, `"base":0`, `"base":99`, 1)))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := LoadPredictor(bytes.NewReader(b))
		if err != nil {
			return
		}
		answer(t, p)
		saved := resave(t, b)
		if again := resave(t, saved); !bytes.Equal(again, saved) {
			t.Fatalf("save is not a fixed point of load:\n%s\n%s", saved, again)
		}
	})
}
