//go:build unix

package recipe

import (
	"bytes"
	"context"
	"testing"

	"repro"
)

// TestTrainingIsPerModel pins the property sharing a predictor across a
// model's machines rests on: two fresh engines of one model train
// predictors that save to the same bytes, whichever position of the fleet
// the model first holds, for amd and intel, at full and at quick fidelity.
func TestTrainingIsPerModel(t *testing.T) {
	ctx := context.Background()
	for _, quick := range []bool{false, true} {
		first, err := Train(ctx, []string{"amd", "intel"}, 16, quick)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Train(ctx, []string{"intel", "amd"}, 16, quick)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"amd", "intel"} {
			var a, b bytes.Buffer
			if err := first.preds[model].Save(&a); err != nil {
				t.Fatal(err)
			}
			if err := again.preds[model].Save(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%s (quick %v): two trainings save %d and %d bytes that differ", model, quick, a.Len(), b.Len())
			}
		}
	}
}

// TestFleetSharesOnePredictorPerModel: whatever its machine count, a fleet
// Build makes holds one predictor per (model, size), the one Train trained,
// every engine of the model serving that very pointer.
func TestFleetSharesOnePredictorPerModel(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{2, 8} {
		machines := make([]string, n)
		for i := range machines {
			machines[i] = []string{"amd", "intel"}[i%2]
		}
		ms, err := Train(ctx, machines, 16, true)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := ms.Build(ctx, numaplace.ClusterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		held := map[*numaplace.Predictor]bool{}
		for i, name := range Names(machines) {
			b, ok := cl.Backend(name)
			if !ok {
				t.Fatalf("%d machines: no engine %s", n, name)
			}
			p, ok := b.(*numaplace.Engine).Predictor(16)
			if !ok || p != ms.preds[machines[i]] {
				t.Errorf("%d machines: %s serves %p, want its model's %p", n, name, p, ms.preds[machines[i]])
			}
			held[p] = true
		}
		if len(held) != 2 || len(ms.preds) != 2 {
			t.Errorf("%d machines hold %d predictors, %d trained; want 2 and 2", n, len(held), len(ms.preds))
		}
	}
}
