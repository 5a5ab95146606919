package numaplace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// recSink is an in-memory fleet.Persister capturing the write-ahead
// record stream for byte-level comparison.
type recSink struct {
	recs []fleet.Record
}

func (s *recSink) Append(r fleet.Record) { s.recs = append(s.recs, r) }
func (s *recSink) Commit(uint64) error   { return nil }
func (s *recSink) Snapshot(fleet.State) error {
	return errors.New("parity sink takes no snapshots")
}

// parityEngines returns two engines on machine m trained for 16-vCPU
// containers and sharing one predictor: the default cached fast path and
// the frozen recompute reference. One training per machine keeps the
// model inputs bit-identical across both; everything else (enumeration,
// pinning) is deterministic per machine.
func parityEngines(t *testing.T, ctx context.Context, m Machine) (fast, ref *Engine) {
	t.Helper()
	fast = trainedEngine(t, ctx, m, 16)
	p, ok := fast.Predictor(16)
	if !ok {
		t.Fatal("trained engine has no 16-vCPU predictor")
	}
	ref = New(m, WithServeConfig(ServeConfig{Recompute: true}))
	ref.UsePredictor(16, p)
	return fast, ref
}

// TestFleetWALParity drives two fleets — real engines on the admission
// fast path versus the frozen recompute path, sharing one trained
// predictor per machine — through an identical randomized trace of
// placements, releases and rebalance passes, and asserts the write-ahead
// record streams they commit are byte-identical under JSON encoding: same
// routing, same classes, same nodes, same migration costs, same sequence
// numbers. A third fleet then restores from the fast fleet's record
// stream alone and must reproduce its books exactly. This is the
// fleet-level leg of the admission fast-path parity suite: if any cache
// served a stale or inexact decision, the streams would diverge at the
// first affected record.
func TestFleetWALParity(t *testing.T) {
	ctx := context.Background()
	amdFast, amdRef := parityEngines(t, ctx, AMD())
	intelFast, intelRef := parityEngines(t, ctx, Intel())

	build := func(amd, intel *Engine) (*fleet.Fleet, *recSink) {
		f := fleet.New(fleet.Config{Policy: fleet.BestPredicted})
		if err := f.Add("amd-0", amd); err != nil {
			t.Fatal(err)
		}
		if err := f.Add("intel-0", intel); err != nil {
			t.Fatal(err)
		}
		sink := &recSink{}
		f.SetPersister(sink)
		return f, sink
	}
	fastF, fastSink := build(amdFast, intelFast)
	refF, refSink := build(amdRef, intelRef)

	names := []string{"WTbtree", "gcc", "canneal", "streamcluster"}
	ws := make([]Workload, 0, len(names))
	for _, n := range names {
		w, ok := WorkloadByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}

	sameErr := func(op string, fast, ref error) {
		t.Helper()
		switch {
		case (fast == nil) != (ref == nil):
			t.Fatalf("%s: fast err = %v, recompute err = %v", op, fast, ref)
		case fast != nil && fast.Error() != ref.Error():
			t.Fatalf("%s: fast err %q, recompute err %q", op, fast, ref)
		}
	}

	rng := xrand.New(0xda942042e4dd58b5)
	var live []int
	placed, released, rebalanced := 0, 0, 0
	for op := 0; op < 150; op++ {
		switch k := rng.Intn(100); {
		case k < 50: // place
			w := ws[rng.Intn(len(ws))]
			af, errF := fastF.Place(ctx, w, 16)
			ar, errR := refF.Place(ctx, w, 16)
			sameErr("Place", errF, errR)
			if errF != nil {
				if !errors.Is(errF, ErrFleetFull) {
					t.Fatalf("op %d: Place(%s): %v", op, w.Name, errF)
				}
				continue
			}
			placed++
			if !reflect.DeepEqual(af, ar) {
				t.Fatalf("op %d: Place(%s) diverged:\nfast      %+v\nrecompute %+v", op, w.Name, af, ar)
			}
			live = append(live, af.ID)
		case k < 85: // release
			if len(live) == 0 {
				continue
			}
			released++
			i := rng.Intn(len(live))
			id := live[i]
			sameErr("Release", fastF.Release(ctx, id), refF.Release(ctx, id))
			live = append(live[:i], live[i+1:]...)
		default: // fleet-wide rebalance, generous budget
			rebalanced++
			rf, errF := fastF.Rebalance(ctx, 1e6)
			rr, errR := refF.Rebalance(ctx, 1e6)
			sameErr("Rebalance", errF, errR)
			if !reflect.DeepEqual(rf, rr) {
				t.Fatalf("op %d: Rebalance diverged:\nfast      %+v\nrecompute %+v", op, rf, rr)
			}
		}
	}
	if placed == 0 || released == 0 || rebalanced == 0 {
		t.Fatalf("degenerate trace: %d placed, %d released, %d rebalanced", placed, released, rebalanced)
	}

	// The committed record streams must be byte-identical: every routing
	// decision, admission, move and pass summary, in the same order with
	// the same sequence numbers.
	encode := func(recs []fleet.Record) []byte {
		t.Helper()
		b, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fb, rb := encode(fastSink.recs), encode(refSink.recs)
	if !bytes.Equal(fb, rb) {
		for i := range fastSink.recs {
			if i >= len(refSink.recs) || !reflect.DeepEqual(fastSink.recs[i], refSink.recs[i]) {
				t.Fatalf("record streams diverge at %d:\nfast      %+v\nrecompute %+v",
					i, fastSink.recs[i], refSink.recs[i])
			}
		}
		t.Fatalf("record streams differ in length: fast %d, recompute %d", len(fastSink.recs), len(refSink.recs))
	}
	if fastF.Seq() != refF.Seq() {
		t.Fatalf("sequences diverged: fast %d, recompute %d", fastF.Seq(), refF.Seq())
	}
	if fa, ra := fastF.Assignments(), refF.Assignments(); !reflect.DeepEqual(fa, ra) {
		t.Fatalf("final assignments diverged:\nfast      %+v\nrecompute %+v", fa, ra)
	}

	// Recovery leg: a fresh fleet (fast path, same shared predictors)
	// restores from the fast fleet's record stream alone and must land on
	// the same books, stats and sequence as the fleet that wrote it.
	amdR := New(AMD())
	intelR := New(Intel())
	if p, ok := amdFast.Predictor(16); ok {
		amdR.UsePredictor(16, p)
	}
	if p, ok := intelFast.Predictor(16); ok {
		intelR.UsePredictor(16, p)
	}
	restF := fleet.New(fleet.Config{Policy: fleet.BestPredicted})
	if err := restF.Add("amd-0", amdR); err != nil {
		t.Fatal(err)
	}
	if err := restF.Add("intel-0", intelR); err != nil {
		t.Fatal(err)
	}
	if err := restF.Restore(ctx, nil, fastSink.recs, workloads.ByName); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := restF.Assignments(), fastF.Assignments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored assignments diverged:\nrestored %+v\noriginal %+v", got, want)
	}
	if restF.Seq() != fastF.Seq() {
		t.Fatalf("restored seq %d, original %d", restF.Seq(), fastF.Seq())
	}
	if got, want := restF.Stats(), fastF.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats %+v, original %+v", got, want)
	}
}
