package numaplace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/nperr"
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
// containers and sharing one predictor, the second wrapped so that it shows
// the fleet nothing but fleet.Backend. One training per machine keeps the
// model inputs bit-identical across both; everything else (enumeration,
// pinning) is deterministic per machine.
func parityEngines(t *testing.T, ctx context.Context, m Machine) (classed *Engine, solo fleet.Backend) {
	t.Helper()
	classed = trainedEngine(t, ctx, m, 16)
	p, ok := classed.Predictor(16)
	if !ok {
		t.Fatal("trained engine has no 16-vCPU predictor")
	}
	return classed, struct{ fleet.Backend }{New(m, WithPredictor(16, p))}
}

// TestFleetWALParity drives two fleets sharing one trained predictor per
// machine through an identical randomized trace of placements, releases and
// rebalance passes: one of plain engines, which the fleet routes from their
// score classes' rows, and one of engines wrapped to hide fleet.ScoreClasser,
// which it routes by asking each machine's own Preview (each a solo). It
// asserts the write-ahead record streams they commit are byte-identical
// under JSON encoding: same routing, same classes, same nodes, same
// migration costs, same sequence numbers. A third fleet then restores from
// the first fleet's record stream alone and must reproduce its books
// exactly. If a score row answered other than its members' Previews, the
// streams would diverge at the first affected routing decision; that each
// engine's caches answer as the from-scratch search does is the sched
// parity suite's job.
func TestFleetWALParity(t *testing.T) {
	ctx := context.Background()
	amdClassed, amdSolo := parityEngines(t, ctx, AMD())
	intelClassed, intelSolo := parityEngines(t, ctx, Intel())

	build := func(amd, intel fleet.Backend) (*fleet.Fleet, *recSink) {
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
	classedF, classedSink := build(amdClassed, intelClassed)
	soloF, soloSink := build(amdSolo, intelSolo)

	names := []string{"WTbtree", "gcc", "canneal", "streamcluster"}
	ws := make([]Workload, 0, len(names))
	for _, n := range names {
		w, ok := WorkloadByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}

	sameErr := func(op string, classed, solo error) {
		t.Helper()
		switch {
		case (classed == nil) != (solo == nil):
			t.Fatalf("%s: classed err = %v, solo err = %v", op, classed, solo)
		case classed != nil && classed.Error() != solo.Error():
			t.Fatalf("%s: classed err %q, solo err %q", op, classed, solo)
		}
	}

	rng := xrand.New(0xda942042e4dd58b5)
	var live []int
	placed, released, rebalanced := 0, 0, 0
	for op := 0; op < 150; op++ {
		switch k := rng.Intn(100); {
		case k < 50: // place
			w := ws[rng.Intn(len(ws))]
			af, errF := classedF.Place(ctx, w, 16)
			ar, errR := soloF.Place(ctx, w, 16)
			sameErr("Place", errF, errR)
			if errF != nil {
				if !errors.Is(errF, ErrFleetFull) {
					t.Fatalf("op %d: Place(%s): %v", op, w.Name, errF)
				}
				continue
			}
			placed++
			if !reflect.DeepEqual(af, ar) {
				t.Fatalf("op %d: Place(%s) diverged:\nclassed %+v\nsolo    %+v", op, w.Name, af, ar)
			}
			live = append(live, af.ID)
		case k < 85: // release
			if len(live) == 0 {
				continue
			}
			released++
			i := rng.Intn(len(live))
			id := live[i]
			sameErr("Release", classedF.Release(ctx, id), soloF.Release(ctx, id))
			live = append(live[:i], live[i+1:]...)
		default: // fleet-wide rebalance, generous budget
			rebalanced++
			rf, errF := classedF.Rebalance(ctx, 1e6)
			rr, errR := soloF.Rebalance(ctx, 1e6)
			sameErr("Rebalance", errF, errR)
			if !reflect.DeepEqual(rf, rr) {
				t.Fatalf("op %d: Rebalance diverged:\nclassed %+v\nsolo    %+v", op, rf, rr)
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
	fb, rb := encode(classedSink.recs), encode(soloSink.recs)
	if !bytes.Equal(fb, rb) {
		for i := range classedSink.recs {
			if i >= len(soloSink.recs) || !reflect.DeepEqual(classedSink.recs[i], soloSink.recs[i]) {
				t.Fatalf("record streams diverge at %d:\nclassed %+v\nsolo    %+v",
					i, classedSink.recs[i], soloSink.recs[i])
			}
		}
		t.Fatalf("record streams differ in length: classed %d, solo %d", len(classedSink.recs), len(soloSink.recs))
	}
	if classedF.Seq() != soloF.Seq() {
		t.Fatalf("sequences diverged: classed %d, solo %d", classedF.Seq(), soloF.Seq())
	}
	if fa, ra := classedF.Assignments(), soloF.Assignments(); !reflect.DeepEqual(fa, ra) {
		t.Fatalf("final assignments diverged:\nclassed %+v\nsolo    %+v", fa, ra)
	}

	// Recovery leg: a fresh fleet of plain engines (same shared predictors)
	// restores from the classed fleet's record stream alone and must land on
	// the same books, stats and sequence as the fleet that wrote it.
	amdR := New(AMD())
	intelR := New(Intel())
	if p, ok := amdClassed.Predictor(16); ok {
		amdR.UsePredictor(16, p)
	}
	if p, ok := intelClassed.Predictor(16); ok {
		intelR.UsePredictor(16, p)
	}
	restF := fleet.New(fleet.Config{Policy: fleet.BestPredicted})
	if err := restF.Add("amd-0", amdR); err != nil {
		t.Fatal(err)
	}
	if err := restF.Add("intel-0", intelR); err != nil {
		t.Fatal(err)
	}
	if err := restF.Restore(ctx, nil, classedSink.recs, workloads.ByName); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got, want := restF.Assignments(), classedF.Assignments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored assignments diverged:\nrestored %+v\noriginal %+v", got, want)
	}
	if restF.Seq() != classedF.Seq() {
		t.Fatalf("restored seq %d, original %d", restF.Seq(), classedF.Seq())
	}
	if got, want := restF.Stats(), classedF.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats %+v, original %+v", got, want)
	}
}

// TestRestoreRefusesAsTheEngine: a restart judges every record against the
// real engines, not only the tenants that survive the log. A place record the
// engine's Adopt would refuse fails Restore into fresh engines with the
// engine's sentinel, at that record, although the next record releases its
// tenant: an unknown class, a node count other than the class's, a
// non-positive observation, a size no predictor covers, nodes a live tenant
// holds, an engine ID already live.
func TestRestoreRefusesAsTheEngine(t *testing.T) {
	ctx := context.Background()
	trained := trainedEngine(t, ctx, AMD(), 16)
	p, ok := trained.Predictor(16)
	if !ok {
		t.Fatal("trained engine has no 16-vCPU predictor")
	}
	fresh := func() *fleet.Fleet {
		f := fleet.New(fleet.Config{})
		if err := f.Add("amd-0", New(AMD(), WithPredictor(16, p))); err != nil {
			t.Fatal(err)
		}
		return f
	}
	live, sink := fresh(), &recSink{}
	live.SetPersister(sink)
	w, ok := WorkloadByName("gcc")
	if !ok {
		t.Fatal("unknown workload gcc")
	}
	if _, err := live.Place(ctx, w, 16); err != nil {
		t.Fatal(err)
	}
	second, err := live.Place(ctx, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Release(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	recs := sink.recs // place, place, release of the second
	if err := fresh().Restore(ctx, nil, recs, workloads.ByName); err != nil {
		t.Fatalf("the log the wrong records are made from: %v", err)
	}
	first := recs[0]
	for _, tc := range []struct {
		name string
		edit func(r *fleet.Record)
		want error
	}{
		{"an unknown class", func(r *fleet.Record) { r.ClassID = 999 }, nperr.ErrLogCorrupt},
		{"a node count other than the class's", func(r *fleet.Record) { r.Nodes = r.Nodes.Remove(r.Nodes.Lowest()) }, nperr.ErrLogCorrupt},
		{"a BasePerf <= 0", func(r *fleet.Record) { r.BasePerf = 0 }, nperr.ErrBadObservation},
		{"a size no predictor covers", func(r *fleet.Record) { r.VCPUs = 8 }, nperr.ErrUntrained},
		{"nodes a live tenant holds", func(r *fleet.Record) { r.ClassID, r.Nodes = first.ClassID, first.Nodes }, nperr.ErrLogCorrupt},
		{"an engine ID already live", func(r *fleet.Record) { r.EngineID = first.EngineID }, nperr.ErrLogCorrupt},
	} {
		bad := slices.Clone(recs)
		tc.edit(&bad[1])
		err := fresh().Restore(ctx, nil, bad, workloads.ByName)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "record 2 (place)") {
			t.Errorf("%s: Restore err = %v, want %v at record 2", tc.name, err, tc.want)
		}
	}
}
