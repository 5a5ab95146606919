package numaplace

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/workloads"
)

// TestFleetConcurrentTraceReplays is the test of the log's invariant under
// concurrency: replaying the log a fleet wrote into fresh engines succeeds
// and lands on the fleet's own books. Four placers, four releasers and one
// operator (rebalance, drain/resume, fail/revive) race on a two-engine
// fleet; a release that freed its nodes engine-side before logging — so that
// a concurrent admission could take them and be logged first — leaves a log
// whose replay adopts a container onto nodes that are not free.
func TestFleetConcurrentTraceReplays(t *testing.T) {
	// Interleavings need goroutines that really run beside each other.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	ctx := context.Background()
	amd := trainedEngine(t, ctx, AMD(), 16)
	intel := trainedEngine(t, ctx, Intel(), 16)
	cfg := fleet.Config{Policy: fleet.LeastLoaded, Health: fleet.HealthConfig{FailoverBudgetSeconds: -1}}
	build := func(amd, intel *Engine) *fleet.Fleet {
		f := fleet.New(cfg)
		if err := f.Add("amd-0", amd); err != nil {
			t.Fatal(err)
		}
		if err := f.Add("intel-0", intel); err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := build(amd, intel)
	sink := &recSink{} // appended to under Fleet.mu only
	f.SetPersister(sink)

	var ws []Workload
	for _, n := range []string{"WTbtree", "gcc", "canneal", "streamcluster"} {
		w, ok := WorkloadByName(n)
		if !ok {
			t.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}

	const workers, perPlacer, pinned = 4, 400, 2
	// Unbuffered: a placer's next admission waits for a releaser, so the
	// small fleet (about four 16-vCPU containers) churns instead of filling.
	ids := make(chan int)
	var placers, rest sync.WaitGroup
	for p := 0; p < workers; p++ {
		placers.Add(1)
		go func() {
			defer placers.Done()
			for n := 0; n < perPlacer; {
				adm, err := f.Place(ctx, ws[(p+n)%len(ws)], 16)
				if err != nil {
					if !errors.Is(err, ErrFleetFull) {
						t.Errorf("Place: %v", err)
						return
					}
					runtime.Gosched()
					continue
				}
				n++
				ids <- adm.ID
			}
		}()
		rest.Add(1)
		go func() {
			defer rest.Done()
			for id := range ids {
				if id < pinned {
					continue // stays resident: something for the passes to move
				}
				if err := f.Release(ctx, id); err != nil {
					t.Errorf("Release(%d): %v", id, err)
				}
			}
		}()
	}
	stop := make(chan struct{})
	rest.Add(1)
	go func() {
		defer rest.Done()
		// Every step's error is a result, not a failure: a drain of a full
		// fleet strands, a failover with nowhere to go strands.
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Rebalance(ctx, 1e6)
			f.Drain(ctx, "amd-0")
			runtime.Gosched()
			f.Resume("amd-0")
			f.Fail(ctx, "intel-0")
			runtime.Gosched()
			f.Revive(ctx, "intel-0")
		}
	}()
	placers.Wait()
	close(ids)
	close(stop)
	rest.Wait()
	if t.Failed() {
		return
	}

	amdR, intelR := New(AMD()), New(Intel())
	for _, pair := range [][2]*Engine{{amd, amdR}, {intel, intelR}} {
		p, ok := pair[0].Predictor(16)
		if !ok {
			t.Fatal("trained engine has no 16-vCPU predictor")
		}
		pair[1].UsePredictor(16, p)
	}
	twin := build(amdR, intelR)
	if err := twin.Restore(ctx, nil, sink.recs, workloads.ByName); err != nil {
		t.Fatalf("Restore of %d records: %v", len(sink.recs), err)
	}
	if got, want := twin.Assignments(), f.Assignments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored assignments diverged:\nrestored %+v\noriginal %+v", got, want)
	}
	if got, want := twin.Stats(), f.Stats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats %+v, original %+v", got, want)
	}
	if got, want := twin.Seq(), f.Seq(); got != want {
		t.Fatalf("restored seq %d, original %d", got, want)
	}
}
