package xparallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// withWorkers runs fn at each pool size in turn, restoring the setting.
func withWorkers(t *testing.T, sizes []int, fn func(workers int)) {
	t.Helper()
	defer SetMaxWorkers(SetMaxWorkers(0))
	for _, w := range sizes {
		SetMaxWorkers(w)
		fn(w)
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("workers() = %d, want GOMAXPROCS", got)
	}
	old := SetMaxWorkers(2)
	defer SetMaxWorkers(old)
	if got := workers(); got != 2 {
		t.Errorf("workers() with override = %d, want 2", got)
	}
	SetMaxWorkers(-3)
	if got := workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("workers() after reset = %d", got)
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	withWorkers(t, []int{1, 2, 4, 13}, func(workers int) {
		const n = 100
		var counts [n]int32
		forEach(context.Background(), n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		// Degenerate size.
		forEach(context.Background(), 0, func(int) { t.Fatal("fn called for n=0") })
	})
}

func TestMapOrderIsDeterministic(t *testing.T) {
	var want []int
	withWorkers(t, []int{1, 2, 3, 8}, func(workers int) {
		got := Map(50, func(i int) int { return i * i })
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: Map order differs", workers)
		}
	})
}

func TestMapErrFirstErrorByIndexWins(t *testing.T) {
	ctx := context.Background()
	withWorkers(t, []int{1, 4}, func(workers int) {
		_, err := MapErr(ctx, 20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("fail-%d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail-7" {
			t.Fatalf("workers=%d: err = %v, want fail-7", workers, err)
		}
		out, err := MapErr(ctx, 5, func(i int) (int, error) { return i, nil })
		if err != nil || !reflect.DeepEqual(out, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("workers=%d: clean MapErr = %v, %v", workers, out, err)
		}
	})
	var sentinel = errors.New("boom")
	if _, err := MapErr(ctx, 1, func(int) (int, error) { return 0, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("inline error not propagated: %v", err)
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	withWorkers(t, []int{1, 4}, func(workers int) {
		defer func() {
			if r := recover(); r != "kaboom" {
				t.Fatalf("workers=%d: recovered %v, want kaboom", workers, r)
			}
		}()
		forEach(context.Background(), 16, func(i int) {
			if i == 5 {
				panic("kaboom")
			}
		})
	})
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	withWorkers(t, []int{1, 4}, func(workers int) {
		ran := atomic.Int32{}
		err := forEach(ctx, 100, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// No new work may start after cancellation (a few in-flight items
		// are permitted by contract, but a pre-cancelled ctx admits none on
		// the serial path and at most the initial grabs on the parallel
		// path).
		if n := ran.Load(); n > 4 {
			t.Fatalf("workers=%d: %d items ran after pre-cancellation", workers, n)
		}
	})
}

func TestForEachCtxCompletes(t *testing.T) {
	withWorkers(t, []int{1, 2, 8}, func(workers int) {
		var ran atomic.Int32
		if err := forEach(context.Background(), 50, func(i int) { ran.Add(1) }); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: ran %d of 50", workers, ran.Load())
		}
	})
}

// TestMapCtxMatchesMap: MapErr with a live context and no item errors is Map.
func TestMapCtxMatchesMap(t *testing.T) {
	withWorkers(t, []int{3}, func(int) {
		want := Map(40, func(i int) int { return i * i })
		got, err := MapErr(context.Background(), 40, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("MapErr = %v, want %v", got, want)
		}
	})
}

// TestMapErrCtxCancellationWins: MapErr reports a cancellation that happened
// during the batch even when an item also failed.
func TestMapErrCtxCancellationWins(t *testing.T) {
	withWorkers(t, []int{4}, func(int) {
		ctx, cancel := context.WithCancel(context.Background())
		boom := errors.New("boom")
		_, err := MapErr(ctx, 100, func(i int) (int, error) {
			if i == 0 {
				cancel() // cancel from inside the batch
				return 0, boom
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled to take precedence", err)
		}
	})
}

// TestMapErrCtxLowestErrorWins: on a parallel pool the lowest-index error
// wins, not the first to finish.
func TestMapErrCtxLowestErrorWins(t *testing.T) {
	withWorkers(t, []int{4}, func(int) {
		boom0, boom7 := errors.New("b0"), errors.New("b7")
		_, err := MapErr(context.Background(), 10, func(i int) (int, error) {
			switch i {
			case 0:
				return 0, boom0
			case 7:
				return 0, boom7
			}
			return i, nil
		})
		if !errors.Is(err, boom0) {
			t.Fatalf("err = %v, want lowest-index error", err)
		}
	})
}

func TestForEachCtxMidFlightCancel(t *testing.T) {
	withWorkers(t, []int{4}, func(int) {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := forEach(ctx, 1_000_000, func(i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := ran.Load(); n > 1000 {
			t.Fatalf("%d items ran after mid-flight cancel (want prompt stop)", n)
		}
	})
}
