// Package xparallel provides the small parallel-execution primitives shared
// by the enumeration and learning hot paths: a bounded worker pool whose
// results are collected in deterministic index order, so every caller
// produces bit-identical output at any worker count (including 1, where all
// work runs inline on the calling goroutine with zero scheduling overhead).
package xparallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// inFlight counts extra worker goroutines alive across all fan-outs.
// Fan-outs nest (experiment grid → pair search → CV folds → forest trees);
// a per-call bound would multiply through the levels, so extra workers are
// reserved against one process-wide budget instead. Reservation never
// blocks — when the budget is spent, work simply runs inline on the calling
// goroutine — so nesting cannot deadlock and total CPU-bound concurrency
// stays near GOMAXPROCS regardless of nesting depth.
var inFlight atomic.Int32

// reserveWorker claims one slot of the global worker budget (limit extra
// goroutines process-wide), without blocking.
func reserveWorker(limit int32) bool {
	for {
		cur := inFlight.Load()
		if cur >= limit {
			return false
		}
		if inFlight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// forEach runs fn(i) for every i in [0, n). The calling goroutine always
// participates; up to GOMAXPROCS-1 extra goroutines join it, subject to the
// process-wide budget above. Indices are handed out dynamically, so fn must
// not rely on execution order — only on each index running exactly once. A
// panic in any fn is re-raised on the calling goroutine after all workers
// stop. Workers stop pulling new indices once ctx is done and the call
// returns ctx.Err(); indices already handed out still complete (fn is never
// interrupted mid-item), so on a nil error every index ran exactly once.
func forEach(ctx context.Context, n int, fn func(i int)) error {
	done := ctx.Done()
	// The pool size is GOMAXPROCS. Every parallelized pipeline in this
	// repository produces identical results at every size; the determinism
	// tests sweep runtime.GOMAXPROCS.
	procs := runtime.GOMAXPROCS(0)
	w := min(procs, n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			fn(i)
		}
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	run := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &r)
				next.Store(int64(n)) // stop handing out work
			}
		}()
		for {
			if done != nil {
				select {
				case <-done:
					next.Store(int64(n))
					return
				default:
				}
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	// The caller is worker zero, so the budget covers the extras only.
	limit := int32(procs) - 1
	for g := 1; g < w; g++ {
		if !reserveWorker(limit) {
			break
		}
		wg.Add(1)
		go func() {
			defer inFlight.Add(-1)
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
	return ctx.Err()
}

// Map runs fn over [0, n) on the bounded pool and collects the results in
// index order. The output slice is identical for every worker count.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	forEach(context.Background(), n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map with errors and cancellation. All indices run regardless of
// failures elsewhere in the batch; if any fn returned an error, the one with
// the lowest index wins (matching what a serial loop that aborts on first
// error would report) and the results slice is nil. Cancellation takes
// precedence over item errors: once ctx is done the call returns ctx.Err(),
// because the batch is known incomplete.
func MapErr[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if err := forEach(ctx, n, func(i int) { out[i], errs[i] = fn(i) }); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
