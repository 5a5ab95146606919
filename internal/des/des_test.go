package des

import (
	"math"
	"reflect"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	if end := s.Run(); end != 3 {
		t.Fatalf("end time %v", end)
	}
	if !reflect.DeepEqual(order, []int{1, 2, 3}) {
		t.Fatalf("order %v", order)
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events reordered: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var s Sim
	var times []float64
	s.After(1, func() {
		times = append(times, s.Now())
		s.After(2, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if !reflect.DeepEqual(times, []float64{1, 3}) {
		t.Fatalf("times %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	var s Sim
	ran := 0
	s.At(1, func() { ran++ })
	s.At(5, func() { ran++ })
	s.RunUntil(3)
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if s.Now() != 3 {
		t.Fatalf("clock %v, want 3", s.Now())
	}
	if s.queue.Len() != 1 {
		t.Fatalf("pending %d", s.queue.Len())
	}
	s.Run()
	if ran != 2 || s.Now() != 5 {
		t.Fatalf("final state ran=%d now=%v", ran, s.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Sim
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestNaNSchedulingPanics(t *testing.T) {
	var s Sim
	for _, at := range []func(){
		func() { s.At(math.NaN(), func() {}) },
		func() { s.After(math.NaN(), func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("scheduling at NaN did not panic")
				}
			}()
			at()
		}()
	}
	if s.Step() {
		t.Error("a NaN event was queued")
	}
}

func TestStepOnEmpty(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestCancelBeforeFire(t *testing.T) {
	var s Sim
	fired := false
	tm := s.At(5, func() { fired = true })
	if s.queue.Len() != 1 {
		t.Fatalf("pending %d, want 1", s.queue.Len())
	}
	if !tm.Cancel() {
		t.Fatal("Cancel before fire returned false")
	}
	if s.queue.Len() != 0 {
		t.Fatalf("pending %d after cancel, want 0", s.queue.Len())
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if end := s.Run(); end != 0 {
		t.Fatalf("cancelled event advanced the clock to %v", end)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if tm.idx >= 0 {
		t.Fatal("cancelled timer not reported as done")
	}
}

func TestCancelAfterFire(t *testing.T) {
	var s Sim
	fired := 0
	tm := s.After(1, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if tm.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
	if tm.idx >= 0 {
		t.Fatal("fired timer not reported as done")
	}
	// The no-op cancel must not have corrupted the queue.
	s.After(1, func() { fired++ })
	s.Run()
	if fired != 2 {
		t.Fatalf("fired %d times after post-fire cancel, want 2", fired)
	}
}

// TestCancelRescheduleDeadline exercises the heartbeat-deadline pattern:
// each beat cancels the pending deadline and schedules a new one, so only
// the deadline after the final beat fires.
func TestCancelRescheduleDeadline(t *testing.T) {
	var s Sim
	expired := -1.0
	var deadline *Timer
	arm := func() { deadline = s.After(3, func() { expired = s.Now() }) }
	arm()
	for _, beat := range []float64{1, 2, 3, 4} {
		beat := beat
		s.At(beat, func() {
			if !deadline.Cancel() {
				t.Errorf("deadline already fired at beat t=%v", beat)
			}
			arm()
		})
	}
	s.Run()
	if expired != 7 { // last beat at t=4, deadline 3 s later
		t.Fatalf("deadline expired at t=%v, want 7", expired)
	}
}

// TestCancelHeapIntegrity cancels an interleaved subset of many scheduled
// events and checks the survivors still fire exactly once, in time order,
// with FIFO tie-breaking intact.
func TestCancelHeapIntegrity(t *testing.T) {
	var s Sim
	const n = 200
	var fired []int
	timers := make([]*Timer, n)
	for i := 0; i < n; i++ {
		i := i
		// Colliding times (i/4) stress the seq tie-breaker through Remove's
		// internal swaps.
		timers[i] = s.At(float64(i/4), func() { fired = append(fired, i) })
	}
	// Cancel every third event, scattered across the heap, including the
	// current head (index 0 schedules at t=0).
	want := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			if !timers[i].Cancel() {
				t.Fatalf("cancel of pending event %d failed", i)
			}
		} else {
			want = append(want, i)
		}
	}
	if s.queue.Len() != len(want) {
		t.Fatalf("pending %d after cancels, want %d", s.queue.Len(), len(want))
	}
	s.Run()
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v\nwant  %v", fired, want)
	}
}
