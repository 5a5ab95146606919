// Package des is a minimal discrete-event simulation kernel: a virtual
// clock and a time-ordered event queue. The memory-migration simulator and
// the cluster churn simulator are built on it; the kernel is generic and
// reusable.
package des

import (
	"container/heap"
	"math"
)

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now   float64
	queue eventHeap
	seq   int64 // tie-breaker preserving scheduling order at equal times
}

// Timer is the handle to one scheduled event. Cancel removes the event
// before it fires; holders that never cancel can discard the handle.
type Timer struct {
	s *Sim
	// idx is the event's current position in the heap, maintained through
	// sifts by the heap callbacks; -1 once fired or cancelled.
	idx int
}

// Cancel removes the timer's event from the queue so it never fires. It
// reports whether it cancelled the event: false means the event already
// fired or was already cancelled, and the call was a no-op. Heartbeat-style
// users reschedule by cancelling the pending deadline and scheduling a new
// one, so a deadline never fires stale.
func (t *Timer) Cancel() bool {
	if t == nil || t.idx < 0 {
		return false
	}
	heap.Remove(&t.s.queue, t.idx) // Pop marks t.idx = -1
	return true
}

type event struct {
	time float64
	seq  int64
	fn   func()
	t    *Timer // back-pointer kept in sync with the heap position
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].t.idx = i
	h[j].t.idx = j
}
func (h *eventHeap) Push(x interface{}) {
	e := x.(event)
	e.t.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1].fn = nil // release the closure
	e.t.idx = -1
	*h = old[:n-1]
	return e
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t and returns its cancellation handle.
// Scheduling in the past panics: it would silently corrupt causality. So
// does scheduling at NaN, which compares as neither past nor future.
func (s *Sim) At(t float64, fn func()) *Timer {
	if math.IsNaN(t) {
		panic("des: scheduling event at NaN")
	}
	if t < s.now {
		panic("des: scheduling event in the past")
	}
	tm := &Timer{s: s}
	heap.Push(&s.queue, event{time: t, seq: s.seq, fn: fn, t: tm})
	s.seq++
	return tm
}

// After schedules fn d seconds from now and returns its cancellation handle.
func (s *Sim) After(d float64, fn func()) *Timer { return s.At(s.now+d, fn) }

// Step executes the next event; it reports false when the queue is empty.
func (s *Sim) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(event)
	s.now = e.time
	e.fn()
	return true
}

// Run executes events until the queue drains and returns the final time.
func (s *Sim) Run() float64 {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events with time <= t, then advances the clock to t.
func (s *Sim) RunUntil(t float64) {
	for s.queue.Len() > 0 && s.queue[0].time <= t {
		s.Step()
	}
	if t > s.now {
		s.now = t
	}
}
