// Event subscription for the fleet: a bounded, allocation-free fan-out of
// serving-plane happenings — admissions, releases, cross-machine moves,
// health transitions, failover/rebalance/drain pass summaries — to any
// number of subscribers. The wire layer streams these to remote watchers;
// simulations assert on them.
//
// Design constraints, in priority order:
//
//  1. The admission hot path must not slow down: publish allocates nothing
//     (Event is a flat value struct, ring slots are pre-sized at Subscribe
//     time, the wake-up is a non-blocking send on a 1-buffered channel)
//     and never blocks on a subscriber.
//  2. A slow subscriber loses events rather than delaying anyone: each
//     subscription owns a fixed ring; when it is full the oldest event is
//     overwritten and the drop counter increments. Fast subscribers on the
//     same fleet are unaffected — rings are strictly per-subscriber.
//  3. Ordering is total and deterministic: every publish happens under
//     Fleet.mu, which serializes Seq assignment, so all subscribers see
//     the same events in the same order (minus their own drops, which are
//     always the oldest buffered events, never a gap in the middle of a
//     drain).
//
// Lock ordering: Fleet.mu → Subscription.mu. Subscription methods never
// touch Fleet.mu except Close, which takes Fleet.mu first to unregister —
// the same one-directional order, so no deadlock is possible.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// EventType discriminates fleet events.
type EventType uint8

const (
	// EvPlace: container ID admitted onto Backend (Workload, VCPUs).
	EvPlace EventType = iota
	// EvRelease: container ID released from Backend. A release of a
	// tenant stranded on a dead machine publishes too — the fleet record
	// is the authoritative one, and it is gone.
	EvRelease
	// EvMove: container ID migrated from Backend to Dest (Seconds of
	// simulated fast-mechanism copy), by a rebalance, drain or failover
	// pass.
	EvMove
	// EvHealth: Backend transitioned FromHealth → ToHealth.
	EvHealth
	// EvFailover: summary of one failover pass over Backend's tenants
	// (Moves rehomed, Stranded left, Seconds spent).
	EvFailover
	// EvRebalance: summary of one fleet-wide rebalance pass (Moves
	// cross-machine, Intra intra-machine, Seconds spent).
	EvRebalance
	// EvDrain: summary of one drain pass of Backend.
	EvDrain
	// EvRevive: Backend rejoined; Fenced stale engine-side records were
	// released during fencing.
	EvRevive
	// EvResume: Backend reopened for admissions after a drain.
	EvResume
)

func (t EventType) String() string {
	switch t {
	case EvPlace:
		return "place"
	case EvRelease:
		return "release"
	case EvMove:
		return "move"
	case EvHealth:
		return "health"
	case EvFailover:
		return "failover"
	case EvRebalance:
		return "rebalance"
	case EvDrain:
		return "drain"
	case EvRevive:
		return "revive"
	case EvResume:
		return "resume"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is one fleet happening. It is a flat value struct — no pointers
// into fleet state, no slices — so publishing is a copy and a buffered
// event stays valid forever. Fields beyond Seq/Type are populated per
// type (see the EventType docs); unused fields are zero.
type Event struct {
	// Seq is the fleet-wide publish sequence number, totally ordered
	// across all event types (assigned under Fleet.mu). Subscribers can
	// detect their own drops as Seq gaps, and the explicit drop counter
	// from Drain says how many.
	Seq  uint64
	Type EventType

	// ID is the fleet-wide container ID for container events (EvPlace,
	// EvRelease, EvMove); -1 otherwise.
	ID int
	// Backend is the machine the event concerns ("" for the fleet-wide
	// EvRebalance summary). For EvMove it is the source machine.
	Backend string
	// Dest is the destination machine of an EvMove.
	Dest string
	// Workload / VCPUs describe the container of a container event.
	Workload string
	VCPUs    int
	// FromHealth → ToHealth is an EvHealth transition.
	FromHealth, ToHealth Health
	// Pass summaries (EvFailover, EvRebalance, EvDrain): Moves counts
	// committed cross-machine moves, Intra intra-machine moves
	// (EvRebalance only), Examined / Stranded mirror Report.
	Moves, Intra, Examined, Stranded int
	// Fenced is the stale-record count of an EvRevive.
	Fenced int
	// Seconds is the simulated migration time: one move's cost for
	// EvMove, the pass total for summaries.
	Seconds float64
}

// ErrSubscriptionClosed is returned by Subscription.Wait after Close.
//
//numalint:ignore sentinelwrap in-process subscription sentinel; Wait is never wire-mapped, callers compare against this var directly
var ErrSubscriptionClosed = errors.New("fleet: event subscription closed")

// Subscription is one subscriber's bounded view of the fleet's event
// stream. Events accumulate in a fixed ring until drained; when the ring
// is full the oldest event is dropped (and counted) so the publisher — the
// admission hot path — never blocks and never allocates. All methods are
// safe for concurrent use.
type Subscription struct {
	f *Fleet

	mu       sync.Mutex
	ring     []Event
	start    int // index of the oldest buffered event
	n        int // buffered events
	dropped  uint64
	reported uint64 // dropped count already returned by Drain
	closed   bool

	ready chan struct{} // 1-buffered wake-up; never closed
	done  chan struct{} // closed by Close
}

// Subscribe registers a new event subscriber whose ring buffers up to buf
// events (minimum 1). Events published before Subscribe are not replayed.
// Close the subscription when done; an abandoned subscription costs one
// ring copy per event but never blocks the fleet.
func (f *Fleet) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{
		f:     f,
		ring:  make([]Event, buf),
		ready: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	f.mu.Lock()
	f.subs = append(f.subs, s)
	f.mu.Unlock()
	return s
}

// publish hands one event to every subscriber and assigns its sequence
// number. Callers hold f.mu — that lock is what makes the sequence a total
// order. The path allocates nothing and never blocks: each ring slot is a
// value copy, and the wake-up send is non-blocking.
//
//numalint:noalloc
func (f *Fleet) publish(ev Event) {
	if len(f.subs) == 0 {
		return
	}
	f.eventSeq++
	ev.Seq = f.eventSeq
	for _, s := range f.subs {
		s.push(ev)
	}
}

// push appends ev to the ring, overwriting the oldest buffered event (and
// counting the drop) when full.
//
//numalint:noalloc
func (s *Subscription) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.ring) {
		s.ring[s.start] = ev
		s.start++
		if s.start == len(s.ring) {
			s.start = 0
		}
		s.dropped++
	} else {
		i := s.start + s.n
		if i >= len(s.ring) {
			i -= len(s.ring)
		}
		s.ring[i] = ev
		s.n++
	}
	s.mu.Unlock()
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Drain copies up to len(dst) buffered events into dst, oldest first, and
// returns the count alongside the number of events dropped (overwritten
// unread) since the previous Drain call. It never blocks; pair it with
// Wait for a streaming loop.
func (s *Subscription) Drain(dst []Event) (int, uint64) {
	s.mu.Lock()
	n := s.n
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		j := s.start + i
		if j >= len(s.ring) {
			j -= len(s.ring)
		}
		dst[i] = s.ring[j]
	}
	s.start += n
	if s.start >= len(s.ring) {
		s.start -= len(s.ring)
	}
	s.n -= n
	d := s.dropped - s.reported
	s.reported = s.dropped
	s.mu.Unlock()
	return n, d
}

// Dropped returns the total number of events this subscription has
// dropped (ring overwrites) since Subscribe.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Pending returns the number of buffered events awaiting Drain.
func (s *Subscription) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Wait blocks until at least one event is buffered, the context is done,
// or the subscription is closed (ErrSubscriptionClosed). A nil return
// means Drain will yield at least one event.
func (s *Subscription) Wait(ctx context.Context) error {
	for {
		s.mu.Lock()
		n, closed := s.n, s.closed
		s.mu.Unlock()
		if n > 0 {
			return nil
		}
		if closed {
			return ErrSubscriptionClosed
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.done:
			return ErrSubscriptionClosed
		case <-s.ready:
		}
	}
}

// Close unregisters the subscription: no further events are buffered and
// any Wait returns ErrSubscriptionClosed. Buffered events remain drainable.
// Close is idempotent.
func (s *Subscription) Close() {
	f := s.f
	f.mu.Lock()
	for i, x := range f.subs {
		if x == s {
			f.subs = append(f.subs[:i], f.subs[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
}
