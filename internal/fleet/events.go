// The event feed: a bounded, allocation-free fan-out of the commit stream
// (record.go; DESIGN.md, "The commit stream") to any number of subscribers.
// The wire layer streams it to remote watchers; simulations assert on it.
//
// Design constraints, in priority order:
//
//  1. The admission hot path must not slow down: a commit allocates nothing
//     (Record is a flat value struct, ring slots are pre-sized at Subscribe
//     time, the wake-up is a non-blocking send on a 1-buffered channel)
//     and never blocks on a subscriber.
//  2. A slow subscriber loses records rather than delaying anyone: each
//     subscription owns a fixed ring; when it is full the oldest record is
//     overwritten and the drop counter increments. Fast subscribers on the
//     same fleet are unaffected — rings are strictly per-subscriber.
//  3. Ordering is total and deterministic: every commit happens under
//     Fleet.mu, which serializes Seq assignment, so all subscribers see
//     the same records in the same order (minus their own drops, which are
//     always the oldest buffered records, never a gap in the middle of a
//     drain). Seq is the log's: strictly increasing, not dense — the types
//     the feed does not carry take numbers too — so a subscriber counts its
//     losses by Drain's drop count, not by Seq gaps.
//
// Lock ordering: Fleet.mu → Subscription.mu. Subscription methods never
// touch Fleet.mu except Close, which takes Fleet.mu first to unregister —
// the same one-directional order, so no deadlock is possible.
package fleet

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// ErrSubscriptionClosed is returned by Subscription.Wait after Close.
//
//numalint:ignore sentinelwrap in-process subscription sentinel; Wait is never wire-mapped, callers compare against this var directly
var ErrSubscriptionClosed = errors.New("fleet: event subscription closed")

// Subscription is one subscriber's bounded view of the fleet's commit
// stream. Records accumulate in a fixed ring until drained; when the ring
// is full the oldest is dropped (and counted) so the committer — the
// admission hot path — never blocks and never allocates. All methods are
// safe for concurrent use.
type Subscription struct {
	f *Fleet

	mu       sync.Mutex
	ring     []Record
	start    int // index of the oldest buffered record
	n        int // buffered records
	dropped  uint64
	reported uint64 // dropped count already returned by Drain
	closed   bool

	ready chan struct{} // 1-buffered wake-up; never closed
	done  chan struct{} // closed by Close
}

// Subscribe registers a new subscriber to the commit stream (admissions,
// rejections, releases, moves, health transitions, pass summaries) whose ring
// buffers up to buf records (minimum 1). Records committed before Subscribe are not replayed. Close the
// subscription when done; an abandoned subscription costs one ring copy per
// record but never blocks the fleet.
func (f *Fleet) Subscribe(buf int) *Subscription {
	if buf < 1 {
		buf = 1
	}
	s := &Subscription{
		f:     f,
		ring:  make([]Record, buf),
		ready: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	f.mu.Lock()
	f.subs = append(f.subs, s)
	f.mu.Unlock()
	return s
}

// push copies rec into the ring, overwriting the oldest buffered record (and
// counting the drop) when full.
//
//numalint:noalloc
func (s *Subscription) push(rec *Record) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.ring) {
		s.ring[s.start] = *rec
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
		s.ring[i] = *rec
		s.n++
	}
	s.mu.Unlock()
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Drain copies up to len(dst) buffered records into dst, oldest first, and
// returns the count alongside the number of records dropped (overwritten
// unread) since the previous Drain call. It never blocks; pair it with
// Wait for a streaming loop.
func (s *Subscription) Drain(dst []Record) (int, uint64) {
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

// Dropped returns the total number of records this subscription has
// dropped (ring overwrites) since Subscribe.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Wait blocks until at least one record is buffered, the context is done,
// or the subscription is closed (ErrSubscriptionClosed). A nil return
// means Drain will yield at least one record.
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

// Close unregisters the subscription: no further records are buffered and
// any Wait returns ErrSubscriptionClosed. Buffered records remain drainable.
// Close is idempotent. The fleet lets the subscription go: slices.Delete
// zeroes the slot it vacates.
func (s *Subscription) Close() {
	f := s.f
	f.mu.Lock()
	if i := slices.Index(f.subs, s); i >= 0 {
		f.subs = slices.Delete(f.subs, i, i+1)
	}
	f.mu.Unlock()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
}
