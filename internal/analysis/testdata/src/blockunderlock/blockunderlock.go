// Golden cases for the blockunderlock analyzer: file I/O and Commit-class
// calls under a noblock lock, directly and through a call.
package blockunderlock

import (
	"os"
	"sync"
)

type store struct {
	//numalint:locks store.mu rank=10 noblock
	mu sync.Mutex
	//numalint:locks store.slow rank=20
	slow sync.Mutex
	path string
	log  committer
}

type committer struct{}

func (committer) Commit() error { return nil }

// bad does file I/O while the noblock lock is held.
func (s *store) bad(data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = os.WriteFile(s.path, data, 0o644) // want "call to os.WriteFile while store.mu is held"
}

// badCommit makes a Commit-class call while the noblock lock is held.
func (s *store) badCommit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.log.Commit() // want "Commit-class call Commit while store.mu is held"
}

// flush blocks, but holds nothing itself: no finding here.
func (s *store) flush(data []byte) {
	_ = os.WriteFile(s.path, data, 0o644)
}

// badTransitive reaches the blocking work through a call.
func (s *store) badTransitive(data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush(data) // want "call to flush reaches blocking work \\(call to os.WriteFile\\) while store.mu is held"
}

// goodAfterUnlock blocks only once the noblock lock is released.
func (s *store) goodAfterUnlock(data []byte) {
	s.mu.Lock()
	s.mu.Unlock()
	_ = os.WriteFile(s.path, data, 0o644)
}

// goodOtherLock blocks under a lock that is not marked noblock.
func (s *store) goodOtherLock(data []byte) {
	s.slow.Lock()
	defer s.slow.Unlock()
	_ = os.WriteFile(s.path, data, 0o644)
}

// held is a hold on store.mu: lock returns holding it, end releases it and
// only then blocks.
type held struct{ s *store }

func (s *store) lock() held { s.mu.Lock(); return held{s} }

func (h held) end() { h.s.mu.Unlock(); _ = h.s.log.Commit() }

// badHeld blocks under the hold lock took.
func (s *store) badHeld(data []byte) {
	defer s.lock().end()
	_ = os.WriteFile(s.path, data, 0o644) // want "call to os.WriteFile while store.mu is held"
}
