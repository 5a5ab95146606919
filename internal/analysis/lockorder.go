// lockorder enforces the documented mutex hierarchy: locks declared with
// //numalint:locks carry a rank, and every acquisition — direct or through
// any statically-resolvable call chain — must happen in strictly ascending
// rank order. This is the machine-checked form of the invariant that
// Fleet.mu (the WAL commit-order lock) is taken before any Engine's machine
// lock, that the machine lock precedes the table set's locks, and that no
// fleet method runs while a machine lock is held.
package analysis

import "fmt"

// LockOrder reports rank-order violations.
var LockOrder = &Analyzer{
	Name:     "lockorder",
	Doc:      "mutexes declared with //numalint:locks must be acquired in ascending rank order on every static path",
	Requires: []*Analyzer{LockSummary},
	Run:      runLockOrder,
}

func runLockOrder(pass *Pass) (any, error) {
	res := pass.ResultOf(LockSummary).(*lockResult)
	c := &lockCollector{pass: pass}
	for _, d := range res.details {
		reported := map[string]bool{}
		simulate(d, func(ev event, held []heldEntry) {
			switch ev.kind {
			case evAcquire:
				for _, h := range held {
					if h.lock.Rank < ev.lock.Rank {
						continue
					}
					var msg string
					if h.lock.Key == ev.lock.Key {
						msg = fmt.Sprintf("lock %s acquired while already held (self-deadlock on the writer path)", ev.lock.Name)
					} else {
						msg = fmt.Sprintf("lock %s (rank %d) acquired while holding %s (rank %d); the documented order is ascending rank", ev.lock.Name, ev.lock.Rank, h.lock.Name, h.lock.Rank)
					}
					key := fmt.Sprintf("%d/%s/%s", ev.pos, h.lock.Key, ev.lock.Key)
					if !reported[key] {
						reported[key] = true
						pass.Report(ev.pos, "%s", msg)
					}
				}
			case evCall:
				if ev.callee == nil || len(held) == 0 {
					return
				}
				summ := c.summaryOf(res, ev.callee)
				if summ == nil {
					return
				}
				for _, ai := range summ.Acquires {
					for _, h := range held {
						if h.lock.Rank < ai.Lock.Rank {
							continue
						}
						// A call that re-acquires a lock this function
						// already balanced out is still a path violation;
						// but don't double-report the callee's purely
						// internal ordering bugs (its own pass does).
						chain := ai.Why
						if chain != "" {
							chain = " (" + chain + ")"
						}
						key := fmt.Sprintf("%d/%s/%s", ev.pos, h.lock.Key, ai.Lock.Key)
						if reported[key] {
							continue
						}
						reported[key] = true
						if h.lock.Key == ai.Lock.Key {
							pass.Report(ev.pos, "call to %s acquires %s%s while it is already held", ev.name, ai.Lock.Name, chain)
						} else {
							pass.Report(ev.pos, "call to %s acquires %s (rank %d)%s while %s (rank %d) is held; the documented order is ascending rank", ev.name, ai.Lock.Name, ai.Lock.Rank, chain, h.lock.Name, h.lock.Rank)
						}
					}
				}
			}
		})
	}
	return nil, nil
}
