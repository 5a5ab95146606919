// Routing: the one ordering pass behind every policy and behind the
// destination order of moves.
//
// A routing decision scores each candidate machine and tries them best
// first, machines in failure domains not yet hosting the workload before
// the rest, ties in candidate order. Scores repeat: a machine's utilization
// is a function of (node count, free-node count), and its predicted
// performance for a container is a function of (score class, free-node
// count) — sched.ScoreClass names the machine model, the predictor and the
// serving goal, and PR 15's shape table already holds the prediction per
// free-node count. So the pass never ranks machines. It reads each
// candidate's class and free count (two atomic loads on an Engine), scores
// each distinct (class, free count) cell once — one row per class from the
// first engine of the class, not one Preview per machine — sorts the handful
// of distinct scores, and emits the candidates with one stable counting sort
// keyed by (domain occupied, score rank): O(candidates + cells log cells).
//
// The pass is exact, not approximate: it returns the order a Preview of
// every candidate followed by a stable sort and a stable partition returns
// (the parity tests keep that fan-out as their oracle). Nothing it computes
// outlives the decision — classes, free counts and rows are read per call,
// without a lock, exactly as Preview read the free mask — so there is no
// index to maintain and nothing to go stale.
package fleet

import (
	"cmp"
	"context"
	"slices"
	"sync"

	"repro/internal/perfsim"
	"repro/internal/sched"
)

// ScoreClasser is the optional capability of a Backend that lets the fleet
// score it without a Preview (numaplace.Engine has it). Backends reporting
// equal classes for a container size must answer Preview alike whenever
// their free-node counts are equal; ScoreRow returns those answers by
// free-node count (entry n: the Preview's PredictedPerf with n nodes free,
// or Class < 0 where the Preview fails), shared and read-only. ScoreClass is
// asked on every routing decision, so it must be cheap, and may decline
// (ok false), as a Backend without the capability does throughout: such a
// backend is a class of one, scored by its Preview. The fleet asserts the
// capability once, at Add.
type ScoreClasser interface {
	ScoreClass(vcpus int) (class sched.ScoreClass, ok bool)
	ScoreRow(ctx context.Context, w perfsim.Workload, vcpus int, class sched.ScoreClass) ([]sched.Score, error)
}

// scoreBy selects what a pass scores candidates by; lower scores go first.
type scoreBy uint8

const (
	inOrder       scoreBy = iota // one score for all: candidate order stands (FirstFit)
	leastLoaded                  // ascending utilization
	busiestFirst                 // descending utilization, above routeQuery.minUtil only
	bestPredicted                // descending predicted performance of the container
)

func (p Policy) scoring() scoreBy {
	switch p {
	case LeastLoaded:
		return leastLoaded
	case BestPredicted:
		return bestPredicted
	default:
		return inOrder
	}
}

// routeQuery is what one pass ranks candidates for.
type routeQuery struct {
	by      scoreBy
	minUtil float64          // busiestFirst: candidates at or below it are left out
	w       perfsim.Workload // bestPredicted: the container
	vcpus   int
}

// Cell states of a candidate (routeScratch.cell) and of a class's free count
// (routeClass.cells) that has no score.
const (
	unseen  = -1 // not scored yet in this pass
	leftOut = -2 // not ranked: below the utilization floor, or its preview fails
)

// classKey identifies the candidates one score row covers.
type classKey struct {
	class sched.ScoreClass // bestPredicted
	total int              // load scorings: the machine's node count
}

// routeClass is one class met in a pass and its cells by free-node count.
type routeClass struct {
	key   classKey
	row   []sched.Score // bestPredicted; nil when the row could not be had
	cells []int32       // by free-node count: index into cells, unseen or leftOut
}

// scoreCell is one distinct (class, free count) — or one unclassed
// candidate — and its score.
type scoreCell struct {
	score float64
	id    int32
}

// exclusion is a candidate a bestPredicted pass left out: its preview fails.
// err is nil when the score row said so and no Preview ran.
type exclusion struct {
	m   *member
	err error
}

// routeScratch is the working set of one pass. The caller fills mems (in
// tie-break order) and the occupancy marks under Fleet.mu, calls route, and
// owns the result until it reuses the scratch.
type routeScratch struct {
	mems     []*member
	occupied []bool  // by member.dom: the domain hosts the workload already
	spread   bool    // some domain does
	mark     durable // of the caller's last hold (Place's durability join)

	cell     []int32 // per candidate: its cell, then its sort bucket
	cells    []scoreCell
	rank     []int32 // per cell: rank of its score among the distinct scores
	bucket   []int32
	classes  []routeClass
	excluded []exclusion
	out      []*member
}

var scratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// route ranks s.mems for q. Only a cancelled ctx fails it.
func (s *routeScratch) route(ctx context.Context, q *routeQuery) ([]*member, error) {
	s.reset()
	if err := s.score(ctx, q); err != nil {
		return nil, err
	}
	return s.order(), nil
}

// reset sizes the per-candidate and per-cell buffers for len(s.mems)
// candidates (there are never more cells than candidates, but for inOrder's
// one) and forgets the previous pass. All growth happens here and in
// addClass, so the pass proper allocates nothing once a scratch has met the
// fleet.
func (s *routeScratch) reset() {
	n := len(s.mems) + 1
	if cap(s.cell) < n {
		s.cell = make([]int32, n)
		s.cells = make([]scoreCell, 0, n)
		s.rank = make([]int32, n)
		s.bucket = make([]int32, 2*n)
		s.out = make([]*member, n)
	}
	s.cells = s.cells[:0]
	s.classes = s.classes[:0]
	s.excluded = s.excluded[:0]
}

// score resolves every candidate to a cell (or leaves it out).
//
//numalint:noalloc
func (s *routeScratch) score(ctx context.Context, q *routeQuery) error {
	if q.by == inOrder {
		s.newCell(0)
	}
	for i, m := range s.mems {
		switch q.by {
		case inOrder:
			s.cell[i] = 0
		case bestPredicted:
			c, err := s.predictedCell(ctx, m, q)
			if err != nil {
				return err
			}
			s.cell[i] = c
		default:
			s.cell[i] = s.loadCell(m, q)
		}
	}
	return nil
}

//numalint:noalloc
func (s *routeScratch) newCell(score float64) int32 {
	id := int32(len(s.cells))
	s.cells = append(s.cells, scoreCell{score, id})
	return id
}

// loadCell scores m by utilization: a function of its node count (the class)
// and its free count.
//
//numalint:noalloc
func (s *routeScratch) loadCell(m *member, q *routeQuery) int32 {
	cl, fresh := s.classOf(classKey{total: m.total})
	if fresh {
		cl.cells = fillUnseen(cl.cells, m.total+1)
	}
	return s.classCell(cl, m.b.FreeNodes().Len(), q)
}

// predictedCell scores m by the performance its predictor promises q's
// container: from its class's row when it names a class, from its own
// Preview — a class of one — when it does not. A failing preview leaves m
// out and notes it for the rejection message.
//
//numalint:noalloc
func (s *routeScratch) predictedCell(ctx context.Context, m *member, q *routeQuery) (int32, error) {
	if m.classer != nil {
		if class, ok := m.classer.ScoreClass(q.vcpus); ok {
			cl, fresh := s.classOf(classKey{class: class})
			if fresh {
				row, err := m.classer.ScoreRow(ctx, q.w, q.vcpus, class)
				if err != nil {
					if ctxErr := ctx.Err(); ctxErr != nil {
						return 0, ctxErr
					}
					row = nil // every preview of the class fails, and says why itself
				}
				cl.row, cl.cells = row, fillUnseen(cl.cells, len(row))
			}
			c := int32(leftOut)
			if cl.row != nil {
				c = s.classCell(cl, m.b.FreeNodes().Len(), q)
			}
			if c == leftOut {
				s.excluded = append(s.excluded, exclusion{m: m})
			}
			return c, nil
		}
	}
	pv, err := m.b.Preview(ctx, q.w, q.vcpus)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return 0, ctxErr
		}
		s.excluded = append(s.excluded, exclusion{m, err})
		return leftOut, nil
	}
	return s.newCell(-pv.PredictedPerf), nil
}

// classCell returns the cell of cl's members with free nodes free, scoring
// it the first time a pass asks.
//
//numalint:noalloc
func (s *routeScratch) classCell(cl *routeClass, free int, q *routeQuery) int32 {
	if cl.cells[free] == unseen {
		cl.cells[free] = leftOut
		if score, ok := cl.score(free, q); ok {
			cl.cells[free] = s.newCell(score)
		}
	}
	return cl.cells[free]
}

// score is what q scores a member of cl with free nodes free; ok is false
// when it is left out.
//
//numalint:noalloc
func (cl *routeClass) score(free int, q *routeQuery) (score float64, ok bool) {
	switch q.by {
	case bestPredicted:
		return -cl.row[free].Perf, cl.row[free].Class >= 0
	case leastLoaded:
		return utilization(free, cl.key.total), true
	default: // busiestFirst
		u := utilization(free, cl.key.total)
		return -u, u > q.minUtil
	}
}

// classOf finds key among the classes of this pass — a scan: a fleet has a
// few machine models — adding it when it is new: the caller then sizes its
// cells.
//
//numalint:noalloc
func (s *routeScratch) classOf(key classKey) (cl *routeClass, fresh bool) {
	for i := range s.classes {
		if s.classes[i].key == key {
			return &s.classes[i], false
		}
	}
	return s.addClass(key), true
}

// addClass appends a class, keeping the slot's cell buffer of a previous
// pass for reuse.
func (s *routeScratch) addClass(key classKey) *routeClass {
	n := len(s.classes)
	if n < cap(s.classes) {
		s.classes = s.classes[:n+1]
	} else {
		s.classes = append(s.classes, routeClass{})
	}
	cl := &s.classes[n]
	cl.key, cl.row = key, nil
	return cl
}

// fillUnseen returns buf resized to n cells, all unseen.
func fillUnseen(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = unseen
	}
	return buf
}

// order emits the scored candidates: unoccupied domains first, then by
// ascending score, then in candidate order. The distinct scores are sorted
// and ranked — equal scores of different cells share a rank, which is what
// keeps ties in candidate order across classes — and one counting sort over
// (occupied, rank) does the rest.
//
//numalint:noalloc
func (s *routeScratch) order() []*member {
	slices.SortFunc(s.cells, func(a, b scoreCell) int { return cmp.Compare(a.score, b.score) })
	ranks := int32(0)
	for i, c := range s.cells {
		if i > 0 && cmp.Compare(s.cells[i-1].score, c.score) != 0 {
			ranks++
		}
		s.rank[c.id] = ranks
	}
	ranks++
	bucket := s.bucket[:2*ranks]
	clear(bucket)
	for i, m := range s.mems {
		k := s.cell[i]
		if k < 0 {
			continue
		}
		k = s.rank[k]
		if s.spread && s.occupied[m.dom] {
			k += ranks
		}
		s.cell[i] = k
		bucket[k]++
	}
	n := int32(0)
	for k, count := range bucket {
		bucket[k] = n
		n += count
	}
	out := s.out[:n]
	for i, m := range s.mems {
		if k := s.cell[i]; k >= 0 {
			out[bucket[k]] = m
			bucket[k]++
		}
	}
	return out
}

// previewErr is one member's failed preview, as the rejection message of a
// bestPredicted admission reports it. The text is built only when read.
type previewErr struct {
	name string
	err  error
}

func (e *previewErr) Error() string { return e.name + ": preview: " + e.err.Error() }
func (e *previewErr) Unwrap() error { return e.err }

// rejections returns why each excluded candidate was left out, in candidate
// order, for an admission nothing took. A candidate its score row excluded
// is previewed now, for the error a fan-out would have collected; one that
// admits meanwhile has nothing to report.
func (s *routeScratch) rejections(ctx context.Context, q *routeQuery) []error {
	var errs []error
	for _, x := range s.excluded {
		err := x.err
		if err == nil {
			_, err = x.m.b.Preview(ctx, q.w, q.vcpus)
		}
		if err != nil {
			errs = append(errs, &previewErr{x.m.name, err})
		}
	}
	return errs
}
