// Routing: the one index behind every policy and behind the destination
// order of moves.
//
// A routing decision scores the candidate machines and tries them best first,
// machines in failure domains not yet hosting the workload before the rest,
// ties in add order. Scores repeat: a machine's utilization is a function of
// (node count, free-node count), and its predicted performance for a
// container is a function of (score class, free-node count) — sched.ScoreClass
// names the machine model, the predictor and the serving goal, and the shape
// table holds the prediction per free-node count. So the fleet keeps, under
// Fleet.mu, every accepting member in the (class, free count) cell it scores
// as: a bitset over add-order member positions per cell, one view of classes
// by node count and one per container size met. A decision copies the
// non-empty cells in the hold it already takes, scores each once — one row per
// class, not one Preview per machine — sorts that handful, and expands them
// only as far as the caller asks: the first-try admission touches one member,
// whatever the size of the fleet.
//
// The invariant: whenever Fleet.mu is free and no admission is in flight,
// every member that is not dead has free == b.FreeNodes().Len(), and every
// accepting member sits, in every view, in the cell of its ScoreClass and that
// count. The fleet keeps it where it commits: a free count is re-read from the
// one backend a hold called (refreeLocked), a member is re-listed when what it
// accepts changes (relistLocked), Add, Remove and Restore derive the whole
// index anew (rebuildIndexLocked). An admission in flight between Place's two
// holds makes its machine's count stale by that one commit, as a Preview's
// view of the free mask was. Score classes are not polled: a backend bumps
// routeIndex.epoch after any change of what its ScoreClass answers
// (ScoreClasser.NotifyClassChange), and the decision that sees the bump drops
// the size views and reads the classes again before it ranks.
//
// The order is exact, not approximate: the one a Preview of every candidate
// followed by a stable sort and a stable partition returns (the parity tests
// keep that fan-out, and the per-member sweep this index replaced, as their
// oracles).
package fleet

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/perfsim"
	"repro/internal/sched"
)

// ScoreClasser is the optional capability of a Backend that lets the fleet
// score it without a Preview (numaplace.Engine has it). Backends reporting
// equal classes for a container size must answer Preview alike whenever
// their free-node counts are equal; ScoreRow returns those answers by
// free-node count (entry n: the Preview's PredictedPerf with n nodes free,
// or Class < 0 where the Preview fails), shared and read-only. ScoreClass may
// decline (ok false), as a Backend without the capability does throughout:
// such a backend is a class of one, scored by its Preview. The fleet asserts
// the capability once, at Add, and reads the class when it lists the member,
// not per decision: NotifyClassChange hands the backend the counter it must
// add to — an atomic add, from any goroutine — after every change of what
// ScoreClass answers (nil when the fleet lets the backend go).
type ScoreClasser interface {
	ScoreClass(vcpus int) (class sched.ScoreClass, ok bool)
	ScoreRow(ctx context.Context, w perfsim.Workload, vcpus int, class sched.ScoreClass) ([]sched.Score, error)
	NotifyClassChange(epoch *atomic.Uint64)
}

// scoreBy selects what a decision scores candidates by; lower scores go first.
type scoreBy uint8

const (
	inOrder       scoreBy = iota // one score for all: add order stands (FirstFit)
	leastLoaded                  // ascending utilization
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

// routeQuery is what one decision ranks candidates for: an admission of the
// container, or — moving set — the destinations of a tenant leaving its
// machine. A move leaves out that machine and every one at or below minUtil
// (negative: none), tries the busier first among equal scores, and does not
// count the tenant itself as occupying its failure domain.
type routeQuery struct {
	by      scoreBy
	w       perfsim.Workload
	vcpus   int
	moving  *tenantRec
	minUtil float64
}

// classKey identifies the members one score row covers: the machine's node
// count, and in a size view the score class.
type classKey struct {
	class sched.ScoreClass
	total int
}

// viewClass is one class of a view and its cells: sets holds key.total+1
// member sets of routeIndex.words words, cell n the accepting members of the
// class with n nodes free.
type viewClass struct {
	key  classKey
	sets []uint64
}

func (c *viewClass) cell(free, words int) []uint64 { return c.sets[free*words : (free+1)*words] }

// Values of routeView.classOf other than a class.
const (
	unlisted = -1 // not accepting: in no cell
	solo     = -2 // a size view: accepting, scored by its own Preview
)

// routeView files the accepting members under one notion of class: by node
// count alone (vcpus 0, what the load scorings and add order need), or by the
// score class for vcpus-sized containers, members that name none in solos.
type routeView struct {
	vcpus   int
	classOf []int32 // by member.pos
	classes []viewClass
	solos   []uint64
}

// routeIndex is the fleet's routing view of its members, guarded by Fleet.mu
// (epoch alone is atomic: backends add to it from their own goroutines).
type routeIndex struct {
	epoch atomic.Uint64
	seen  uint64 // epoch the size views are no older than
	words int    // per member set: one bit per member, by member.pos
	// views[0] is the load view; one more per container size met since the
	// classes last changed.
	views   []routeView
	domains [][]uint64         // by member.dom: the members labeled with it, nil when none is
	occ     map[string][]int32 // by workload name and member.dom: mapped tenants on machines not dead
}

func setBit(set []uint64, pos int32)   { set[pos>>6] |= 1 << (pos & 63) }
func clearBit(set []uint64, pos int32) { set[pos>>6] &^= 1 << (pos & 63) }

// rebuildIndexLocked derives the index from f.members, f.tenants and the live
// backends: what Add, Remove and Restore call, and what every incremental
// update must agree with. Size views are dropped, to be built by the next
// decision that needs one. Callers hold f.mu.
func (f *Fleet) rebuildIndexLocked() {
	ix := &f.idx
	ix.words = (len(f.members) + 63) / 64
	ix.domains = make([][]uint64, len(f.domains))
	for i, m := range f.members {
		m.pos = int32(i)
		if ix.domains[m.dom] == nil {
			ix.domains[m.dom] = make([]uint64, ix.words)
		}
		setBit(ix.domains[m.dom], m.pos)
		if m.health != Dead {
			m.free = m.b.FreeNodes().Len()
		}
	}
	ix.occ = map[string][]int32{}
	for _, rec := range f.tenants {
		if rec.mem.health != Dead {
			f.occLocked(rec.w.Name)[rec.mem.dom]++
		}
	}
	clear(ix.views)
	ix.views = append(ix.views[:0], ix.newView(f.members, 0))
}

// occLocked returns the per-domain tenant counts of the named workload.
func (f *Fleet) occLocked(workload string) []int32 {
	row, ok := f.idx.occ[workload]
	if !ok {
		row = make([]int32, len(f.domains))
		f.idx.occ[workload] = row
	}
	return row
}

// newView files the accepting members by their classes for vcpus.
func (ix *routeIndex) newView(members []*member, vcpus int) routeView {
	v := routeView{vcpus: vcpus, classOf: make([]int32, len(members))}
	if vcpus != 0 {
		v.solos = make([]uint64, ix.words)
	}
	for _, m := range members {
		v.classOf[m.pos] = unlisted
		if m.accepting() {
			v.list(m, ix.words)
		}
	}
	return v
}

// list enters m, accepting and unlisted, in the cell of its class — read here
// — and its free count.
func (v *routeView) list(m *member, words int) {
	key := classKey{total: m.total}
	if v.vcpus != 0 {
		ok := false
		if m.classer != nil {
			key.class, ok = m.classer.ScoreClass(v.vcpus)
		}
		if !ok {
			v.classOf[m.pos] = solo
			setBit(v.solos, m.pos)
			return
		}
	}
	c := slices.IndexFunc(v.classes, func(c viewClass) bool { return c.key == key })
	if c < 0 {
		c = len(v.classes)
		v.classes = append(v.classes, viewClass{key, make([]uint64, (key.total+1)*words)})
	}
	v.classOf[m.pos] = int32(c)
	setBit(v.classes[c].cell(m.free, words), m.pos)
}

func (v *routeView) unlist(m *member, words int) {
	switch c := v.classOf[m.pos]; c {
	case unlisted:
		return
	case solo:
		clearBit(v.solos, m.pos)
	default:
		clearBit(v.classes[c].cell(m.free, words), m.pos)
	}
	v.classOf[m.pos] = unlisted
}

// relistLocked files m anew after a change of what it accepts — a drain, a
// resume, a health transition: out of every cell, and back in, with its free
// count and classes read again, if it is accepting now. Callers hold f.mu.
func (f *Fleet) relistLocked(m *member) {
	ix := &f.idx
	for i := range ix.views {
		ix.views[i].unlist(m, ix.words)
	}
	if m.health != Dead {
		m.free = m.b.FreeNodes().Len()
	}
	if m.accepting() {
		for i := range ix.views {
			ix.views[i].list(m, ix.words)
		}
	}
}

// refreeLocked re-reads m's free-node count after the hold called its backend
// (an admission, an eviction, a move, a rebalance, a fence) and moves m to the
// cell of the new count in every view. m is not dead. Callers hold f.mu.
//
//numalint:noalloc
func (f *Fleet) refreeLocked(m *member) {
	free := m.b.FreeNodes().Len()
	if free == m.free {
		return
	}
	ix := &f.idx
	for i := range ix.views {
		v := &ix.views[i]
		if c := v.classOf[m.pos]; c >= 0 {
			clearBit(v.classes[c].cell(m.free, ix.words), m.pos)
			setBit(v.classes[c].cell(free, ix.words), m.pos)
		}
	}
	m.free = free
}

// viewLocked returns the view q ranks from, building the size view on its
// first use since the classes last changed. Callers hold f.mu.
func (f *Fleet) viewLocked(q *routeQuery) *routeView {
	ix := &f.idx
	if q.by != bestPredicted {
		return &ix.views[0]
	}
	if e := ix.epoch.Load(); e != ix.seen {
		// Some backend's class may have changed: the size views go, and with
		// them every class token (a predictor swapped out is let go).
		ix.seen = e
		clear(ix.views[1:])
		ix.views = ix.views[:1]
	}
	for i := range ix.views {
		if ix.views[i].vcpus == q.vcpus {
			return &ix.views[i]
		}
	}
	ix.views = append(ix.views, ix.newView(f.members, q.vcpus))
	return &ix.views[len(ix.views)-1]
}

// snapClass is one class with a candidate in a decision, and its score row.
type snapClass struct {
	key     classKey
	rep     *member       // the first candidate of the class: the one asked for the row
	row     []sched.Score // bestPredicted, once fetched; nil when the row could not be had
	fetched bool
}

// snapCell is one non-empty cell of a decision — or one solo candidate — and
// its score; its members are s.sets[off : off+s.words].
type snapCell struct {
	class       int32 // index into routeScratch.classes; solo
	free, total int32
	off         int32
	first       int32   // lowest member position of the cell
	score, then float64 // ascending, then breaking ties
}

// routeScratch is the working set of one decision: the copy of the index's
// cells that snapshotLocked takes under Fleet.mu, which rank then scores and
// next expands without it. Nothing in it points into the index.
type routeScratch struct {
	mark durable // of the caller's last hold (Place's durability join)

	// members is the fleet's member list as of the snapshot, by member.pos:
	// Add and Remove replace that slice and never write to it.
	members  []*member
	words    int
	classes  []snapClass
	cells    []snapCell // after rank: the scored ones, best first
	sets     []uint64
	one      []uint64 // all zero between uses: the set of one solo member
	occupied []uint64 // members in failure domains hosting the workload; empty: nothing to spread around
	excluded []uint64 // bestPredicted: members left out because their preview fails

	// The cursor of next: cells[lo:hi] are the group of equal scores being
	// expanded, word the member-set word, cur its members not yet returned;
	// late once the unoccupied domains are through.
	lo, hi, word int
	cur          uint64
	late         bool
}

var scratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// forget drops every reference the scratch holds into the fleet — members,
// predictors (through class tokens), rows — so that a pooled or idle scratch
// keeps no removed backend reachable.
func (s *routeScratch) forget() {
	s.members = nil
	clear(s.classes)
	s.classes = s.classes[:0]
}

// zeroed returns buf resized to n zero words.
func zeroed(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// snapshotLocked copies into s the cells q can rank: every non-empty cell of
// the view — above the move's utilization floor, without the machine the
// tenant is leaving — and the occupied-domain mask. len(s.cells) == 0 says no
// member is a candidate. Callers hold f.mu.
//
//numalint:noalloc
func (f *Fleet) snapshotLocked(s *routeScratch, q *routeQuery) {
	ix := &f.idx
	v := f.viewLocked(q)
	s.members, s.words = f.members, ix.words
	s.classes, s.cells, s.sets = s.classes[:0], s.cells[:0], s.sets[:0]
	for i := range v.classes {
		c := &v.classes[i]
		first := len(s.cells)
		for free := 0; free <= c.key.total; free++ {
			s.addCell(snapCell{class: int32(len(s.classes)), free: int32(free), total: int32(c.key.total)},
				c.cell(free, ix.words), q)
		}
		if len(s.cells) > first {
			rep := s.cells[first].first
			for _, cell := range s.cells[first+1:] {
				rep = min(rep, cell.first)
			}
			s.classes = append(s.classes, snapClass{key: c.key, rep: f.members[rep]})
		}
	}
	for i, w := range v.solos {
		if w != 0 && len(s.one) != ix.words {
			s.one = zeroed(s.one, ix.words)
		}
		for ; w != 0; w &= w - 1 {
			m := f.members[i<<6+bits.TrailingZeros64(w)]
			setBit(s.one, m.pos)
			s.addCell(snapCell{class: solo, free: int32(m.free), total: int32(m.total)}, s.one, q)
			clearBit(s.one, m.pos)
		}
	}
	s.occupied = s.occupied[:0]
	if !f.cfg.SpreadDomains {
		return
	}
	spare := false // some domain with members hosts no tenant of the workload
	for d, n := range ix.occ[q.w.Name] {
		if mv := q.moving; mv != nil && int(mv.mem.dom) == d && mv.mem.health != Dead {
			n-- // the tenant on the move does not hold its own domain
		}
		if n <= 0 {
			spare = spare || ix.domains[d] != nil
			continue
		}
		if len(s.occupied) == 0 {
			s.occupied = zeroed(s.occupied, ix.words)
		}
		for i, w := range ix.domains[d] {
			s.occupied[i] |= w
		}
	}
	if !spare {
		s.occupied = s.occupied[:0] // every candidate's domain is occupied: nothing to prefer
	}
}

// addCell appends cell c with the members of src — for a move, unless its
// utilization floor leaves the cell out, and without the machine the tenant is
// leaving — if anybody remains.
//
//numalint:noalloc
func (s *routeScratch) addCell(c snapCell, src []uint64, q *routeQuery) {
	if q.moving != nil && !(utilization(int(c.free), int(c.total)) > q.minUtil) {
		return
	}
	c.off = int32(len(s.sets))
	s.sets = append(s.sets, src...)
	set := s.sets[c.off:]
	if q.moving != nil {
		clearBit(set, q.moving.mem.pos)
	}
	for i, w := range set {
		if w != 0 {
			c.first = int32(i<<6 + bits.TrailingZeros64(w))
			s.cells = append(s.cells, c)
			return
		}
	}
	s.sets = s.sets[:c.off]
}

// rank scores the cells of the snapshot for q, leaves out those whose preview
// fails (rejections reports them), sorts the rest best first and rewinds
// next. It needs no lock. Only a cancelled ctx fails it.
//
//numalint:noalloc
func (s *routeScratch) rank(ctx context.Context, q *routeQuery) error {
	s.excluded = zeroed(s.excluded, s.words)
	n := 0
	for _, c := range s.cells {
		ok, err := s.score(ctx, &c, q)
		if err != nil {
			return err
		}
		if !ok {
			for i, w := range s.sets[c.off : int(c.off)+s.words] {
				s.excluded[i] |= w
			}
			continue
		}
		s.cells[n] = c
		n++
	}
	s.cells = s.cells[:n]
	slices.SortFunc(s.cells, compareCells)
	s.lo, s.hi, s.word, s.cur, s.late = 0, 0, s.words-1, 0, false
	return nil
}

func compareCells(a, b snapCell) int {
	if c := cmp.Compare(a.score, b.score); c != 0 {
		return c
	}
	return cmp.Compare(a.then, b.then)
}

// score sets c's score for q; ok is false when c's members are left out: the
// class's row, or the solo member's Preview, says the container does not fit.
//
//numalint:noalloc
func (s *routeScratch) score(ctx context.Context, c *snapCell, q *routeQuery) (ok bool, err error) {
	if q.moving != nil {
		c.then = -utilization(int(c.free), int(c.total))
	}
	switch {
	case q.by == leastLoaded:
		c.score = utilization(int(c.free), int(c.total))
	case q.by == bestPredicted && c.class == solo:
		pv, err := s.members[c.first].b.Preview(ctx, q.w, q.vcpus)
		if err != nil {
			return false, ctx.Err() // left out, unless it is the caller giving up
		}
		c.score = -pv.PredictedPerf
	case q.by == bestPredicted:
		cl := &s.classes[c.class]
		if !cl.fetched {
			cl.fetched = true
			if cl.row, err = cl.rep.classer.ScoreRow(ctx, q.w, q.vcpus, cl.key.class); err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return false, ctxErr
				}
				cl.row = nil // every preview of the class fails, and says why itself
			}
		}
		if int(c.free) >= len(cl.row) || cl.row[c.free].Class < 0 {
			return false, nil
		}
		c.score = -cl.row[c.free].Perf
	}
	return true, nil
}

// next returns the next candidate — unoccupied domains first, then by
// ascending score, equal scores merged in add order — or nil after the last.
// It expands a group of equal cells one member-set word at a time, so a caller
// that stops at the first candidate has touched one.
//
//numalint:noalloc
func (s *routeScratch) next() *member {
	for s.cur == 0 {
		if s.word++; s.word == s.words {
			s.word, s.lo = 0, s.hi
			if s.lo == len(s.cells) {
				if s.late || len(s.occupied) == 0 || len(s.cells) == 0 {
					return nil
				}
				s.late, s.lo = true, 0
			}
			for s.hi = s.lo + 1; s.hi < len(s.cells) && compareCells(s.cells[s.lo], s.cells[s.hi]) == 0; s.hi++ {
			}
		}
		for _, c := range s.cells[s.lo:s.hi] {
			s.cur |= s.sets[int(c.off)+s.word]
		}
		if len(s.occupied) != 0 {
			if s.late {
				s.cur &= s.occupied[s.word]
			} else {
				s.cur &^= s.occupied[s.word]
			}
		}
	}
	m := s.members[s.word<<6+bits.TrailingZeros64(s.cur)]
	s.cur &= s.cur - 1
	return m
}

// previewErr is one member's failed preview, as the rejection message of a
// bestPredicted admission reports it. The text is built only when read.
type previewErr struct {
	name string
	err  error
}

func (e *previewErr) Error() string { return e.name + ": preview: " + e.err.Error() }
func (e *previewErr) Unwrap() error { return e.err }

// rejections returns why each member rank left out was, in add order, for an
// admission nothing took: each is previewed now, for the error a fan-out would
// have collected; one that admits meanwhile has nothing to report.
func (s *routeScratch) rejections(ctx context.Context, q *routeQuery) []error {
	var errs []error
	for i, w := range s.excluded {
		for ; w != 0; w &= w - 1 {
			m := s.members[i<<6+bits.TrailingZeros64(w)]
			if _, err := m.b.Preview(ctx, q.w, q.vcpus); err != nil {
				errs = append(errs, &previewErr{m.name, err})
			}
		}
	}
	return errs
}
