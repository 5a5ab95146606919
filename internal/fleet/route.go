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
// by node count and one per container size met. How those cells rank depends
// on nothing but the view's classes, the scoring and the workload, so each
// view memoizes the order per (scoring, workload). A decision is one call,
// routeLocked, in the hold of the verb that makes it, and next walks that
// order over the live cells only as far as the caller asks — the first-try
// admission ranks nothing, copies no cell and touches one member, whatever the
// size of the fleet. Only a decision that finds no order covering the view's
// classes ranks them: one row per class, not one Preview per machine.
//
// The invariant: whenever Fleet.mu is free, every member that is not dead has
// free == b.FreeNodes().Len(), and every accepting member sits, in every view,
// in the cell of its ScoreClass and that count. The fleet keeps it where it
// commits: a free count is re-read from the one backend a hold called
// (refreeLocked), a member is re-listed when what it accepts changes
// (relistLocked), Add, Remove and Restore derive the whole index anew
// (rebuildIndexLocked). Score classes and rows are not polled: a backend
// bumps routeIndex.epoch after any change of what its ScoreClass answers or
// its ScoreRow returns (ScoreClasser.NotifyClassChange), and the decision that
// sees the bump drops the size views, and their orders with them, and reads the
// classes again before it ranks.
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
	"sync/atomic"

	"repro/internal/perfsim"
	"repro/internal/sched"
)

// ScoreClasser is the optional capability of a Backend that lets the fleet
// score it without a Preview (numaplace.Engine has it). Backends reporting
// equal classes for a container size must answer Preview alike whenever
// their free-node counts are equal; ScoreRow returns those answers by
// free-node count (entry n: the Preview's PredictedPerf with n nodes free,
// or Class < 0 where the Preview fails), shared and read-only. A row once
// returned for (class, workload, size) stands until NotifyClassChange's
// counter next moves: the fleet ranks from it once and remembers the order
// (an error is not remembered). ScoreClass may decline (ok false), as a
// Backend without the capability does throughout: such a backend is a class
// of one, scored by its Preview. The fleet asserts the capability once, at
// Add, and reads the class when it lists the member, not per decision:
// NotifyClassChange hands the backend the counter it must add to — an atomic
// add, from any goroutine — after every change of what ScoreClass answers or
// ScoreRow returns (nil when the fleet lets the backend go).
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

// orderKey names the order q's cells rank in: by its scoring and, in a size
// view, its workload.
func (q *routeQuery) orderKey() orderKey {
	if q.by == bestPredicted {
		return orderKey{by: q.by, name: q.w.Name}
	}
	return orderKey{by: q.by}
}

// classKey identifies the members one score row covers: the machine's node
// count, and in a size view the score class.
type classKey struct {
	class sched.ScoreClass
	total int
}

// viewClass is one class of a view and its cells: sets holds key.total+1
// member sets of routeIndex.words words, cell n the accepting members of the
// class with n nodes free; members counts them.
type viewClass struct {
	key     classKey
	sets    []uint64
	members int
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
	orders  map[orderKey]*cellOrder // the memo: each key's order of classes
}

// orderKey names one cell order of a view: the scoring and, in a size view,
// the workload — by name; the order keeps the full workload and a hit
// compares it, so namesakes replace each other, never mix.
type orderKey struct {
	by   scoreBy
	name string
}

// orderCell is one (class, free count) cell of a cell order and its score;
// out says the class's row has the container fit nowhere there.
type orderCell struct {
	class, free, total int32
	score              float64
	out                bool
}

// cellOrder is the ranking of a view's cells for one key: every cell of the
// classes it covers, by ascending score and, among equal scores, busier
// first — so equal scores stay together for next's add-order merge and for a
// move's busier-first tie-break — then the cells left out. It holds scores
// only, no row and no class token, so it keeps no predictor alive.
type cellOrder struct {
	w      perfsim.Workload // bestPredicted: the workload it ranks for
	covers []bool           // by view class: the class's cells are all here
	cells  []orderCell
}

// serves reports whether e orders q's candidates in v: ranked for q's
// workload, and covering every class of v that has members.
//
//numalint:noalloc
func (e *cellOrder) serves(v *routeView, q *routeQuery) bool {
	if e == nil || q.by == bestPredicted && e.w != q.w {
		return false
	}
	for i := range v.classes {
		if v.classes[i].members > 0 && (i >= len(e.covers) || !e.covers[i]) {
			return false
		}
	}
	return true
}

// maxOrders bounds one view's memo: one order per workload name met at its
// size — 256 is ten times the paper's catalog.
const maxOrders = 256

// remember keeps e as v's order for k. Past maxOrders the memo starts afresh:
// dropping orders is always safe, the next decision of the key ranks again.
func (v *routeView) remember(k orderKey, e *cellOrder) {
	if v.orders == nil || len(v.orders) >= maxOrders {
		v.orders = make(map[orderKey]*cellOrder, 4)
	}
	v.orders[k] = e
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
	f.scratch = routeScratch{} // it aliases the last decision's view and members
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
		v.classes = append(v.classes, viewClass{key: key, sets: make([]uint64, (key.total+1)*words)})
	}
	v.classOf[m.pos] = int32(c)
	v.classes[c].members++
	setBit(v.classes[c].cell(m.free, words), m.pos)
}

func (v *routeView) unlist(m *member, words int) {
	switch c := v.classOf[m.pos]; c {
	case unlisted:
		return
	case solo:
		clearBit(v.solos, m.pos)
	default:
		v.classes[c].members--
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

// maxViews bounds the size views, one per container size met: 64 sizes,
// where BenchmarkClusterAdmitResident's fleets serve four.
const maxViews = 64

// viewLocked returns the view q ranks from, building the size view on its
// first use since the classes last changed. Past maxViews size views they all
// go: dropping views is always safe, the next decision of a size builds its
// view again, and every commit walks the views. Callers hold f.mu.
func (f *Fleet) viewLocked(q *routeQuery) *routeView {
	ix := &f.idx
	if q.by != bestPredicted {
		return &ix.views[0]
	}
	if e := ix.epoch.Load(); e != ix.seen {
		// Some backend's class or rows may have changed: the size views go,
		// and with them every class token (a predictor swapped out is let go)
		// and every order ranked from its rows.
		ix.seen = e
		clear(ix.views[1:])
		ix.views = ix.views[:1]
	}
	for i := range ix.views {
		if ix.views[i].vcpus == q.vcpus {
			return &ix.views[i]
		}
	}
	if len(ix.views) > maxViews {
		clear(ix.views[1:])
		ix.views = ix.views[:1]
	}
	ix.views = append(ix.views, ix.newView(f.members, q.vcpus))
	return &ix.views[len(ix.views)-1]
}

// rank is what a decision orders candidates by: ascending score and, among
// equal scores, ascending then — a move's busier-first tie-break, 0 for an
// admission. Candidates of equal rank are one group, merged in add order.
type rank struct{ score, then float64 }

func (a rank) compare(b rank) int {
	if c := cmp.Compare(a.score, b.score); c != 0 {
		return c
	}
	return cmp.Compare(a.then, b.then)
}

// routeSolo is one solo candidate of a decision, scored by its own Preview.
type routeSolo struct {
	pos int32
	rank
}

// routeScratch is one decision, which next expands in the hold routeLocked
// set it up in: the view's cells, read where they lie in the order the view
// remembers for the query, merged with the solo candidates, previewed and
// ranked per decision. No cell is copied: between two next calls of one
// decision nothing changes the index — a refused try changes no free count,
// and the first accepted try ends the decision before its refreeLocked. The
// fleet keeps one (Fleet.scratch); tests bring their own.
type routeScratch struct {
	// members is the fleet's member list as of the decision, by member.pos.
	members  []*member
	words    int
	classes  []viewClass // the view's
	order    []orderCell // the order's cells, those it leaves out last
	moving   int32       // a move: the position of the machine the tenant leaves; -1: an admission
	minUtil  float64     // a move: cells at or below it hold no candidate
	solos    []routeSolo // solo candidates whose preview succeeds, by rank
	failed   []int32     // solo candidates whose preview fails, in add order
	occupied []uint64    // members in failure domains hosting the workload; empty: nothing to spread around

	// The cursor of next: order[lo:hi] and solos[slo:shi] are the group of
	// equal rank being expanded, word the member-set word, cur its members
	// not yet returned; late once the unoccupied domains are through.
	lo, hi, slo, shi, word int
	cur                    uint64
	late                   bool
}

// routeLocked sets s up to rank the candidates of q — every member in a cell
// of the view, above the move's utilization floor, without the machine the
// tenant is leaving — and rewinds next. The cells come in the order the view
// remembers for q, ranked and remembered here first when it has none that
// serves; the solos are previewed here. The cells the order leaves out and
// the solos whose preview fails are no candidates (rejections reports them).
// Only a cancelled ctx fails it. Callers hold f.mu.
//
//numalint:noalloc
func (f *Fleet) routeLocked(ctx context.Context, s *routeScratch, q *routeQuery) error {
	ix := &f.idx
	v := f.viewLocked(q)
	key := q.orderKey()
	e := v.orders[key]
	if !e.serves(v, q) {
		var keep bool
		var err error
		if e, keep, err = rankCells(ctx, q, v, f.members, ix.words); err != nil {
			return err
		}
		if keep {
			v.remember(key, e)
		}
	}
	s.members, s.words, s.classes, s.order = f.members, ix.words, v.classes, e.cells
	s.moving, s.minUtil = -1, q.minUtil
	if q.moving != nil {
		s.moving = q.moving.mem.pos
	}
	s.solos, s.failed = s.solos[:0], s.failed[:0]
	for i, w := range v.solos {
		for ; w != 0; w &= w - 1 {
			m := f.members[i<<6+bits.TrailingZeros64(w)]
			r, ok := s.rankOf(0, m.free, m.total)
			if !ok || m.pos == s.moving {
				continue
			}
			pv, err := m.b.Preview(ctx, q.w, q.vcpus)
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return ctxErr // the caller giving up
				}
				s.failed = append(s.failed, m.pos)
				continue
			}
			r.score = -pv.PredictedPerf
			s.solos = append(s.solos, routeSolo{m.pos, r})
		}
	}
	slices.SortFunc(s.solos, func(a, b routeSolo) int { return a.compare(b.rank) })
	s.hi, s.shi, s.word, s.cur, s.late = 0, 0, s.words-1, 0, false
	s.occupied = s.occupied[:0]
	if !f.cfg.SpreadDomains {
		return nil
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
			s.occupied = slices.Grow(s.occupied[:0], ix.words)[:ix.words]
			clear(s.occupied)
		}
		for i, w := range ix.domains[d] {
			s.occupied[i] |= w
		}
	}
	if !spare {
		s.occupied = s.occupied[:0] // every candidate's domain is occupied: nothing to prefer
	}
	return nil
}

// rankCells is where cells are scored and sorted: it orders every cell of v's
// classes for q — by utilization, or by the class's score row, asked of the
// first member found in its cells (a class with none is not covered). keep is
// false when a row could not be had: every cell of that class is left out, for
// the decision that ranked it only. Only a cancelled ctx fails it.
func rankCells(ctx context.Context, q *routeQuery, v *routeView, members []*member, words int) (e *cellOrder, keep bool, err error) {
	e = &cellOrder{covers: make([]bool, len(v.classes))}
	if q.by == bestPredicted {
		e.w = q.w
	}
	keep = true
	for i := range v.classes {
		c := &v.classes[i]
		var row []sched.Score
		if q.by == bestPredicted {
			j := slices.IndexFunc(c.sets, func(w uint64) bool { return w != 0 })
			if j < 0 {
				continue
			}
			rep := members[(j%words)<<6+bits.TrailingZeros64(c.sets[j])]
			if row, err = rep.classer.ScoreRow(ctx, q.w, q.vcpus, c.key.class); err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return nil, false, ctxErr
				}
				row, keep = nil, false // every preview of the class fails, and says why itself
			}
		}
		e.covers[i] = true
		for free := 0; free <= c.key.total; free++ {
			oc := orderCell{class: int32(i), free: int32(free), total: int32(c.key.total)}
			switch q.by {
			case leastLoaded:
				oc.score = utilization(free, c.key.total)
			case bestPredicted:
				if oc.out = free >= len(row) || row[free].Class < 0; !oc.out {
					oc.score = -row[free].Perf
				}
			}
			e.cells = append(e.cells, oc)
		}
	}
	slices.SortFunc(e.cells, func(a, b orderCell) int {
		if a.out != b.out {
			if a.out {
				return 1
			}
			return -1
		}
		if c := cmp.Compare(a.score, b.score); c != 0 {
			return c
		}
		return cmp.Compare(utilization(int(b.free), int(b.total)), utilization(int(a.free), int(a.total)))
	})
	return e, keep, nil
}

// next returns the next candidate — unoccupied domains first, then by
// ascending rank, equal ranks merged in add order — or nil after the last.
// It expands a group one member-set word at a time, ORing the live words of
// its cells, so a caller that stops at the first candidate has touched one.
//
//numalint:noalloc
func (s *routeScratch) next() *member {
	for s.cur == 0 {
		if s.word++; s.word == s.words {
			s.word = 0
			if !s.group() {
				if s.late || len(s.occupied) == 0 {
					return nil
				}
				s.late, s.hi, s.shi = true, 0, 0
				s.group()
			}
		}
		for _, oc := range s.order[s.lo:s.hi] {
			s.cur |= s.classes[oc.class].sets[int(oc.free)*s.words+s.word]
		}
		for _, c := range s.solos[s.slo:s.shi] {
			if int(c.pos>>6) == s.word {
				s.cur |= 1 << (c.pos & 63)
			}
		}
		if s.moving >= 0 && int(s.moving>>6) == s.word {
			s.cur &^= 1 << (s.moving & 63)
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

// group moves next's cursor to the next group of equal rank, the order's
// cells and the solos merged, and reports false — the group empty — after
// the last. The order keeps its left-out cells last and is by rank otherwise;
// a move passes over the cells at or below its floor (equal ranks share a
// utilization: a group is all above it or all below).
//
//numalint:noalloc
func (s *routeScratch) group() bool {
	var r rank
	cell := false
	i := s.hi
	for ; i < len(s.order) && !s.order[i].out; i++ {
		oc := &s.order[i]
		if r, cell = s.rankOf(oc.score, int(oc.free), int(oc.total)); cell {
			break
		}
	}
	s.lo, s.hi, s.slo = i, i, s.shi
	if s.shi < len(s.solos) && (!cell || s.solos[s.shi].compare(r) < 0) {
		r, cell = s.solos[s.shi].rank, true
	}
	if !cell {
		return false
	}
	for ; s.hi < len(s.order) && !s.order[s.hi].out; s.hi++ {
		oc := &s.order[s.hi]
		if c, _ := s.rankOf(oc.score, int(oc.free), int(oc.total)); c.compare(r) != 0 {
			break
		}
	}
	for s.shi < len(s.solos) && s.solos[s.shi].compare(r) == 0 {
		s.shi++
	}
	return true
}

// rankOf ranks a candidate by score and, for a move, busier first — free of
// total nodes free; ok is false at or below the move's floor.
func (s *routeScratch) rankOf(score float64, free, total int) (r rank, ok bool) {
	if s.moving < 0 {
		return rank{score: score}, true
	}
	u := utilization(free, total)
	return rank{score, -u}, u > s.minUtil
}

// previewErr is one member's failed preview, as the rejection message of a
// bestPredicted admission reports it. The text is built only when read.
type previewErr struct {
	name string
	err  error
}

func (e *previewErr) Error() string { return e.name + ": preview: " + e.err.Error() }
func (e *previewErr) Unwrap() error { return e.err }

// leftOut returns the members an admission's decision left out: those in the
// cells its order leaves out and the solos whose preview failed.
func (s *routeScratch) leftOut() []uint64 {
	set := make([]uint64, s.words)
	for _, oc := range s.order {
		if oc.out {
			for i, w := range s.classes[oc.class].cell(int(oc.free), s.words) {
				set[i] |= w
			}
		}
	}
	for _, pos := range s.failed {
		setBit(set, pos)
	}
	return set
}

// rejections returns why each member the decision left out was, in add order,
// for an admission nothing took: each is previewed now, for the error a
// fan-out would have collected; one that admits meanwhile has nothing to
// report. Every try refused, so the index is still the decision's.
func (s *routeScratch) rejections(ctx context.Context, q *routeQuery) []error {
	var errs []error
	for i, w := range s.leftOut() {
		for ; w != 0; w &= w - 1 {
			m := s.members[i<<6+bits.TrailingZeros64(w)]
			if _, err := m.b.Preview(ctx, q.w, q.vcpus); err != nil {
				errs = append(errs, &previewErr{m.name, err})
			}
		}
	}
	return errs
}
