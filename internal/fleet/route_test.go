package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// The first oracle: routing as it was before the class pass — preview every
// candidate, stable-sort by score, stable-partition by domain occupancy read
// off a walk of the tenant map. The index must return its order and its
// rejections for every fleet state.

type oracleScored struct {
	m     *member
	score float64
}

func oracleSort(sc []oracleScored) []*member {
	slices.SortStableFunc(sc, func(a, b oracleScored) int { return cmp.Compare(a.score, b.score) })
	out := make([]*member, 0, len(sc))
	for _, s := range sc {
		out = append(out, s.m)
	}
	return out
}

func oracleByPreview(ctx context.Context, mems []*member, w perfsim.Workload, vcpus int) ([]*member, []error) {
	var errs []error
	var sc []oracleScored
	for _, m := range mems {
		pv, err := m.b.Preview(ctx, w, vcpus)
		if err != nil {
			errs = append(errs, &previewErr{m.name, err})
			continue
		}
		sc = append(sc, oracleScored{m, -pv.PredictedPerf})
	}
	return oracleSort(sc), errs
}

func oracleSpread(ranked []*member, occupied map[string]bool) []*member {
	var out []*member
	for _, m := range ranked {
		if !occupied[m.domain] {
			out = append(out, m)
		}
	}
	for _, m := range ranked {
		if occupied[m.domain] {
			out = append(out, m)
		}
	}
	return out
}

// oracleCandidates is the admission order and the preview rejections.
// Callers hold no lock; the fleet is quiescent.
func oracleCandidates(ctx context.Context, f *Fleet, w perfsim.Workload, vcpus int) ([]*member, []error) {
	var mems []*member
	for _, m := range f.members {
		if m.accepting() {
			mems = append(mems, m)
		}
	}
	var errs []error
	switch f.cfg.Policy {
	case LeastLoaded:
		sc := make([]oracleScored, len(mems))
		for i, m := range mems {
			sc[i] = oracleScored{m, m.utilization()}
		}
		mems = oracleSort(sc)
	case BestPredicted:
		mems, errs = oracleByPreview(ctx, mems, w, vcpus)
	}
	if f.cfg.SpreadDomains {
		mems = oracleSpread(mems, occupiedWalk(f, w.Name, -1))
	}
	return mems, errs
}

// oracleDests is the destination order of moving tenant id off its machine.
func oracleDests(ctx context.Context, f *Fleet, id int, minUtil float64) []*member {
	rec := f.tenants[id]
	var sc []oracleScored
	for _, d := range f.members {
		if d == rec.mem || !d.accepting() {
			continue
		}
		if u := d.utilization(); u > minUtil {
			sc = append(sc, oracleScored{d, -u})
		}
	}
	dests := oracleSort(sc)
	if f.cfg.Policy == BestPredicted {
		dests, _ = oracleByPreview(ctx, dests, rec.w, rec.vcpus)
	}
	if f.cfg.SpreadDomains {
		dests = oracleSpread(dests, occupiedWalk(f, rec.w.Name, id))
	}
	return dests
}

func memberNames(mems []*member) string {
	names := make([]string, len(mems))
	for i, m := range mems {
		names[i] = m.name
	}
	return strings.Join(names, " ")
}

func errorTexts(errs []error) string {
	texts := make([]string, len(errs))
	for i, err := range errs {
		texts[i] = err.Error()
	}
	return strings.Join(texts, "; ")
}

// ranked runs one decision against f's index in one hold, as Place does, and
// returns every candidate in the order next yields them.
func (f *Fleet) ranked(ctx context.Context, s *routeScratch, q *routeQuery) ([]*member, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.routeLocked(ctx, s, q); err != nil {
		return nil, err
	}
	var out []*member
	for m := s.next(); m != nil; m = s.next() {
		out = append(out, m)
	}
	if s.next() != nil {
		return nil, errors.New("next yields a candidate after its last")
	}
	return out, nil
}

// CheckRouting compares the index with the fan-out oracle for an admission of
// (w, vcpus) against f's current, quiescent state: the candidate order and
// the preview rejections. It returns the number of classes the view's memo
// now holds an order over for the decision (0: none remembered). Exported for
// the tests over real Engines (package fleet_test: this package cannot import
// the root one).
func (f *Fleet) CheckRouting(ctx context.Context, w perfsim.Workload, vcpus int) (classes int, err error) {
	var s routeScratch
	q := routeQuery{by: f.cfg.Policy.scoring(), w: w, vcpus: vcpus}
	got, err := f.ranked(ctx, &s, &q)
	if err != nil {
		return 0, err
	}
	want, wantErrs := oracleCandidates(ctx, f, w, vcpus)
	if g, w := memberNames(got), memberNames(want); g != w {
		return 0, fmt.Errorf("candidates [%s], a preview fan-out ranks [%s]", g, w)
	}
	if g, w := errorTexts(s.rejections(ctx, &q)), errorTexts(wantErrs); g != w {
		return 0, fmt.Errorf("rejections %q, a preview fan-out collects %q", g, w)
	}
	return f.orderClasses(&q), nil
}

// orderClasses counts the classes covered by the order q's view remembers
// for it, 0 when it remembers none.
func (f *Fleet) orderClasses(q *routeQuery) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	if e := f.viewLocked(q).orders[q.orderKey()]; e != nil {
		for _, covered := range e.covers {
			if covered {
				n++
			}
		}
	}
	return n
}

// moveQuery is the destination query evacuateLocked makes for tenant rec.
func (f *Fleet) moveQuery(rec *tenantRec, minUtil float64) routeQuery {
	q := routeQuery{w: rec.w, vcpus: rec.vcpus, moving: rec, minUtil: minUtil}
	if f.cfg.Policy == BestPredicted {
		q.by = bestPredicted
	}
	return q
}

// checkDestOrder compares a move's destination order for tenant id with the
// fan-out oracle.
func (f *Fleet) checkDestOrder(ctx context.Context, id int, minUtil float64) error {
	rec := f.tenants[id]
	q := f.moveQuery(rec, minUtil)
	dests, err := f.ranked(ctx, &routeScratch{}, &q)
	if err != nil {
		return err
	}
	if g, w := memberNames(dests), memberNames(oracleDests(ctx, f, id, minUtil)); g != w {
		return fmt.Errorf("moving %d off %s above %.2f: destinations [%s], the oracle orders [%s]", id, rec.mem.name, minUtil, g, w)
	}
	return nil
}

// The second oracle: the per-member sweep the index replaced. Each decision
// read every candidate's class and free count from its backend, scored each
// distinct (class, free count) cell once, and emitted the candidates with one
// counting sort keyed by (domain occupied, score rank). It keeps nothing
// between decisions, so it cannot be stale: the index is held to it after
// every operation of a trace.

const busiestFirst = bestPredicted + 1 // descending utilization, above sweepQuery.minUtil only

// sweepQuery is what one pass ranks candidates for.
type sweepQuery struct {
	by      scoreBy
	minUtil float64          // busiestFirst: candidates at or below it are left out
	w       perfsim.Workload // bestPredicted: the container
	vcpus   int
}

// Cell states of a candidate (sweepPass.cell) and of a class's free count
// (sweepClass.cells) that has no score.
const (
	sweepUnseen  = -1 // not scored yet in this pass
	sweepLeftOut = -2 // not ranked: below the utilization floor, or its preview fails
)

// sweepClass is one class met in a pass and its cells by free-node count.
type sweepClass struct {
	key   classKey
	row   []sched.Score // bestPredicted; nil when the row could not be had
	cells []int32       // by free-node count: index into cells, sweepUnseen or sweepLeftOut
}

// sweepCell is one distinct (class, free count) — or one unclassed
// candidate — and its score.
type sweepCell struct {
	score float64
	id    int32
}

// exclusion is a candidate a bestPredicted pass left out: its preview fails.
// err is nil when the score row said so and no Preview ran.
type exclusion struct {
	m   *member
	err error
}

// sweepPass is the working set of one pass. The caller fills mems (in
// tie-break order) and the occupancy marks, calls route, and owns the result
// until it reuses the pass.
type sweepPass struct {
	mems     []*member
	occupied []bool // by member.dom: the domain hosts the workload already
	spread   bool   // some domain does

	cell     []int32 // per candidate: its cell, then its sort bucket
	cells    []sweepCell
	rank     []int32 // per cell: rank of its score among the distinct scores
	bucket   []int32
	classes  []sweepClass
	excluded []exclusion
	out      []*member
}

// route ranks s.mems for q. Only a cancelled ctx fails it.
func (s *sweepPass) route(ctx context.Context, q *sweepQuery) ([]*member, error) {
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
func (s *sweepPass) reset() {
	n := len(s.mems) + 1
	if cap(s.cell) < n {
		s.cell = make([]int32, n)
		s.cells = make([]sweepCell, 0, n)
		s.rank = make([]int32, n)
		s.bucket = make([]int32, 2*n)
		s.out = make([]*member, n)
	}
	s.cells = s.cells[:0]
	s.classes = s.classes[:0]
	s.excluded = s.excluded[:0]
}

// score resolves every candidate to a cell (or leaves it out).
func (s *sweepPass) score(ctx context.Context, q *sweepQuery) error {
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

func (s *sweepPass) newCell(score float64) int32 {
	id := int32(len(s.cells))
	s.cells = append(s.cells, sweepCell{score, id})
	return id
}

// loadCell scores m by utilization: a function of its node count (the class)
// and its free count.
func (s *sweepPass) loadCell(m *member, q *sweepQuery) int32 {
	cl, fresh := s.classOf(classKey{total: m.total})
	if fresh {
		cl.cells = sweepFill(cl.cells, m.total+1)
	}
	return s.classCell(cl, m.b.FreeNodes().Len(), q)
}

// predictedCell scores m by the performance its predictor promises q's
// container: from its class's row when it names a class, from its own
// Preview — a class of one — when it does not. A failing preview leaves m
// out and notes it for the rejection message.
func (s *sweepPass) predictedCell(ctx context.Context, m *member, q *sweepQuery) (int32, error) {
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
				cl.row, cl.cells = row, sweepFill(cl.cells, len(row))
			}
			c := int32(sweepLeftOut)
			if cl.row != nil {
				c = s.classCell(cl, m.b.FreeNodes().Len(), q)
			}
			if c == sweepLeftOut {
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
		return sweepLeftOut, nil
	}
	return s.newCell(-pv.PredictedPerf), nil
}

// classCell returns the cell of cl's members with free nodes free, scoring
// it the first time a pass asks.
func (s *sweepPass) classCell(cl *sweepClass, free int, q *sweepQuery) int32 {
	if cl.cells[free] == sweepUnseen {
		cl.cells[free] = sweepLeftOut
		if score, ok := cl.score(free, q); ok {
			cl.cells[free] = s.newCell(score)
		}
	}
	return cl.cells[free]
}

// score is what q scores a member of cl with free nodes free; ok is false
// when it is left out.
func (cl *sweepClass) score(free int, q *sweepQuery) (score float64, ok bool) {
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
func (s *sweepPass) classOf(key classKey) (cl *sweepClass, fresh bool) {
	for i := range s.classes {
		if s.classes[i].key == key {
			return &s.classes[i], false
		}
	}
	return s.addClass(key), true
}

// addClass appends a class, keeping the slot's cell buffer of a previous
// pass for reuse.
func (s *sweepPass) addClass(key classKey) *sweepClass {
	n := len(s.classes)
	if n < cap(s.classes) {
		s.classes = s.classes[:n+1]
	} else {
		s.classes = append(s.classes, sweepClass{})
	}
	cl := &s.classes[n]
	cl.key, cl.row = key, nil
	return cl
}

// sweepFill returns buf resized to n cells, all sweepUnseen.
func sweepFill(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = sweepUnseen
	}
	return buf
}

// order emits the scored candidates: unoccupied domains first, then by
// ascending score, then in candidate order. The distinct scores are sorted
// and ranked — equal scores of different cells share a rank, which is what
// keeps ties in candidate order across classes — and one counting sort over
// (occupied, rank) does the rest.
func (s *sweepPass) order() []*member {
	slices.SortFunc(s.cells, func(a, b sweepCell) int { return cmp.Compare(a.score, b.score) })
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

// sweepOccupied marks in s the failure domains the walk finds hosting the
// workload, tenant skipID apart.
func sweepOccupied(f *Fleet, s *sweepPass, workload string, skipID int) {
	s.occupied, s.spread = make([]bool, len(f.domains)), false
	if !f.cfg.SpreadDomains {
		return
	}
	for label := range occupiedWalk(f, workload, skipID) {
		s.occupied[f.domains[label]], s.spread = true, true
	}
}

// sweepCandidates is the admission order of (w, vcpus) scored by by, and the
// members a bestPredicted pass left out.
func sweepCandidates(ctx context.Context, f *Fleet, by scoreBy, w perfsim.Workload, vcpus int) ([]*member, []exclusion) {
	var s sweepPass
	for _, m := range f.members {
		if m.accepting() {
			s.mems = append(s.mems, m)
		}
	}
	sweepOccupied(f, &s, w.Name, -1)
	out, _ := s.route(ctx, &sweepQuery{by: by, w: w, vcpus: vcpus})
	return out, s.excluded
}

// sweepDests is the destination order of moving tenant id: the eligible
// members busiest first, then — in that order — by the policy.
func sweepDests(ctx context.Context, f *Fleet, id int, minUtil float64) []*member {
	rec := f.tenants[id]
	var s sweepPass
	for _, d := range f.members {
		if d != rec.mem && d.accepting() {
			s.mems = append(s.mems, d)
		}
	}
	eligible, _ := s.route(ctx, &sweepQuery{by: busiestFirst, minUtil: minUtil})
	s.mems = append([]*member(nil), eligible...)
	sweepOccupied(f, &s, rec.w.Name, id)
	q := sweepQuery{w: rec.w, vcpus: rec.vcpus}
	if f.cfg.Policy == BestPredicted {
		q.by = bestPredicted
	}
	out, _ := s.route(ctx, &q)
	return out
}

// checkIndexIsTheSweep holds f's index, quiescent, to the sweep: every
// member's accepting flag, free count and class per size view, every cell's
// member set, the domain sets and occupancy counts — and, for each workload
// named, the full candidate order of an admission under each scoring and of
// every resident tenant's move.
func checkIndexIsTheSweep(ctx context.Context, f *Fleet, workloads []perfsim.Workload, vcpus int) error {
	for _, w := range workloads {
		for _, by := range []scoreBy{inOrder, leastLoaded, bestPredicted} {
			var s routeScratch
			q := routeQuery{by: by, w: w, vcpus: vcpus}
			got, err := f.ranked(ctx, &s, &q)
			if err != nil {
				return err
			}
			want, excluded := sweepCandidates(ctx, f, by, w, vcpus)
			if g, w := memberNames(got), memberNames(want); g != w {
				return fmt.Errorf("scoring %d of %s: candidates [%s], the sweep ranks [%s]", by, q.w.Name, g, w)
			}
			var left []*member
			for i, set := range s.leftOut() {
				for ; set != 0; set &= set - 1 {
					left = append(left, s.members[i<<6+bits.TrailingZeros64(set)])
				}
			}
			var wantLeft []*member
			for _, x := range excluded {
				wantLeft = append(wantLeft, x.m)
			}
			if g, w := memberNames(left), memberNames(wantLeft); g != w {
				return fmt.Errorf("scoring %d of %s: left out [%s], the sweep leaves out [%s]", by, q.w.Name, g, w)
			}
		}
	}
	for id, rec := range f.tenants {
		for _, minUtil := range []float64{-1, 0.25, rec.mem.utilization()} {
			q := f.moveQuery(rec, minUtil)
			got, err := f.ranked(ctx, &routeScratch{}, &q)
			if err != nil {
				return err
			}
			if g, w := memberNames(got), memberNames(sweepDests(ctx, f, id, minUtil)); g != w {
				return fmt.Errorf("moving %d off %s above %.2f: destinations [%s], the sweep orders [%s]", id, rec.mem.name, minUtil, g, w)
			}
		}
	}
	return checkIndexEntries(f, vcpus)
}

// hasBit reports whether member position pos is in set (nil: the empty set).
func hasBit(set []uint64, pos int32) bool { return set != nil && set[pos>>6]>>(pos&63)&1 == 1 }

// checkIndexEntries recomputes what the index must hold from the members,
// their backends and the tenant map, entry by entry.
func checkIndexEntries(f *Fleet, vcpus int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ix := &f.idx
	f.viewLocked(&routeQuery{by: bestPredicted, vcpus: vcpus}) // the size view, as of the last class change
	if want := (len(f.members) + 63) / 64; ix.words != want {
		return fmt.Errorf("index sets have %d words, %d members need %d", ix.words, len(f.members), want)
	}
	for i, m := range f.members {
		if int(m.pos) != i {
			return fmt.Errorf("%s is member %d, the index has it at %d", m.name, i, m.pos)
		}
		if m.health != Dead && m.free != m.b.FreeNodes().Len() {
			return fmt.Errorf("%s: index free count %d, the backend has %d free", m.name, m.free, m.b.FreeNodes().Len())
		}
	}
	for vi := range ix.views {
		v := &ix.views[vi]
		for _, m := range f.members {
			want, key := int32(unlisted), classKey{total: m.total}
			if m.accepting() {
				ok := v.vcpus == 0
				if !ok && m.classer != nil {
					key.class, ok = m.classer.ScoreClass(v.vcpus)
				}
				if want = solo; ok {
					want = int32(slices.IndexFunc(v.classes, func(c viewClass) bool { return c.key == key }))
				}
			}
			if got := v.classOf[m.pos]; got != want || want == -1 && m.accepting() {
				return fmt.Errorf("view %d: %s (accepting %v) is filed under %d, its class %+v is %d", v.vcpus, m.name, m.accepting(), got, key, want)
			}
			for ci := range v.classes {
				for free := 0; free <= v.classes[ci].key.total; free++ {
					in := hasBit(v.classes[ci].cell(free, ix.words), m.pos)
					if in != (int32(ci) == want && free == m.free) {
						return fmt.Errorf("view %d: %s (class %d, %d free) in cell (%d, %d): %v", v.vcpus, m.name, want, m.free, ci, free, in)
					}
				}
			}
			if hasBit(v.solos, m.pos) != (want == solo) {
				return fmt.Errorf("view %d: %s (class %d) among the solos: %v", v.vcpus, m.name, want, want != solo)
			}
		}
	}
	for label, dom := range f.domains {
		for _, m := range f.members {
			if in := hasBit(ix.domains[dom], m.pos); in != (m.domain == label) {
				return fmt.Errorf("%s (domain %q) in the set of domain %q: %v", m.name, m.domain, label, in)
			}
		}
	}
	walk := map[string][]int32{}
	for _, rec := range f.tenants {
		if rec.mem.health != Dead {
			if walk[rec.w.Name] == nil {
				walk[rec.w.Name] = make([]int32, len(f.domains))
			}
			walk[rec.w.Name][rec.mem.dom]++
		}
	}
	for w, row := range ix.occ {
		if walk[w] == nil {
			walk[w] = make([]int32, len(f.domains))
		}
		if !reflect.DeepEqual(row, walk[w]) {
			return fmt.Errorf("index counts %v tenants of %s per domain, the walk %v", row, w, walk[w])
		}
	}
	if len(walk) != len(ix.occ) {
		return fmt.Errorf("index counts %d workloads, the walk %d", len(ix.occ), len(walk))
	}
	return nil
}

// rowStub is a stubBackend whose preview depends on its free-node count, as
// an engine's does: row[n] is the predicted performance with n nodes free,
// and the preview fails where it is not positive.
type rowStub struct {
	*stubBackend
	row []float64
}

func (s *rowStub) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	if s.previewErr != nil {
		return nil, s.previewErr
	}
	free := s.FreeNodes().Len()
	if s.row[free] <= 0 {
		return nil, fmt.Errorf("stub: %d free nodes cannot host it: %w", free, nperr.ErrMachineFull)
	}
	return &sched.Preview{PredictedPerf: s.row[free]}, nil
}

// stubClass is what the classed stubs of one score class share: the token,
// the row, and the injected failures that hit every preview of the class.
type stubClass struct {
	token   sched.ScoreClass
	m       machines.Machine
	row     []float64
	rowErr  error
	decline bool
	rows    int // ScoreRow calls
}

// classedStub is a rowStub with the ScoreClasser capability.
type classedStub struct {
	rowStub
	class *stubClass
	epoch *atomic.Uint64 // the fleet's, while it is added to one
}

func (s *classedStub) NotifyClassChange(epoch *atomic.Uint64) { s.epoch = epoch }

// changed is what a test calls after changing what ScoreClass answers.
func (s *classedStub) changed() {
	if s.epoch != nil {
		s.epoch.Add(1)
	}
}

func (s *classedStub) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	if s.class.rowErr != nil {
		return nil, s.class.rowErr
	}
	return s.rowStub.Preview(ctx, w, vcpus)
}

// ScoreClass declines while a failure is injected into this stub alone: it
// no longer previews as its class does.
func (s *classedStub) ScoreClass(vcpus int) (sched.ScoreClass, bool) {
	return s.class.token, !s.class.decline && s.previewErr == nil
}

func (s *classedStub) ScoreRow(ctx context.Context, w perfsim.Workload, vcpus int, class sched.ScoreClass) ([]sched.Score, error) {
	s.class.rows++
	if class != s.class.token {
		return nil, fmt.Errorf("stub: asked for the row of a class it is not in")
	}
	if s.class.rowErr != nil {
		return nil, s.class.rowErr
	}
	row := make([]sched.Score, len(s.class.row))
	for n, perf := range s.class.row {
		row[n] = sched.Score{Class: -1}
		if perf > 0 {
			row[n] = sched.Score{Class: 0, Perf: perf}
		}
	}
	return row, nil
}

// randomRow draws a by-free-count row from a small set of values, so equal
// scores recur within a row and across rows; the first entries are often
// zero (nothing fits in few nodes).
func randomRow(rng *xrand.SplitMix64, nodes int) []float64 {
	row := make([]float64, nodes+1)
	for n := 1 + rng.Intn(3); n <= nodes; n++ {
		row[n] = float64(1 + rng.Intn(4))
	}
	return row
}

// routeFleet is a random fleet of mixed stubs under test.
type routeFleet struct {
	f       *Fleet
	names   []string
	stubs   []*stubBackend // the plain stub inside each backend
	classed []*classedStub // the classed stub around it, or nil
	classes []*stubClass
	live    []int
}

// changed fires the notification of stub i, if it is classed, or — i < 0 — of
// every stub of class.
func (rf *routeFleet) changed(i int, class *stubClass) {
	for j, cs := range rf.classed {
		if cs != nil && (j == i || i < 0 && cs.class == class) {
			cs.changed()
		}
	}
}

var routeWorkloads = []string{"swaptions", "streamcluster", "canneal"}

// newRouteFleet builds n members: plain stubs with one fixed preview score
// (drawn from few values, or all distinct), unclassed stubs with a row of
// their own, and classed stubs sharing a few classes — over labeled and
// unlabeled domains.
func newRouteFleet(t *testing.T, rng *xrand.SplitMix64, cfg Config, n int, distinct bool) *routeFleet {
	t.Helper()
	rf := &routeFleet{f: New(cfg)}
	models := []machines.Machine{machines.AMD(), machines.Intel()}
	for c := 0; c < 1+rng.Intn(3); c++ {
		m := models[rng.Intn(len(models))]
		rf.classes = append(rf.classes, &stubClass{
			token: sched.ScoreClass{Machine: uint64(c + 1)}, m: m, row: randomRow(rng, m.Topo.NumNodes),
		})
	}
	domains := []string{"", "", "rack-0", "rack-1", "rack-2"}
	for i := 0; i < n; i++ {
		m := models[rng.Intn(len(models))]
		perf := float64(1 + rng.Intn(4))
		if distinct {
			perf = float64(n - i)
		}
		var b Backend
		var stub *stubBackend
		var classed *classedStub
		switch k := rng.Intn(10); {
		case k < 3 || distinct:
			stub = newStub(m, perf)
			b = stub
		case k < 5:
			stub = newStub(m, perf)
			b = &rowStub{stub, randomRow(rng, m.Topo.NumNodes)}
		default:
			class := rf.classes[rng.Intn(len(rf.classes))]
			stub = newStub(class.m, perf)
			classed = &classedStub{rowStub: rowStub{stub, class.row}, class: class}
			b = classed
		}
		name := fmt.Sprintf("m%d", i)
		if err := rf.f.Add(name, b, InDomain(domains[rng.Intn(len(domains))])); err != nil {
			t.Fatal(err)
		}
		rf.names = append(rf.names, name)
		rf.stubs = append(rf.stubs, stub)
		rf.classed = append(rf.classed, classed)
	}
	return rf
}

// perturb applies one random operation: admissions and releases move free
// counts and occupancy, drains, missed probes and failures close and kill
// members (and run moves), injected errors fail previews. A stub whose class
// changes says so, as an engine does.
func (rf *routeFleet) perturb(t *testing.T, ctx context.Context, rng *xrand.SplitMix64) {
	f, name := rf.f, rf.names[rng.Intn(len(rf.names))]
	si := rng.Intn(len(rf.stubs))
	stub := rf.stubs[si]
	class := rf.classes[rng.Intn(len(rf.classes))]
	switch k := rng.Intn(100); {
	case k < 50:
		if adm, err := f.Place(ctx, testWorkload(t, routeWorkloads[rng.Intn(len(routeWorkloads))]), 4); err == nil {
			rf.live = append(rf.live, adm.ID)
		}
	case k < 65 && len(rf.live) > 0:
		i := rng.Intn(len(rf.live))
		if err := f.Release(ctx, rf.live[i]); err != nil {
			t.Fatal(err)
		}
		rf.live = append(rf.live[:i], rf.live[i+1:]...)
	case k < 70:
		f.Drain(ctx, name) // a partial drain is a result
	case k < 74:
		f.Resume(name)
	case k < 80:
		f.MissProbe(ctx, name)
		f.MissProbe(ctx, name)
	case k < 83:
		f.Heartbeat(name)
	case k < 86:
		f.Fail(ctx, name)
	case k < 88:
		f.Revive(ctx, name)
	case k < 92:
		stub.previewErr = fmt.Errorf("observation failed: %w", nperr.ErrUntrained)
		rf.changed(si, nil)
	case k < 94:
		stub.previewErr = nil
		rf.changed(si, nil)
	case k < 96:
		class.rowErr = fmt.Errorf("no row: %w", nperr.ErrMachineMismatch)
		rf.changed(-1, class)
	case k < 98:
		class.rowErr = nil
		rf.changed(-1, class)
	default:
		class.decline = !class.decline
		rf.changed(-1, class)
	}
}

// refuseSome has the Place of every stub refuse picks fail, then checks that
// an admission of w lands on the first candidate of the fan-out's order that
// takes it, and that draining name moves its first tenant onto the first
// destination of the oracle's order that takes it: the refused tries change
// nothing the rest of their decision reads. A drain it starts it resumes.
func (rf *routeFleet) refuseSome(ctx context.Context, w perfsim.Workload, name string, refuse func(i int) bool) error {
	f := rf.f
	first := func(mems []*member) string {
		for _, m := range mems {
			if i := slices.Index(rf.names, m.name); !refuse(i) && rf.stubs[i].FreeNodes().Len() > 0 {
				return m.name
			}
		}
		return ""
	}
	for i, s := range rf.stubs {
		if refuse(i) {
			s.placeErr = errors.New("injected place failure")
		}
	}
	defer func() {
		for _, s := range rf.stubs {
			s.placeErr = nil
		}
	}()

	cands, _ := oracleCandidates(ctx, f, w, 4)
	want, got := first(cands), ""
	if adm, err := f.Place(ctx, w, 4); err == nil {
		got = adm.Backend
		rf.live = append(rf.live, adm.ID)
	}
	if got != want {
		return fmt.Errorf("some refusing, the admission landed on %q; the first of [%s] that takes it is %q", got, memberNames(cands), want)
	}

	src, id := f.byName[name], -1
	for tid, rec := range f.tenants {
		if rec.mem == src && (id < 0 || tid < id) {
			id = tid
		}
	}
	if id < 0 || src.health == Dead {
		return nil
	}
	dests := oracleDests(ctx, f, id, -1)
	want, got = first(dests), ""
	drained := src.drained
	rep, _ := f.Drain(ctx, name) // a partial drain is a result
	if !drained {
		f.Resume(name)
	}
	if rep != nil && len(rep.Moves) > 0 && rep.Moves[0].ID == id {
		got = rep.Moves[0].To
	}
	if got != want {
		return fmt.Errorf("some refusing, draining %s moved %d onto %q; the first of [%s] that takes it is %q", name, id, got, memberNames(dests), want)
	}
	return nil
}

// TestRoutePassIsTheFanOut checks the index against the preview
// fan-out over random fleet states: every policy, domain spreading on and
// off, classed and unclassed backends mixed, equal and all-distinct scores,
// drained, suspect and dead members, failing previews and failing rows — the
// admission's candidate order and rejection message, and the destination
// order of moving a resident tenant.
func TestRoutePassIsTheFanOut(t *testing.T) {
	ctx := context.Background()
	rng := xrand.New(16)
	errInjected := errors.New("injected place failure")
	states := 0
	for trial := 0; trial < 240; trial++ {
		cfg := Config{
			Policy:        Policy(trial % 3),
			SpreadDomains: rng.Intn(2) == 0,
			Health:        HealthConfig{FailoverBudgetSeconds: -1},
		}
		rf := newRouteFleet(t, rng, cfg, 1+rng.Intn(24), trial%8 == 7)
		f := rf.f
		for step := 0; step < 10; step++ {
			for ops := rng.Intn(8); ops >= 0; ops-- {
				rf.perturb(t, ctx, rng)
			}
			states++
			w := testWorkload(t, routeWorkloads[rng.Intn(len(routeWorkloads))])
			if _, err := f.CheckRouting(ctx, w, 4); err != nil {
				t.Fatalf("trial %d step %d (%s, spread %v): %v", trial, step, cfg.Policy, cfg.SpreadDomains, err)
			}
			for _, id := range rf.live {
				for _, minUtil := range []float64{-1, 0.25} {
					if err := f.checkDestOrder(ctx, id, minUtil); err != nil {
						t.Fatalf("trial %d step %d (%s, spread %v): %v", trial, step, cfg.Policy, cfg.SpreadDomains, err)
					}
				}
			}

			// The rejection as Place words it, when every candidate refuses:
			// ErrNoHealthyBackend only when no machine takes admissions at all.
			cands, errs := oracleCandidates(ctx, f, w, 4)
			for _, m := range cands {
				errs = append(errs, fmt.Errorf("%s: %w", m.name, errInjected))
			}
			errs = append(errs, nperr.ErrFleetFull)
			noneAccepting := !slices.ContainsFunc(f.Stats().Backends, func(b BackendStats) bool {
				return b.Health == Healthy && !b.Draining
			})
			if noneAccepting {
				errs = append(errs, nperr.ErrNoHealthyBackend)
			}
			want := fmt.Errorf("fleet: placing %d-vCPU %q: %w", 4, w.Name, errors.Join(errs...))
			for _, s := range rf.stubs {
				s.placeErr = errInjected
			}
			_, err := f.Place(ctx, w, 4)
			for _, s := range rf.stubs {
				s.placeErr = nil
			}
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("trial %d step %d (%s): Place rejected with\n%v\nthe fan-out words it\n%v", trial, step, cfg.Policy, err, want)
			}
			if errors.Is(err, nperr.ErrNoHealthyBackend) != noneAccepting || !errors.Is(err, nperr.ErrFleetFull) {
				t.Fatalf("trial %d step %d: rejection %v carries the wrong sentinels (none accepting: %v)", trial, step, err, noneAccepting)
			}

			// Some refuse: the first that takes it does, and a drain's move too.
			if rng.Intn(2) == 0 {
				mask := rng.Uint64()
				if err := rf.refuseSome(ctx, w, rf.names[rng.Intn(len(rf.names))], func(i int) bool { return mask>>(i%64)&1 == 1 }); err != nil {
					t.Fatalf("trial %d step %d (%s, spread %v): %v", trial, step, cfg.Policy, cfg.SpreadDomains, err)
				}
			}
		}
	}
	if states < 2000 {
		t.Fatalf("checked %d states, want at least 2000", states)
	}
}

// apply is one of the operations perturb draws, chosen by op and aimed by arg
// at a member, a tenant, a workload or a class.
func (rf *routeFleet) apply(t *testing.T, ctx context.Context, op, arg byte) {
	f, i := rf.f, int(arg)%len(rf.names)
	name, stub, class := rf.names[i], rf.stubs[i], rf.classes[int(arg)%len(rf.classes)]
	switch op % 13 {
	case 0, 1:
		if adm, err := f.Place(ctx, testWorkload(t, routeWorkloads[int(arg)%len(routeWorkloads)]), 4); err == nil {
			rf.live = append(rf.live, adm.ID)
		}
	case 2:
		if len(rf.live) > 0 {
			j := int(arg) % len(rf.live)
			if err := f.Release(ctx, rf.live[j]); err != nil {
				t.Fatal(err)
			}
			rf.live = append(rf.live[:j], rf.live[j+1:]...)
		}
	case 3:
		f.Drain(ctx, name) // a partial drain is a result
	case 4:
		f.Resume(name)
	case 5:
		f.MissProbe(ctx, name)
		f.MissProbe(ctx, name)
	case 6:
		f.Heartbeat(name)
	case 7:
		f.Fail(ctx, name)
	case 8:
		f.Revive(ctx, name)
	case 9:
		stub.previewErr = nil
		if arg&1 == 0 {
			stub.previewErr = fmt.Errorf("observation failed: %w", nperr.ErrUntrained)
		}
		rf.changed(i, nil)
	case 10:
		class.rowErr = nil
		if arg&1 == 0 {
			class.rowErr = fmt.Errorf("no row: %w", nperr.ErrMachineMismatch)
		}
		rf.changed(-1, class)
	case 11:
		class.decline = arg&1 == 0
		rf.changed(-1, class)
	default:
		w := testWorkload(t, routeWorkloads[int(arg)%len(routeWorkloads)])
		if err := rf.refuseSome(ctx, w, name, func(i int) bool { return arg>>(i%8)&1 == 1 }); err != nil {
			t.Fatalf("%s: %v", f.cfg.Policy, err)
		}
	}
}

// FuzzRoutePass holds the index and its memoized cell orders to the preview
// fan-out over states the input chooses. The first byte seeds a fleet of
// mixed stubs, built once per policy; each pair of bytes after it is one
// operation and its aim, applied to all three fleets. After each, every
// fleet's admission order and rejections, and each resident tenant's
// destination order, must be the fan-out's.
func FuzzRoutePass(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{6, 0, 0, 1, 1, 0, 2, 9, 3, 0, 4, 2, 0, 7, 1, 8, 1, 0, 5})
	f.Add([]byte{3, 0, 1, 10, 0, 0, 2, 11, 1, 0, 0, 3, 2, 10, 1, 11, 0, 0, 1, 4, 2, 2, 0})
	f.Add([]byte{9, 0, 0, 1, 3, 12, 5, 0, 6, 12, 2, 3, 1, 12, 170})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 129 {
			return
		}
		ctx := context.Background()
		var fleets []*routeFleet
		for _, policy := range []Policy{FirstFit, LeastLoaded, BestPredicted} {
			cfg := Config{Policy: policy, SpreadDomains: data[0]&1 == 1, Health: HealthConfig{FailoverBudgetSeconds: -1}}
			fleets = append(fleets, newRouteFleet(t, xrand.New(uint64(data[0])), cfg, 1+int(data[0]>>1)%12, false))
		}
		for i := 1; i < len(data); i += 2 {
			op, arg := data[i], byte(0)
			if i+1 < len(data) {
				arg = data[i+1]
			}
			w := testWorkload(t, routeWorkloads[int(arg)%len(routeWorkloads)])
			for _, rf := range fleets {
				rf.apply(t, ctx, op, arg)
				if _, err := rf.f.CheckRouting(ctx, w, 4); err != nil {
					t.Fatalf("%s, op %d: %v", rf.f.cfg.Policy, i/2, err)
				}
				for _, id := range rf.live {
					for _, minUtil := range []float64{-1, 0.25} {
						if err := rf.f.checkDestOrder(ctx, id, minUtil); err != nil {
							t.Fatalf("%s, op %d: %v", rf.f.cfg.Policy, i/2, err)
						}
					}
				}
			}
		}
	})
}

// TestRouteOneRowPerClass pins the point of the pass: a fleet of classed
// backends is scored from one row per class, whatever its size, and a
// backend that declines is previewed instead.
func TestRouteOneRowPerClass(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: BestPredicted})
	classes := []*stubClass{
		{token: sched.ScoreClass{Machine: 1}, m: machines.AMD(), row: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		{token: sched.ScoreClass{Machine: 2}, m: machines.Intel(), row: []float64{0, 9, 9, 9, 9}},
	}
	var stubs []*classedStub
	for i := 0; i < 64; i++ {
		class := classes[i%2]
		stubs = append(stubs, &classedStub{rowStub: rowStub{newStub(class.m, 0), class.row}, class: class})
		if err := f.Add(fmt.Sprintf("m%d", i), stubs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w := testWorkload(t, "swaptions")
	adm, err := f.Place(ctx, w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if adm.Backend != "m1" {
		t.Fatalf("admitted on %s, want m1: the first machine of the class promising 9", adm.Backend)
	}
	if classes[0].rows != 1 || classes[1].rows != 1 {
		t.Fatalf("one admission over 64 machines fetched %d and %d rows, want one per class", classes[0].rows, classes[1].rows)
	}
	classes[1].decline = true
	for _, s := range stubs {
		s.changed()
	}
	if n, err := f.CheckRouting(ctx, w, 4); err != nil || n != 1 {
		t.Fatalf("with one class declining the pass met %d classes (err %v), want 1", n, err)
	}
}

// TestSizeViewsStayBounded: every container size a best-predicted decision
// meets gets a view of its own, and nothing checks a size before it is
// routed, so the views are bounded — every commit walks them all. Dropping
// them loses nothing: a real size afterwards routes as the fan-out does, and
// remembers its order again.
func TestSizeViewsStayBounded(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: BestPredicted})
	class := &stubClass{token: sched.ScoreClass{Machine: 1}, m: machines.Intel(), row: []float64{0, 1, 2, 3, 4}}
	for i := 0; i < 4; i++ {
		if err := f.Add(fmt.Sprintf("m%d", i), &classedStub{rowStub: rowStub{newStub(class.m, 1), class.row}, class: class}); err != nil {
			t.Fatal(err)
		}
	}
	w := testWorkload(t, "swaptions")
	for vcpus := 1; vcpus <= 5000; vcpus++ {
		if adm, err := f.Place(ctx, w, vcpus); err == nil {
			if err := f.Release(ctx, adm.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.mu.Lock()
	views := len(f.idx.views)
	f.mu.Unlock()
	if views > maxViews+1 {
		t.Fatalf("5000 container sizes left %d views, want at most %d", views, maxViews+1)
	}
	if err := checkIndexEntries(f, 4); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if n, err := f.CheckRouting(ctx, w, 4); err != nil || n != 1 {
			t.Fatalf("routing 4 vCPUs after 5000 sizes: %v, the memo covers %d classes, want 1", err, n)
		}
	}
}

// TestRouteFailedRowIsNotRemembered: a score row that fails is no row, so the
// order ranked around it serves only the decision that ranked it. Once the
// failure clears — no class change is owed for it — the next decision asks
// for the row again and routes onto the class.
func TestRouteFailedRowIsNotRemembered(t *testing.T) {
	ctx := context.Background()
	f := New(Config{Policy: BestPredicted})
	class := &stubClass{token: sched.ScoreClass{Machine: 1}, m: machines.Intel(), row: []float64{0, 1, 2, 3, 4}}
	for i := 0; i < 3; i++ {
		if err := f.Add(fmt.Sprintf("m%d", i), &classedStub{rowStub: rowStub{newStub(class.m, 0), class.row}, class: class}); err != nil {
			t.Fatal(err)
		}
	}
	w := testWorkload(t, "swaptions")
	class.rowErr = fmt.Errorf("no row: %w", nperr.ErrMachineMismatch)
	if n, err := f.CheckRouting(ctx, w, 4); err != nil || n != 0 {
		t.Fatalf("with the row failing: %d classes remembered, %v; want none", n, err)
	}
	class.rowErr = nil
	if n, err := f.CheckRouting(ctx, w, 4); err != nil || n != 1 {
		t.Fatalf("after the row recovered: %d classes remembered, %v; want 1", n, err)
	}
	if class.rows != 2 {
		t.Fatalf("row fetched %d times, want twice: once failing, once again after", class.rows)
	}
}

// TestRouteManyClasses drives the pass far past the few classes a real fleet
// has: every member its own class, every score distinct. One order covers all
// of them, so each class's row is fetched once, by the first decision.
func TestRouteManyClasses(t *testing.T) {
	const classes = 24
	ctx := context.Background()
	f := New(Config{Policy: BestPredicted, SpreadDomains: true})
	m := machines.Intel()
	var all []*stubClass
	for i := 0; i < classes; i++ {
		class := &stubClass{token: sched.ScoreClass{Machine: uint64(i + 1)}, m: m,
			row: []float64{0, float64(i%7 + 1), float64(i + 1), float64(i + 1), float64(i + 1)}}
		all = append(all, class)
		b := &classedStub{rowStub: rowStub{newStub(m, 0), class.row}, class: class}
		if err := f.Add(fmt.Sprintf("m%d", i), b, InDomain(fmt.Sprintf("rack-%d", i%3))); err != nil {
			t.Fatal(err)
		}
	}
	w := testWorkload(t, "canneal")
	for i := 0; i < classes*m.Topo.NumNodes; i++ {
		if n, err := f.CheckRouting(ctx, w, 4); err != nil || n != classes {
			t.Fatalf("admission %d: %d classes, err %v", i, n, err)
		}
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
	}
	if _, err := f.Place(ctx, w, 4); !errors.Is(err, nperr.ErrFleetFull) {
		t.Fatalf("a full fleet answered %v", err)
	}
	for i, class := range all {
		if class.rows != 1 {
			t.Fatalf("class %d: row fetched %d times over %d admissions, want once", i, class.rows, classes*m.Topo.NumNodes)
		}
	}
}

// TestRouteCatchesPoisonedOrder proves the oracles read what the memo holds:
// in the order the next decision reads, two cells of different scores
// swapped, or one cell the row leaves out let in, must each fail CheckRouting.
func TestRouteCatchesPoisonedOrder(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "swaptions")
	for _, p := range []struct {
		name   string
		poison func(cells []orderCell, filled func(orderCell) bool) bool
	}{
		{"two cells of different scores swapped", func(cells []orderCell, filled func(orderCell) bool) bool {
			for i, a := range cells {
				for j := i + 1; j < len(cells); j++ {
					if b := cells[j]; !a.out && !b.out && a.score != b.score && filled(a) && filled(b) {
						cells[i], cells[j] = b, a
						return true
					}
				}
			}
			return false
		}},
		{"a left-out cell let in", func(cells []orderCell, filled func(orderCell) bool) bool {
			for i, c := range cells {
				if c.out && filled(c) {
					cells[i].out = false
					return true
				}
			}
			return false
		}},
	} {
		t.Run(p.name, func(t *testing.T) {
			class := &stubClass{token: sched.ScoreClass{Machine: 1}, m: machines.Intel(), row: []float64{0, 1, 2, 3, 4}}
			f := New(Config{Policy: BestPredicted})
			for i, free := range []int{0, 4, 1, 2, 0, 4, 2, 1} {
				stub := newStub(class.m, 0)
				stub.free = topology.FullNodeSet(free)
				if err := f.Add(fmt.Sprintf("m%d", i), &classedStub{rowStub: rowStub{stub, class.row}, class: class}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.CheckRouting(ctx, w, 4); err != nil {
				t.Fatal(err) // the decision that ranks the order and remembers it
			}
			q := routeQuery{by: bestPredicted, w: w, vcpus: 4}
			f.mu.Lock()
			v := f.viewLocked(&q)
			e := v.orders[q.orderKey()]
			poisoned := e != nil && p.poison(e.cells, func(c orderCell) bool {
				return slices.ContainsFunc(v.classes[c.class].cell(int(c.free), f.idx.words), func(word uint64) bool { return word != 0 })
			})
			f.mu.Unlock()
			if !poisoned {
				t.Fatal("degenerate setup: no order remembered, or nothing in it to poison")
			}
			if _, err := f.CheckRouting(ctx, w, 4); err == nil {
				t.Fatal("CheckRouting passed a decision read from a poisoned order")
			}
		})
	}
}

// TestRouteIndexIsTheSweep holds the index to the sweep it replaced after
// every operation of the 800-op trace — place, release (and a release that
// fails), rebalance, drain and resume, fail, failover and revive, a machine
// replaced under its name, and a score class declining and returning — over a
// fleet of two classes of two, one stub with a row of its own and one plain:
// entry by entry, and the full candidate order of an admission under each
// scoring and of every resident tenant's move. At op 600 the log, from scratch
// and from the mid-trace checkpoint, is restored into fresh fleets, whose
// indexes — built once, after the last record — must pass the same check.
func TestRouteIndexIsTheSweep(t *testing.T) {
	ctx := context.Background()
	ws := []perfsim.Workload{testWorkload(t, "swaptions"), testWorkload(t, "gcc")}
	for _, policy := range []Policy{FirstFit, LeastLoaded, BestPredicted} {
		t.Run(policy.String(), func(t *testing.T) {
			classes := []*stubClass{
				{token: sched.ScoreClass{Machine: 1}, m: machines.AMD(), row: []float64{0, 0, 3, 3, 5, 5, 5, 7, 7}},
				{token: sched.ScoreClass{Machine: 2}, m: machines.Intel(), row: []float64{0, 1, 1, 1, 1}},
			}
			var classed []*classedStub
			wrap := func(i int, s *stubBackend) Backend {
				switch {
				case i < 4:
					cs := &classedStub{rowStub: rowStub{s, classes[i%2].row}, class: classes[i%2]}
					classed = append(classed, cs)
					return cs
				case i == 4:
					return &rowStub{s, []float64{0, 2, 2, 5, 5, 5, 8, 8, 8}}
				default:
					return s
				}
			}
			check := func(f *Fleet, when string) {
				t.Helper()
				if err := checkIndexIsTheSweep(ctx, f, ws, 4); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			checked := 0
			runWrappedTrace(t, policy, wrap,
				func(tr *occupancyTrace, op int) {
					if op != 600 {
						return
					}
					for _, st := range []*State{nil, tr.snapAt} {
						twin, _, _ := wrappedFleet(t, tr.cfg, wrap)
						if err := twin.Restore(ctx, st, tr.p.records(), lookupWorkload); err != nil {
							t.Fatalf("Restore (snapshot %v): %v", st != nil, err)
						}
						check(twin, fmt.Sprintf("restored (snapshot %v)", st != nil))
					}
				},
				func(tr *occupancyTrace, op int, what, name string) {
					if op%37 == 0 {
						class := classes[op/37%2]
						class.decline = !class.decline
						for _, cs := range classed {
							cs.changed()
						}
						what += ", a class change"
					}
					check(tr.f, fmt.Sprintf("after op %d (%s %s)", op, what, name))
					checked++
				})
			if checked < 700 {
				t.Fatalf("checked %d states, want at least 700", checked)
			}
		})
	}
}

// callCounts is what a countingStub counts.
type callCounts struct{ scoreClass, scoreRow, freeNodes, preview, place int }

// countingStub is a classedStub that counts the calls a routing decision
// could make per member.
type countingStub struct {
	classedStub
	calls *callCounts
}

func (s *countingStub) ScoreClass(vcpus int) (sched.ScoreClass, bool) {
	s.calls.scoreClass++
	return s.classedStub.ScoreClass(vcpus)
}

func (s *countingStub) ScoreRow(ctx context.Context, w perfsim.Workload, vcpus int, class sched.ScoreClass) ([]sched.Score, error) {
	s.calls.scoreRow++
	return s.classedStub.ScoreRow(ctx, w, vcpus, class)
}

func (s *countingStub) FreeNodes() topology.NodeSet {
	s.calls.freeNodes++
	return s.classedStub.FreeNodes()
}

func (s *countingStub) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	s.calls.preview++
	return s.classedStub.Preview(ctx, w, vcpus)
}

func (s *countingStub) Place(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Assignment, error) {
	s.calls.place++
	return s.classedStub.Place(ctx, w, vcpus)
}

// TestRouteDecisionIsNotPerMember is the scaling claim as a count: on a warm
// fleet of 1 024 machines in two classes at half fill, one admission that the
// first candidate takes calls that candidate — its Place, and the commit's
// re-read of its free count — and nobody else. No member is asked its class,
// its free count, a score row or a Preview to be ranked: the cell order is
// the one the view memoized. A decision that sweeps the fleet makes a thousand
// such calls, and one that ranks makes a row call per class; both fail here
// without a clock.
func TestRouteDecisionIsNotPerMember(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "swaptions")
	for _, policy := range []Policy{LeastLoaded, BestPredicted} {
		t.Run(policy.String(), func(t *testing.T) {
			classes := []*stubClass{
				{token: sched.ScoreClass{Machine: 1}, m: machines.AMD(), row: []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}},
				{token: sched.ScoreClass{Machine: 2}, m: machines.Intel(), row: []float64{0, 2, 4, 6, 8}},
			}
			var calls callCounts
			f := New(Config{Policy: policy, SpreadDomains: true})
			for i := 0; i < 1024; i++ {
				class := classes[i%2]
				b := &countingStub{classedStub{rowStub: rowStub{newStub(class.m, 0), class.row}, class: class}, &calls}
				if err := f.Add(fmt.Sprintf("m%d", i), b, InDomain(fmt.Sprintf("rack-%d", i%8))); err != nil {
					t.Fatal(err)
				}
			}
			var resident []int
			for i := 0; i < 3072; i++ { // half of the 6 144 nodes
				adm, err := f.Place(ctx, w, 4)
				if err != nil {
					t.Fatal(err)
				}
				resident = append(resident, adm.ID)
			}
			for cycle := 0; cycle < 3; cycle++ {
				if err := f.Release(ctx, resident[cycle*7]); err != nil {
					t.Fatal(err)
				}
				calls = callCounts{}
				if _, err := f.Place(ctx, w, 4); err != nil {
					t.Fatal(err)
				}
				if calls.scoreClass != 0 || calls.preview != 0 || calls.place != 1 || calls.freeNodes > 2 || calls.scoreRow != 0 {
					t.Fatalf("cycle %d: one first-try admission over 1024 machines made %+v backend calls, want 0 ScoreClass, 0 ScoreRow, 0 Preview, 1 Place, at most 2 FreeNodes", cycle, calls)
				}
			}
		})
	}
}

// removedBackend builds a fleet of three, routes admissions and a drain's
// moves past the middle one, removes it and checks that the index, the
// fleet's routing scratch and the notification let it go. collected is closed
// when the removed stub is garbage.
func removedBackend(t *testing.T, policy Policy) (f *Fleet, collected chan struct{}) {
	ctx := context.Background()
	w := testWorkload(t, "swaptions")
	class := &stubClass{token: sched.ScoreClass{Machine: 1}, m: machines.Intel(), row: []float64{0, 1, 2, 3, 4}}
	f = New(Config{Policy: policy, SpreadDomains: true})
	var middle *classedStub
	for i := 0; i < 3; i++ {
		var b Backend = &classedStub{rowStub: rowStub{newStub(class.m, 1), class.row}, class: class}
		if i == 1 {
			middle = b.(*classedStub)
		}
		if i == 2 {
			b = newStub(class.m, 1) // scored by its Preview: the solo slots too
		}
		if err := f.Add(fmt.Sprintf("m%d", i), b, InDomain(fmt.Sprintf("rack-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	gone := f.byName["m1"]
	for i := 0; i < 9; i++ {
		if _, err := f.Place(ctx, w, 4); err != nil {
			t.Fatal(err)
		}
	}
	if gone.tenants == 0 {
		t.Fatal("degenerate setup: nothing was routed to m1")
	}
	for id, rec := range f.tenants { // make room for m1's tenants elsewhere
		if rec.mem != gone {
			if err := f.Release(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rep, err := f.Drain(ctx, "m1"); err != nil || len(rep.Moves) == 0 {
		t.Fatalf("drain: %v, report %+v", err, rep)
	}
	if err := f.Remove("m1"); err != nil {
		t.Fatal(err)
	}
	if middle.epoch != nil {
		t.Fatal("Remove left the backend's class-change notification registered")
	}
	if slices.Contains(f.members[:cap(f.members)], gone) || slices.Contains(f.scratch.members[:cap(f.scratch.members)], gone) {
		t.Fatal("Remove left the member in the fleet's list or its routing scratch")
	}
	if err := checkIndexEntries(f, 4); err != nil {
		t.Fatalf("after Remove: %v", err)
	}
	if _, err := f.Place(ctx, w, 4); err != nil {
		t.Fatal(err)
	}
	if err := checkIndexIsTheSweep(ctx, f, []perfsim.Workload{w}, 4); err != nil {
		t.Fatalf("after Remove and one more admission: %v", err)
	}
	collected = make(chan struct{})
	runtime.SetFinalizer(middle.stubBackend, func(*stubBackend) { close(collected) })
	return f, collected
}

// TestRemovedBackendIsLetGo checks that Remove leaves nothing pointing at the
// backend: not the member list, not a cell or a position of the index, not a
// slot of a routing scratch, not the class-change notification — so the
// backend, and whatever it caches, can be collected while the fleet lives on.
func TestRemovedBackendIsLetGo(t *testing.T) {
	for _, policy := range []Policy{LeastLoaded, BestPredicted} {
		t.Run(policy.String(), func(t *testing.T) {
			f, collected := removedBackend(t, policy)
			deadline := time.After(10 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					runtime.KeepAlive(f)
					return
				case <-deadline:
					t.Fatal("the removed backend is still reachable after Remove")
				case <-time.After(10 * time.Millisecond):
				}
			}
		})
	}
}
