package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
)

// opHeader carries the traced pass's op id over the wire, so a handler
// span is attributed to the caller-side op that caused it.
const opHeader = "X-Bench-Op"

// span is one timed call into a layer's public surface. Times are
// nanoseconds since the tracer's base; parent is an index into the span
// list (-1 for an op's root).
type span struct {
	name       uint16
	op, parent int32
	start, end int64
	child      int64 // time covered by direct child spans
}

// tracer records spans for a serial pass. One caller drives the pass, so
// spans nest by containment even across the HTTP hop (client span ⊃
// round trip ⊃ handler ⊃ backend calls) and a single open-span stack
// assigns parents; the mutex only orders the caller and server goroutines'
// accesses. A nil tracer records nothing.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	on      bool // spans are recorded only while the pass runs, not during set-up
	names   []string
	idx     map[string]uint16
	spans   []span
	stack   []int32
	op      int32
	misnest int
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), idx: map[string]uint16{}}
}

func (t *tracer) nameID(name string) uint16 {
	id, ok := t.idx[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.idx[name] = id
	}
	return id
}

// enable switches recording on or off between operations.
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// nextOp starts a new op; subsequent in-process spans belong to it.
func (t *tracer) nextOp() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	return t.op
}

// begin opens a span under the innermost open one. op < 0 means the
// tracer's current op.
func (t *tracer) begin(name string, op int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	if op < 0 {
		op = t.op
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: t.nameID(name), op: op, parent: parent})
	t.stack = append(t.stack, i)
	t.spans[i].start = int64(time.Since(t.base))
	return i
}

// end closes span i, renaming it when rename is non-empty (an engine
// admission only knows it was a rejection once it returns).
func (t *tracer) end(i int32, rename string) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.end = now
	if rename != "" {
		s.name = t.nameID(rename)
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != i {
		t.misnest++
	} else {
		t.stack = t.stack[:n-1]
	}
	if s.parent >= 0 {
		t.spans[s.parent].child += s.end - s.start
	}
}

// layerOf maps a span name ("engine.preview") to its layer ("engine").
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// traceSummary aggregates a finished pass: per span name the sorted
// durations and self times (µs), and per root name the reconciliation of
// layer medians against the caller-side median.
type traceSummary struct {
	total map[string][]float64
	self  map[string][]float64
	// layerPerOp[root][layer] lists, per op rooted at a span named root,
	// the summed self time of that layer's spans within the op.
	layerPerOp map[string]map[string][]float64
}

func (t *tracer) summarize() (*traceSummary, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.misnest > 0 || len(t.stack) > 0 {
		return nil, fmt.Errorf("trace: %d spans closed out of order, %d left open", t.misnest, len(t.stack))
	}
	sum := &traceSummary{
		total:      map[string][]float64{},
		self:       map[string][]float64{},
		layerPerOp: map[string]map[string][]float64{},
	}
	// Spans are appended in begin order, so a root precedes every span of
	// its subtree; rootOf resolves each span to its op's root in one pass.
	rootOf := make([]int32, len(t.spans))
	perRoot := map[int32]map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		name := t.names[s.name]
		dur := float64(s.end-s.start) / 1e3
		self := float64(s.end-s.start-s.child) / 1e3
		sum.total[name] = append(sum.total[name], dur)
		sum.self[name] = append(sum.self[name], self)
		root := int32(i)
		if s.parent >= 0 {
			root = rootOf[s.parent]
		}
		rootOf[i] = root
		m := perRoot[root]
		if m == nil {
			m = map[string]float64{}
			perRoot[root] = m
		}
		m[layerOf(name)] += self
	}
	for root, layers := range perRoot {
		rname := t.names[t.spans[root].name]
		m := sum.layerPerOp[rname]
		if m == nil {
			m = map[string][]float64{}
			sum.layerPerOp[rname] = m
		}
		for layer, v := range layers {
			m[layer] = append(m[layer], v)
		}
	}
	for _, m := range []map[string][]float64{sum.total, sum.self} {
		for _, v := range m {
			sort.Float64s(v)
		}
	}
	for _, m := range sum.layerPerOp {
		for _, v := range m {
			sort.Float64s(v)
		}
	}
	return sum, nil
}

func (s *traceSummary) count(name string) int { return len(s.total[name]) }

func (s *traceSummary) totalP50(name string) float64 { return quantile(s.total[name], 0.5) }

func (s *traceSummary) selfP50(name string) float64 { return quantile(s.self[name], 0.5) }

// reconcile returns Σ over layers of the median per-op layer self time,
// divided by the median caller-side span, for ops rooted at root. A layer
// absent from more than half the ops has median 0 by construction (its
// zeros are not stored), which is what the padding restores.
func (s *traceSummary) reconcile(root string) float64 {
	ops := len(s.total[root])
	if ops == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.layerPerOp[root] {
		// v holds only ops where the layer appeared; pad with zeros.
		k := ops/2 - (ops - len(v))
		if k >= 0 && k < len(v) {
			sum += v[k]
		}
	}
	return sum / s.totalP50(root)
}

// traceFile is what a traced pass leaves in bench/out/.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Env      environment       `json:"env"`
	Ops      int               `json:"ops"`
	Spans    int               `json:"spans"`
	Summary  []spanStat        `json:"summary"`
	Sample   []spanJSON        `json:"sample"`
	Notes    map[string]string `json:"notes,omitempty"`
}

type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_p50_us"`
	SelfUS  float64 `json:"self_p50_us"`
	P99US   float64 `json:"total_p99_us"`
}

type spanJSON struct {
	Name    string `json:"name"`
	Op      int32  `json:"op"`
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// sampleOps is how many ops' spans a trace file carries in full; the rest
// are represented by the per-name summary (a 64-machine admission is ~70
// spans, so a whole pass would be a nine-figure JSON file).
const sampleOps = 200

func (t *tracer) write(dir, workload string, seed uint64, sum *traceSummary) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Env: currentEnv(), Ops: int(t.op), Spans: len(t.spans)}
	var names []string
	for name := range sum.total {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tf.Summary = append(tf.Summary, spanStat{
			Name: name, Count: sum.count(name), TotalUS: sum.totalP50(name),
			SelfUS: sum.selfP50(name), P99US: quantile(sum.total[name], 0.99),
		})
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.op > sampleOps {
			break
		}
		tf.Sample = append(tf.Sample, spanJSON{
			Name: t.names[s.name], Op: s.op, ID: i, Parent: s.parent, StartNS: s.start, EndNS: s.end,
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed)), b, 0o644)
}

// tracedBackend spans every call the fleet makes into one engine.
type tracedBackend struct {
	b fleet.Backend
	t *tracer
}

func (tb tracedBackend) Machine() machines.Machine                  { return tb.b.Machine() }
func (tb tracedBackend) Assignments() []sched.Assignment            { return tb.b.Assignments() }
func (tb tracedBackend) FreeNodes() topology.NodeSet                { return tb.b.FreeNodes() }
func (tb tracedBackend) Assignment(id int) (sched.Assignment, bool) { return tb.b.Assignment(id) }

func (tb tracedBackend) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	i := tb.t.begin("engine.preview", -1)
	p, err := tb.b.Preview(ctx, w, vcpus)
	tb.t.end(i, "")
	return p, err
}

func (tb tracedBackend) Place(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Assignment, error) {
	i := tb.t.begin("engine.place", -1)
	a, err := tb.b.Place(ctx, w, vcpus)
	if err != nil {
		tb.t.end(i, "engine.place.reject")
	} else {
		tb.t.end(i, "")
	}
	return a, err
}

func (tb tracedBackend) Release(ctx context.Context, id int) error {
	i := tb.t.begin("engine.release", -1)
	err := tb.b.Release(ctx, id)
	tb.t.end(i, "")
	return err
}

func (tb tracedBackend) Rebalance(ctx context.Context) (*sched.RebalanceReport, error) {
	i := tb.t.begin("engine.rebalance", -1)
	r, err := tb.b.Rebalance(ctx)
	tb.t.end(i, "")
	return r, err
}

func (tb tracedBackend) Adopt(ctx context.Context, r sched.Restore) (*sched.Assignment, error) {
	i := tb.t.begin("engine.adopt", -1)
	a, err := tb.b.Adopt(ctx, r)
	tb.t.end(i, "")
	return a, err
}

func (tb tracedBackend) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	i := tb.t.begin("engine.applymove", -1)
	err := tb.b.ApplyMove(ctx, id, classID, nodes)
	tb.t.end(i, "")
	return err
}

// tracedPersister spans the fleet's calls into the write-ahead log and
// measures the log's bytes per record from the file it grows.
type tracedPersister struct {
	p   fleet.Persister
	t   *tracer
	dir string

	records  int
	logBytes int64 // bytes appended to the log across the pass
	logBase  int64 // log size at the last measurement point
	snapSize int64
}

func newTracedPersister(p fleet.Persister, t *tracer, dir string) *tracedPersister {
	tp := &tracedPersister{p: p, t: t, dir: dir}
	tp.logBase = fileSize(filepath.Join(dir, "log"))
	return tp
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// settle accounts the bytes the log grew by since the last settle. Commit
// hands every appended record to the OS, so the file is current whenever
// the serial pass is between operations.
func (tp *tracedPersister) settle() {
	size := fileSize(filepath.Join(tp.dir, "log"))
	tp.logBytes += size - tp.logBase
	tp.logBase = size
}

// reset restarts the byte and record accounting (after the warm-up).
func (tp *tracedPersister) reset() {
	tp.settle()
	tp.records, tp.logBytes = 0, 0
}

func (tp *tracedPersister) Append(r fleet.Record) {
	i := tp.t.begin("wal.append", -1)
	tp.p.Append(r)
	tp.t.end(i, "")
	tp.records++
}

func (tp *tracedPersister) Commit(seq uint64) error {
	i := tp.t.begin("wal.commit", -1)
	err := tp.p.Commit(seq)
	tp.t.end(i, "")
	return err
}

func (tp *tracedPersister) Snapshot(st fleet.State) error {
	tp.settle() // the snapshot truncates the log; count what it held first
	i := tp.t.begin("wal.snapshot", -1)
	err := tp.p.Snapshot(st)
	tp.t.end(i, "")
	tp.logBase = fileSize(filepath.Join(tp.dir, "log"))
	tp.snapSize = fileSize(filepath.Join(tp.dir, "snapshot"))
	return err
}

// tracedHandler spans the daemon's place and release handlers; every other
// route (the never-returning event stream above all) passes through.
type tracedHandler struct {
	h http.Handler
	t *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := ""
	switch r.URL.Path {
	case "/v1/place":
		name = "wire.place"
	case "/v1/release":
		name = "wire.release"
	}
	op, err := strconv.Atoi(r.Header.Get(opHeader))
	if name == "" || err != nil {
		th.h.ServeHTTP(w, r)
		return
	}
	i := th.t.begin(name, int32(op))
	th.h.ServeHTTP(w, r)
	th.t.end(i, "")
}

// tracedTransport spans the round trip of each traced op and stamps its op
// id on the request.
type tracedTransport struct {
	rt http.RoundTripper
	t  *tracer
}

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	name := ""
	switch r.URL.Path {
	case "/v1/place":
		name = "transport.place"
	case "/v1/release":
		name = "transport.release"
	}
	if name == "" {
		return tt.rt.RoundTrip(r)
	}
	tt.t.mu.Lock()
	op := tt.t.op
	tt.t.mu.Unlock()
	// RoundTrip must not mutate the caller's request.
	r = r.Clone(r.Context())
	r.Header.Set(opHeader, strconv.Itoa(int(op)))
	i := tt.t.begin(name, op)
	resp, err := tt.rt.RoundTrip(r)
	tt.t.end(i, "")
	return resp, err
}

// countingDialer counts the connections a client opens and, in the traced
// pass only, the bytes that cross them.
type countingDialer struct {
	countBytes bool
	dialed     atomic.Int64
	bytes      atomic.Int64
}

func (d *countingDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	d.dialed.Add(1)
	if !d.countBytes {
		return c, nil
	}
	return &countingConn{Conn: c, d: d}, nil
}

type countingConn struct {
	net.Conn
	d *countingDialer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.d.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.d.bytes.Add(int64(n))
	return n, err
}
