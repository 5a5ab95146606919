// Package bench is the repo's benchmark: four fleet-shaped workloads
// measured end to end with tracing off, and a separate serial traced pass
// that attributes the time to the layers (client, transport, wire, fleet,
// engine, wal, events) through the seams their public surfaces already
// have. bench/README.md defines every workload and metric; BENCHMARK.json
// is the contract the driver checks.
package bench

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/fleet"
	"repro/internal/topology"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// Workload names one benchmark workload and why it exists.
type Workload struct {
	Name, Why string
	measure   func(context.Context, *run) error
	trace     func(context.Context, *run) error
}

// Workloads lists the benchmark's workloads in BENCHMARK.json's order.
var Workloads = []Workload{
	{"wire_churn", "the daemon as deployed: client, net/http and wire are ~97% of a place, so a fleet-only change must not move it",
		measureWireChurn, traceWireChurn},
	{"fleet_resident", "64 machines at 60% fill under best-predicted routing: 64 previews and the domain walk per admission, no wire, no log",
		measureFleetResident, traceFleetResident},
	{"fleet_manage", "the same layers with the log attached and an operator's reads, passes and snapshots contending for Fleet.mu",
		measureFleetManage, traceFleetManage},
	{"restart_replay", "what an operator waits for after kill -9: snapshot decode, log scan and replay into fresh engines",
		measureRestartReplay, traceRestartReplay},
}

// Options selects one run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measured window; the traced pass scales its op count from it
	Traced   bool
	OutDir   string // where traced passes leave trace-*.json
	// Setups fixes how many times an end-to-end run sets up (setup_s is
	// the median); 0 repeats until the set-ups have taken setupBudget, at
	// least minSetups and at most maxSetups times.
	Setups int
}

// A set-up takes 40 ms (wire_churn) to 1.3 s (restart_replay); the short
// ones need more repetitions for a steady median and can afford them.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1500 * time.Millisecond

	// setupSpeedProbe is how long the reference runs either side of a
	// set-up or a restart, tracedSpeedProbe either side of a traced pass.
	setupSpeedProbe  = 50 * time.Millisecond
	tracedSpeedProbe = 200 * time.Millisecond
)

func (o Options) window() time.Duration { return time.Duration(o.Seconds * float64(time.Second)) }

// warmup is the untimed lead-in: a second at full length, less for the
// smoke test's short windows.
func (o Options) warmup() time.Duration {
	if w := o.window() / 4; w < time.Second {
		return w
	}
	return time.Second
}

// run is one workload run in progress.
type run struct {
	opt Options
	rep *Report
	ref *reference
}

// Run executes one workload, traced or not, and returns its report. The
// report is complete (and marked incorrect) even when the run failed.
//
// A run has one processor. On the two shared cores this is recorded on,
// goroutines that wake each other across processors (a request crosses five
// between client and handler) measure how fast the host delivers a wake-up,
// which varies 2x over minutes; on one processor a hand-off is a queue
// operation inside the Go scheduler and the numbers repeat. What one
// processor cannot show, contention between cores for Fleet.mu, two shared
// cores could not resolve either.
func Run(ctx context.Context, opt Options) *Report {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := &run{opt: opt, rep: newReport(opt.Workload, opt.Seed, opt.Traced)}
	var w *Workload
	for i := range Workloads {
		if Workloads[i].Name == opt.Workload {
			w = &Workloads[i]
		}
	}
	switch {
	case w == nil:
		r.rep.problem("unknown workload %q", opt.Workload)
	case opt.Seconds <= 0:
		r.rep.problem("-seconds must be positive")
	default:
		if err := r.measure(ctx, w); err != nil {
			r.rep.problem("%v", err)
		}
		if err := ctx.Err(); err != nil {
			r.rep.problem("run cut short: %v", context.Cause(ctx))
		}
	}
	r.rep.finish()
	return r.rep
}

// measure runs w's end-to-end window or its traced pass. A traced pass
// reports raw times; the machine speed either side of it is recorded beside
// them.
func (r *run) measure(ctx context.Context, w *Workload) error {
	ref, err := newReference()
	if err != nil {
		return err
	}
	defer ref.close()
	r.ref = ref
	if r.opt.Traced {
		before := ref.speed(tracedSpeedProbe)
		err = w.trace(ctx, r)
		r.rep.set("trace.machine_speed", (before+ref.speed(tracedSpeedProbe))/2)
	} else {
		err = w.measure(ctx, r)
	}
	if err == nil {
		err = ref.err
	}
	return err
}

// repeatSetup sets up several times (see Options.Setups), tearing down
// every environment but the last, and returns that one with the median
// set-up time in seconds, each time scaled by the machine speed measured
// either side of it.
func repeatSetup[T any](ref *reference, fixed int, setup func() (T, error), teardown func(T) error) (env T, seconds float64, err error) {
	var times []float64
	var total time.Duration
	before := ref.speed(setupSpeedProbe)
	for i := 1; ; i++ {
		t0 := time.Now()
		if env, err = setup(); err != nil {
			return env, 0, err
		}
		d := time.Since(t0)
		after := ref.speed(setupSpeedProbe)
		total += d
		times = append(times, d.Seconds()*(before+after)/2)
		before = after
		if i == fixed || (fixed <= 0 && i >= minSetups && (total >= setupBudget || i >= maxSetups)) {
			return env, median(times), nil
		}
		if err = teardown(env); err != nil {
			return env, 0, fmt.Errorf("tearing down set-up %d: %w", i, err)
		}
	}
}

// report fills the end-to-end metrics a serving window yields.
func (r *run) reportWindow(w window, setupS, heapMB float64, filled int) {
	r.rep.set("setup_s", setupS)
	r.rep.set("throughput_per_s", w.perSecond)
	r.rep.set("latency_p50_us", w.placeP50)
	r.rep.set("latency_tail_us", w.placeP90)
	r.rep.set("cpu_us_per_op", w.cpuPerCycle)
	r.rep.set("alloc_bytes_per_op", w.allocPerCycle)
	r.rep.set("heap_live_mb", heapMB)
	r.rep.extra("fill_tenants", "count", float64(filled))
	r.rep.extra("machine_speed", "share", w.speed)
	r.rep.extra("raw_throughput_per_s", "1/s", w.rawPerSecond)
	r.rep.extra("raw_latency_p50_us", "us", w.rawPlaceP50)
	r.rep.extra("raw_latency_p99_us", "us", w.rawPlaceP99)
	r.rep.extra("raw_release_p50_us", "us", w.rawReleaseP50)
	if w.attempts > 0 {
		r.rep.extra("reject_share", "share", float64(w.rejects)/float64(w.attempts))
	}
	r.rep.extra("place_samples_per_slice", "count", float64(w.samplesPerSlice))
	r.rep.Result.Attempted += w.attempts + w.cycles
	r.rep.Result.Failed += w.fails
	if w.firstErr != nil {
		r.rep.problem("first failed operation: %v", w.firstErr)
	}
	if w.cycles == 0 {
		r.rep.problem("no cycle completed in the window")
	}
}

// ---- wire_churn ----

// wirePlacer drives the daemon through the typed client.
type wirePlacer struct{ c *client.Client }

func (p wirePlacer) place(ctx context.Context, rq request) (int, string, int, topology.NodeSet, error) {
	resp, err := p.c.Place(ctx, rq.w.Name, rq.vcpus)
	if err != nil {
		return 0, "", 0, 0, err
	}
	var nodes topology.NodeSet
	for _, n := range resp.Assignment.Nodes {
		nodes = nodes.Add(topology.NodeID(n))
	}
	return resp.ID, resp.Backend, resp.Assignment.Class, nodes, nil
}

func (p wirePlacer) release(ctx context.Context, id int) error { return p.c.Release(ctx, id) }

// pinnedTenants stay resident through wire_churn — the first the pack
// placed on each machine — so free masks are not trivial.
const pinnedTenants = 2

// wireEnv is a running daemon with a connected client and one event
// subscriber draining /v1/events.
type wireEnv struct {
	d      *daemon
	tr     *http.Transport
	c      *client.Client
	dialer *countingDialer
	stream *client.EventStream
	subWG  sync.WaitGroup
	frames atomic.Int64
	drops  atomic.Int64

	filled int
	digest string
}

// startWire is wire_churn's set-up: train as the daemon does, start it,
// connect, subscribe, pack the fleet over the wire until fleet_full and
// release down to the pinned tenants.
func startWire(ctx context.Context, seed uint64, sm seams, t *tracer) (*wireEnv, error) {
	mods, err := trainModels(ctx, daemonFleet.sizes)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctx, mods, sm)
	if err != nil {
		return nil, err
	}
	e := &wireEnv{d: d, dialer: &countingDialer{countBytes: t != nil}}
	// The transport client.New builds, with the dialer swapped for a
	// counting one; owning it lets teardown close the idle connections.
	e.tr = http.DefaultTransport.(*http.Transport).Clone()
	e.tr.MaxIdleConns, e.tr.MaxIdleConnsPerHost = 512, 256
	e.tr.DialContext = e.dialer.dial
	var rt http.RoundTripper = e.tr
	if t != nil {
		rt = tracedTransport{rt: e.tr, t: t}
	}
	e.c = client.New(d.addr, client.WithRetries(0), client.WithHTTPClient(&http.Client{Transport: rt}))
	if e.stream, err = e.c.Events(ctx); err != nil {
		e.stop()
		return nil, err
	}
	e.subWG.Add(1)
	go func() {
		defer e.subWG.Done()
		for {
			ev, err := e.stream.Next()
			if err != nil {
				return
			}
			if ev.Type == "dropped" {
				e.drops.Add(int64(ev.Dropped))
			} else {
				e.frames.Add(1)
			}
		}
	}()
	if e.filled, e.digest, err = packPinned(ctx, wirePlacer{e.c}, seed); err != nil {
		e.stop()
		return nil, err
	}
	return e, nil
}

// packPinned packs the daemon's fleet full through p and thins it to the
// pinned tenants.
func packPinned(ctx context.Context, p placer, seed uint64) (filled int, dig string, err error) {
	adms, dig, err := pack(ctx, p, newRequests(seed, 0, daemonFleet.sizes))
	if err != nil {
		return 0, "", err
	}
	_, err = thin(ctx, p, adms, keepFirstPerBackend(adms))
	return len(adms), dig, err
}

// stop closes the subscriber, the client's connections and the daemon, and
// returns once every goroutine they owned has exited.
func (e *wireEnv) stop() error {
	if e.stream != nil {
		e.stream.Close()
	}
	e.subWG.Wait()
	e.tr.CloseIdleConnections()
	return e.d.stop()
}

func measureWireChurn(ctx context.Context, r *run) error {
	e, setupS, err := repeatSetup(r.ref, r.opt.Setups,
		func() (*wireEnv, error) { return startWire(ctx, r.opt.Seed, seams{}, nil) },
		(*wireEnv).stop)
	if err != nil {
		return err
	}
	defer e.stop()
	c := newCaller(wirePlacer{e.c}, r.opt.Seed, 1, daemonFleet.sizes, nil)
	w := serve(ctx, c, r.ref, r.opt.warmup(), r.opt.window(), nil)
	r.reportWindow(w, setupS, heapLiveMB(), e.filled)
	r.rep.Notes["pack_digest"] = e.digest
	r.rep.extra("events_dropped", "count", float64(e.drops.Load()))
	// The caller's keep-alive connection and the event stream; a third is
	// the re-dial churn keep-alive exists to prevent.
	r.rep.extra("conns_dialed", "count", float64(e.dialer.dialed.Load()))
	if got := e.dialer.dialed.Load(); got != 2 {
		r.rep.problem("client dialed %d connections, want 2 (the caller plus the event stream)", got)
	}
	if got := e.d.cl.Len(); got != pinnedTenants {
		r.rep.problem("%d tenants resident after the window, want the %d pinned", got, pinnedTenants)
	}
	return e.d.checkBooks()
}

// ---- fleet_resident ----

// residentShare of a full pack stays resident in the 64-machine workloads.
const residentShare = 0.6

// packedFleet is a fleet filled to residentShare.
type packedFleet struct {
	*testFleet
	ids    []int
	filled int
	digest string
}

func startResident(ctx context.Context, seed uint64, wrap func(fleet.Backend) fleet.Backend) (*packedFleet, error) {
	mods, err := trainModels(ctx, residentFleet.sizes)
	if err != nil {
		return nil, err
	}
	tf, err := buildFleet(ctx, residentFleet, mods, wrap)
	if err != nil {
		return nil, err
	}
	pf := &packedFleet{testFleet: tf}
	pf.ids, pf.filled, pf.digest, err = packResident(ctx, tf, seed)
	return pf, err
}

// packResident packs tf full and thins it to residentShare.
func packResident(ctx context.Context, tf *testFleet, seed uint64) (ids []int, filled int, dig string, err error) {
	reqs := newRequests(seed, 0, tf.spec.sizes)
	p := clusterPlacer{tf.cl}
	adms, dig, err := pack(ctx, p, reqs)
	if err != nil {
		return nil, 0, "", err
	}
	ids, err = thin(ctx, p, adms, keepShare(reqs.rng, len(adms), residentShare))
	return ids, len(adms), dig, err
}

func measureFleetResident(ctx context.Context, r *run) error {
	pf, setupS, err := repeatSetup(r.ref, r.opt.Setups,
		func() (*packedFleet, error) { return startResident(ctx, r.opt.Seed, nil) },
		func(*packedFleet) error { return nil })
	if err != nil {
		return err
	}
	c := newCaller(clusterPlacer{pf.cl}, r.opt.Seed, 1, pf.spec.sizes, pf.ids)
	w := serve(ctx, c, r.ref, r.opt.warmup(), r.opt.window(), nil)
	r.reportWindow(w, setupS, heapLiveMB(), pf.filled)
	r.rep.Notes["pack_digest"] = pf.digest
	if got := pf.cl.Len(); got != len(pf.ids) {
		r.rep.problem("%d tenants resident after the window, want %d", got, len(pf.ids))
	}
	return pf.checkBooks()
}

// ---- fleet_manage ----

// managedFleet is a packed fleet with the log attached and one event
// subscriber draining the feed.
type managedFleet struct {
	*durable
	mods   models
	ids    []int
	filled int
	digest string

	sub    *fleet.Subscription
	subWG  sync.WaitGroup
	frames atomic.Int64
}

// eventRing is the subscriber's ring in the in-process workloads. On one
// processor the drainer runs when the scheduler preempts the admitter,
// every 10–20 ms; the ring holds several times what the fleet publishes
// meanwhile, so a dropped frame still means a stuck drainer.
const eventRing = 1 << 13

func startManaged(ctx context.Context, seed uint64, policy wal.FsyncPolicy, sm seams) (*managedFleet, error) {
	mods, err := trainModels(ctx, manageFleet.sizes)
	if err != nil {
		return nil, err
	}
	du, err := buildDurable(ctx, manageFleet, mods, policy, sm)
	if err != nil {
		return nil, err
	}
	mf := &managedFleet{durable: du, mods: mods, sub: du.cl.Subscribe(eventRing)}
	mf.subWG.Add(1)
	go func() {
		defer mf.subWG.Done()
		buf := make([]fleet.Event, 64)
		for mf.sub.Wait(context.Background()) == nil {
			n, _ := mf.sub.Drain(buf)
			mf.frames.Add(int64(n))
		}
	}()
	mf.ids, mf.filled, mf.digest, err = packResident(ctx, du.testFleet, seed)
	if err != nil {
		mf.stop()
		return nil, err
	}
	return mf, nil
}

// unsubscribe closes the event subscription and waits for its drainer.
func (mf *managedFleet) unsubscribe() {
	mf.sub.Close()
	mf.subWG.Wait()
}

func (mf *managedFleet) stop() error {
	mf.unsubscribe()
	return mf.durable.stop()
}

func measureFleetManage(ctx context.Context, r *run) error {
	mf, setupS, err := repeatSetup(r.ref, r.opt.Setups,
		func() (*managedFleet, error) { return startManaged(ctx, r.opt.Seed, wal.FsyncInterval, seams{}) },
		(*managedFleet).stop)
	if err != nil {
		return err
	}
	defer mf.stop()

	admitter := newCaller(clusterPlacer{mf.cl}, r.opt.Seed, 1, mf.spec.sizes, mf.ids)
	op := newOperator(mf.testFleet, nil)
	pc := newPace()
	admitter.onCycle = pc.admitted
	octx, stopOperator := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		pc.operate(octx, op)
	}()
	w := serve(ctx, admitter, r.ref, r.opt.warmup(), r.opt.window(), func() { pc.settle(ctx) })
	stopOperator()
	<-done
	op.settle(ctx)

	r.reportWindow(w, setupS, heapLiveMB(), mf.filled)
	r.reportOperator(op)
	r.rep.Notes["pack_digest"] = mf.digest
	r.rep.extra("events_dropped", "count", float64(mf.sub.Dropped()))
	if got := mf.cl.Len(); got != len(mf.ids) {
		r.rep.problem("%d tenants resident after the window, want %d", got, len(mf.ids))
	}
	return mf.checkBooks()
}

// reportOperator adds the operator's side: its reads and passes are
// measured beside the admissions but only fleet_manage has them, so they
// ride as ungated extras (the traced pass reports them per layer too).
func (r *run) reportOperator(op *operator) {
	r.rep.extra("read_p50_us", "us", median(op.samples["assignments"]))
	r.rep.extra("rebalance_p50_us", "us", median(op.samples["rebalance"]))
	for _, name := range sortedKeys(op.samples) {
		r.rep.extra("operator."+name+".count", "count", float64(len(op.samples[name])))
	}
	r.rep.Result.Attempted += op.ops
	r.rep.Result.Failed += op.fails
	if op.firstErr != nil {
		r.rep.problem("first failed operator call: %v", op.firstErr)
	}
}

// ---- restart_replay ----

// The reference log: the fleet_manage fleet driven serially through
// replayBefore cycles, a Checkpoint, and replayAfter more, the operator's
// mix inline throughout — so a restart decodes a snapshot and replays a
// tail holding every record type the fleet writes.
const (
	replayBefore = 10000
	replayAfter  = 20000
)

// replayEnv is a closed reference log plus the live fleet that wrote it.
type replayEnv struct {
	live   *managedFleet
	filled int
	digest string
}

// serialTrace drives cycles place+release cycles through the admitter with
// the operator's ticks inline.
func serialTrace(ctx context.Context, admitter *caller, op *operator, from, cycles int) error {
	count := func() int { return admitter.cycles }
	for n := from; n < from+cycles; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, _, ok := admitter.cycle(ctx); !ok {
			continue
		}
		n++
		if n%tickAdmissions == 0 {
			op.tick(ctx, n/tickAdmissions, count)
		}
	}
	if admitter.firstErr != nil {
		return admitter.firstErr
	}
	return op.firstErr
}

func startReplay(ctx context.Context, seed uint64) (*replayEnv, error) {
	mf, err := startManaged(ctx, seed, wal.FsyncNone, seams{})
	if err != nil {
		return nil, err
	}
	env := &replayEnv{live: mf, filled: mf.filled, digest: mf.digest}
	admitter := newCaller(clusterPlacer{mf.cl}, seed, 1, mf.spec.sizes, mf.ids)
	op := newOperator(mf.testFleet, nil)
	err = serialTrace(ctx, admitter, op, 0, replayBefore)
	if err == nil {
		_, err = mf.cl.Fleet().Checkpoint()
	}
	if err == nil {
		err = serialTrace(ctx, admitter, op, replayBefore, replayAfter)
	}
	if err == nil {
		op.settle(ctx)
		err = op.firstErr
	}
	if err == nil {
		err = mf.checkBooks()
	}
	if err == nil {
		mf.unsubscribe()
		err = mf.log.Close() // the directory stays: restarts replay it
	}
	if err != nil {
		mf.stop()
		return nil, fmt.Errorf("writing the reference log: %w", err)
	}
	return env, nil
}

func (e *replayEnv) stop() error { return os.RemoveAll(e.live.dir) }

// restart is one cold restart: fresh engines (built by the caller, outside
// the timer), then wal.Open + Fleet.Restore timed, then the restored
// fleet checked against the live one.
func (e *replayEnv) restart(ctx context.Context, tf *testFleet, t *tracer) (d time.Duration, records int, err error) {
	root := t.begin("restart.total", -1)
	t0 := time.Now()
	i := t.begin("wal.open", -1)
	l, st, recs, err := wal.Open(wal.Options{Dir: e.live.dir, Fsync: wal.FsyncNone})
	t.end(i, "")
	if err != nil {
		t.end(root, "")
		return 0, 0, err
	}
	defer l.Close()
	i = t.begin("fleet.restore", -1)
	err = tf.cl.Fleet().Restore(ctx, st, recs, workloads.ByName)
	t.end(i, "")
	d = time.Since(t0)
	t.end(root, "")
	if err != nil {
		return d, len(recs), err
	}
	if diff := sameState(e.live.cl, tf.cl); diff != "" {
		return d, len(recs), fmt.Errorf("restored fleet differs from the live one: %s", diff)
	}
	return d, len(recs), nil
}

func measureRestartReplay(ctx context.Context, r *run) error {
	e, setupS, err := repeatSetup(r.ref, r.opt.Setups,
		func() (*replayEnv, error) { return startReplay(ctx, r.opt.Seed) },
		(*replayEnv).stop)
	if err != nil {
		return err
	}
	defer e.stop()

	// Per restart, at speed 1: its time in µs, records replayed per second
	// and CPU µs per record.
	var times, rates, cpus, speeds, rawTimes []float64
	var alloc uint64
	records := 0
	stop := time.Now().Add(r.opt.warmup() + r.opt.window())
	before := r.ref.speed(setupSpeedProbe)
	// However short the window, three restarts are timed: percentiles of
	// fewer mean nothing.
	for first := true; first || len(times) < 3 || time.Now().Before(stop); first = false {
		if ctx.Err() != nil {
			break
		}
		tf, err := buildFleet(ctx, manageFleet, e.live.mods, nil)
		if err != nil {
			return err
		}
		cpu0, alloc0 := cpuTime(), totalAlloc()
		d, n, err := e.restart(ctx, tf, nil)
		cpu1, alloc1 := cpuTime(), totalAlloc()
		after := r.ref.speed(setupSpeedProbe)
		speed := (before + after) / 2
		before = after
		r.rep.Result.Attempted++
		if err != nil {
			return err
		}
		if first || n == 0 {
			continue // page cache and allocator warm-up, like the serving windows' lead-in
		}
		us := float64(d) / 1e3
		speeds = append(speeds, speed)
		rawTimes = append(rawTimes, us)
		times = append(times, us*speed)
		rates = append(rates, float64(n)/d.Seconds()/speed)
		cpus = append(cpus, float64((cpu1-cpu0).Microseconds())/float64(n)*speed)
		alloc += alloc1 - alloc0
		records += n
	}
	if len(times) == 0 {
		return fmt.Errorf("no restart replayed a record in the window")
	}
	sort.Float64s(times)
	r.rep.set("setup_s", setupS)
	r.rep.set("throughput_per_s", median(rates))
	r.rep.set("latency_p50_us", quantile(times, 0.5))
	r.rep.set("latency_tail_us", quantile(times, 0.9))
	r.rep.set("cpu_us_per_op", median(cpus))
	r.rep.set("alloc_bytes_per_op", float64(alloc)/float64(records))
	r.rep.set("heap_live_mb", heapLiveMB())
	r.rep.extra("machine_speed", "share", median(speeds))
	r.rep.extra("fill_tenants", "count", float64(e.filled))
	r.rep.extra("raw_restart_ms", "ms", median(rawTimes)/1e3)
	r.rep.extra("restarts", "count", float64(len(times)))
	r.rep.extra("records_per_restart", "count", float64(records/len(times)))
	r.rep.Notes["pack_digest"] = e.digest
	return nil
}
