package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	numaplace "repro"
	"repro/internal/fleet"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced pass is serial and fixed-count, so spans nest by containment
// and every count repeats exactly. Counts scale with -seconds so that
// shortening the windows shortens the pass with them: at the issue's 30 s
// they are 20 000 cycles (wire_churn, fleet_resident), 50 000 admissions
// (fleet_manage) and 3 restarts.
const (
	tracedCyclesPerSecond     = 20000.0 / 30
	tracedAdmissionsPerSecond = 50000.0 / 30
	tracedRestarts            = 3
	handlerProbeCycles        = 2000
	predictProbeCalls         = 100000
	fsyncProbeCommits         = 2000
)

func (o Options) tracedCycles(perSecond float64) int {
	n := int(perSecond * o.Seconds)
	if n < 100 {
		n = 100
	}
	return n
}

// tracedSeams interposes the tracer at every seam a fleet has.
func tracedSeams(t *tracer, tp **tracedPersister) seams {
	return seams{
		backend: func(b fleet.Backend) fleet.Backend { return tracedBackend{b: b, t: t} },
		persister: func(p fleet.Persister, dir string) fleet.Persister {
			*tp = newTracedPersister(p, t, dir)
			return *tp
		},
		handler: func(h http.Handler) http.Handler { return tracedHandler{h: h, t: t} },
	}
}

// serialPass drives n place+release cycles through one caller, the
// operator's ticks inline when op is set, and returns the elapsed time. A
// quarter as many cycles run first with recording off: like the measured
// windows' lead-in, they let the engines' caches fill, so the spans show
// the steady state the end-to-end numbers describe. ready, when set, runs
// between the two (the place to snapshot counters).
func serialPass(ctx context.Context, c *caller, op *operator, n int, ready func()) (time.Duration, error) {
	t := c.t
	c.t = nil
	for c.cycles < n/4 && c.firstErr == nil && ctx.Err() == nil {
		c.cycle(ctx)
	}
	c.t, c.cycles = t, 0
	if ready != nil {
		ready()
	}
	t.enable(true)
	t0 := time.Now()
	err := c.firstErr
	if op != nil && err == nil {
		err = serialTrace(ctx, c, op, 0, n)
	}
	for op == nil && c.cycles < n && err == nil {
		if err = ctx.Err(); err == nil {
			c.cycle(ctx)
			err = c.firstErr
		}
	}
	return time.Since(t0), err
}

// engineHits sums the engines' cache counters.
func engineHits(engines []*numaplace.Engine) (st numaplace.EngineStats) {
	for _, e := range engines {
		s := e.Stats()
		st.Enumerations += s.Enumerations
		st.PlacementHits += s.PlacementHits
		st.PinRuns += s.PinRuns
		st.PinHits += s.PinHits
	}
	return st
}

func share(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// layerMetrics fills the per-layer metrics every serving pass shares from
// its span summary. root is the caller-side layer ("client" or "fleet").
func (r *run) layerMetrics(sum *traceSummary, root string, cycles int, before, after numaplace.EngineStats) {
	rep := r.rep
	rep.set("caller.place.total_us", sum.totalP50(root+".place"))
	rep.set("caller.release.total_us", sum.totalP50(root+".release"))
	for _, name := range []string{"engine.preview", "engine.place", "engine.release", "engine.rebalance",
		"wal.append", "wal.commit", "wal.snapshot",
		"fleet.stats", "fleet.assignments", "fleet.rebalance", "fleet.drain", "fleet.fail", "fleet.revive", "fleet.checkpoint"} {
		rep.set(name+".total_us", sum.totalP50(name))
	}
	rep.set("engine.place.reject_us", sum.totalP50("engine.place.reject"))
	admits, rejects := sum.count("engine.place"), sum.count("engine.place.reject")
	places := sum.count(root + ".place")
	if admits+rejects > 0 {
		rep.set("engine.place.reject_share", float64(rejects)/float64(admits+rejects))
		rep.set("fleet.place.try_success_share", float64(admits)/float64(admits+rejects))
	}
	if places > 0 {
		// Operator passes preview and place too (moves); they are a small,
		// fixed share of the pass and are counted where they happen.
		rep.set("fleet.place.preview_calls", float64(sum.count("engine.preview"))/float64(places))
		rep.set("fleet.place.backend_tries", float64(admits+rejects)/float64(places))
		rep.set("fleet.place.reject_share", float64(places-cycles)/float64(places))
	}
	if cycles > 0 {
		rep.set("wal.commits_per_place", float64(sum.count("wal.commit"))/float64(cycles))
		rep.set("wal.records_per_place", float64(sum.count("wal.append"))/float64(cycles))
	}
	rep.set("engine.pin.hit_share", share(after.PinHits-before.PinHits, after.PinRuns-before.PinRuns))
	rep.set("engine.placements.hit_share",
		share(after.PlacementHits-before.PlacementHits, after.Enumerations-before.Enumerations))
	rep.set("trace.reconcile_share", sum.reconcile(root+".place"))
}

// walMetrics fills what the persister wrapper measured.
func (r *run) walMetrics(tp *tracedPersister) {
	tp.settle()
	if tp.records > 0 {
		r.rep.set("wal.bytes_per_record", float64(tp.logBytes)/float64(tp.records))
	}
	r.rep.set("wal.snapshot.bytes", float64(tp.snapSize))
}

// minReconcileOps is the least number of traced ops whose medians are
// settled enough to hold to the reconciliation range (the smoke test's
// 100-op pass is not).
const minReconcileOps = 2000

// checkReconcile enforces the instrument's own health: the layers' median
// self times must add up to the caller-side median. Medians are not
// additive under skew — fleet_manage's engine admission is bimodal (cache
// hit or table rebuild) and reads 0.90–0.98 — so the enforced range is a
// little wider than the [0.9, 1.1] the numbers are expected in.
func (r *run) checkReconcile(ops int) {
	if v := r.rep.Result.Metrics["trace.reconcile_share"].Value; ops >= minReconcileOps && (v < 0.85 || v > 1.15) {
		r.rep.problem("trace.reconcile_share %.3f: layer self times do not add up to the caller-side median", v)
	}
}

// finishTrace summarizes the pass, writes the trace file and returns the
// summary.
func (r *run) finishTrace(t *tracer) (*traceSummary, error) {
	t.enable(false)
	sum, err := t.summarize()
	if err != nil {
		return nil, err
	}
	if r.opt.OutDir != "" {
		if err := t.write(r.opt.OutDir, r.opt.Workload, r.opt.Seed, sum); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
	}
	return sum, nil
}

// predictProbe times Engine.PredictInto directly: the model inference at
// the bottom of every preview, too fast for a span to resolve.
func predictProbe(ctx context.Context, eng *numaplace.Engine, vcpus int) (float64, error) {
	imps, err := eng.Placements(ctx, vcpus)
	if err != nil {
		return 0, err
	}
	dst := make([]float64, len(imps))
	t0 := time.Now()
	for i := 0; i < predictProbeCalls; i++ {
		// Vary the input so successive calls do not hit one table cell.
		if err := eng.PredictInto(dst, vcpus, 1000, 700+float64(i%512)); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / predictProbeCalls, nil
}

// settleFrames waits for the asynchronous event feed to go quiet and
// returns the frames seen.
func settleFrames(frames func() int64) int64 {
	prev := frames()
	for i := 0; i < 100; i++ {
		time.Sleep(20 * time.Millisecond)
		cur := frames()
		if cur == prev {
			break
		}
		prev = cur
	}
	return prev
}

// ---- wire_churn ----

func traceWireChurn(ctx context.Context, r *run) error {
	n := r.opt.tracedCycles(tracedCyclesPerSecond)
	t := newTracer()
	var tp *tracedPersister
	e, err := startWire(ctx, r.opt.Seed, tracedSeams(t, &tp), t)
	if err != nil {
		return err
	}
	defer e.stop()
	c := newCaller(wirePlacer{e.c}, r.opt.Seed, 1, daemonFleet.sizes, nil)
	c.t, c.layer, c.dig = t, "client", newDigest()
	resident := e.d.cl.Len()
	var before numaplace.EngineStats
	var frames0, bytes0 int64
	traced, err := serialPass(ctx, c, nil, n, func() {
		before = engineHits(e.d.engines)
		frames0, bytes0 = settleFrames(e.frames.Load), e.dialer.bytes.Load()
		tp.reset()
	})
	if err != nil {
		return err
	}
	sum, err := r.finishTrace(t)
	if err != nil {
		return err
	}
	frames := settleFrames(e.frames.Load) - frames0
	r.layerMetrics(sum, "client", c.cycles, before, engineHits(e.d.engines))
	r.walMetrics(tp)
	r.rep.set("fleet.fill_tenants", float64(e.filled))
	r.rep.set("fleet.resident_tenants", float64(resident))
	r.rep.set("events.frames_per_place", float64(frames)/float64(c.cycles))
	r.rep.set("events.dropped", float64(e.drops.Load()))
	r.rep.set("transport.conns_dialed", float64(e.dialer.dialed.Load()))
	r.rep.set("transport.bytes_per_place", float64(e.dialer.bytes.Load()-bytes0)/float64(c.cycles))
	if got := e.dialer.dialed.Load(); got != 2 {
		r.rep.problem("client dialed %d connections, want 2 (the serial caller plus the event stream)", got)
	}
	if err := e.d.checkBooks(); err != nil {
		return err
	}

	// The same sequence replayed at the Fleet.Place entry: the fleet's own
	// self time for the same decisions, which the handler span cannot
	// separate from the wire's, and a check that both paths decide alike.
	t2 := newTracer()
	var tp2 *tracedPersister
	sm := tracedSeams(t2, &tp2)
	sm.handler = nil
	mods, err := trainModels(ctx, daemonFleet.sizes)
	if err != nil {
		return err
	}
	du, err := buildDurable(ctx, daemonFleet, mods, wal.FsyncInterval, sm)
	if err != nil {
		return err
	}
	defer du.stop()
	_, dig, err := packPinned(ctx, clusterPlacer{du.cl}, r.opt.Seed)
	if err != nil {
		return err
	}
	if dig != e.digest {
		r.rep.problem("pack decisions differ between the wire (%s) and the fleet entry (%s)", e.digest, dig)
	}
	c2 := newCaller(clusterPlacer{du.cl}, r.opt.Seed, 1, daemonFleet.sizes, nil)
	c2.t, c2.layer, c2.dig = t2, "fleet", newDigest()
	if _, err := serialPass(ctx, c2, nil, n, nil); err != nil {
		return err
	}
	t2.enable(false)
	sum2, err := t2.summarize()
	if err != nil {
		return err
	}
	if a, b := c.dig.String(), c2.dig.String(); a != b {
		r.rep.problem("pass decisions differ between the wire (%s) and the fleet entry (%s)", a, b)
	}
	r.rep.Notes["pass_digest"] = c.dig.String()
	r.rep.Notes["pack_digest"] = e.digest

	for _, op := range []string{"place", "release"} {
		fleetSelf := sum2.selfP50("fleet." + op)
		r.rep.set("fleet."+op+".self_us", fleetSelf)
		r.rep.set("wire."+op+".self_us", sum.selfP50("wire."+op)-fleetSelf)
		r.rep.set("client."+op+".self_us", sum.selfP50("client."+op))
		r.rep.set("transport."+op+".self_us", sum.selfP50("transport."+op))
	}

	// The untraced twin of the pass gives the tracing overhead; its daemon
	// then serves the handler probe.
	plain, err := startWire(ctx, r.opt.Seed, seams{}, nil)
	if err != nil {
		return err
	}
	defer plain.stop()
	c3 := newCaller(wirePlacer{plain.c}, r.opt.Seed, 1, daemonFleet.sizes, nil)
	untraced, err := serialPass(ctx, c3, nil, n, nil)
	if err != nil {
		return err
	}
	r.rep.set("trace.overhead_share", (traced-untraced).Seconds()/untraced.Seconds())
	us, err := handlerProbe(plain.d.ws)
	if err != nil {
		return err
	}
	r.rep.set("wire.handler.place.total_us", us)
	ns, err := predictProbe(ctx, plain.d.engines[0], daemonFleet.sizes[0])
	if err != nil {
		return err
	}
	r.rep.set("engine.predict.ns", ns)
	r.rep.Result.Attempted += 2 * (c.cycles + c2.cycles + c3.cycles)
	r.checkReconcile(c.cycles)
	return nil
}

// memWriter is an in-memory http.ResponseWriter.
type memWriter struct {
	h    http.Header
	buf  bytes.Buffer
	code int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }

// handlerProbe times the wire layer alone: ServeHTTP for one placement on
// an in-memory ResponseWriter, no client, no socket (median µs).
func handlerProbe(ws *wire.Server) (float64, error) {
	times := make([]float64, 0, handlerProbeCycles)
	w := &memWriter{h: http.Header{}}
	call := func(path, body string) (time.Duration, error) {
		req, err := http.NewRequest(http.MethodPost, path, strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		w.buf.Reset()
		w.code = http.StatusOK
		t0 := time.Now()
		ws.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.code != http.StatusOK {
			return d, fmt.Errorf("handler probe: %s answered %d: %s", path, w.code, w.buf.String())
		}
		return d, nil
	}
	for i := 0; i < handlerProbeCycles; i++ {
		d, err := call("/v1/place", `{"workload":"gcc","vcpus":16}`)
		if err != nil {
			return 0, err
		}
		times = append(times, float64(d)/1e3)
		var resp wire.PlaceResponse
		if err := json.Unmarshal(w.buf.Bytes(), &resp); err != nil {
			return 0, fmt.Errorf("handler probe: decoding the place response: %w", err)
		}
		if _, err := call("/v1/release", fmt.Sprintf(`{"id":%d}`, resp.ID)); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// ---- fleet_resident ----

func traceFleetResident(ctx context.Context, r *run) error {
	n := r.opt.tracedCycles(tracedCyclesPerSecond)
	var before numaplace.EngineStats
	pass := func(t *tracer) (*packedFleet, *caller, time.Duration, error) {
		var wrap func(fleet.Backend) fleet.Backend
		if t != nil {
			wrap = func(b fleet.Backend) fleet.Backend { return tracedBackend{b: b, t: t} }
		}
		pf, err := startResident(ctx, r.opt.Seed, wrap)
		if err != nil {
			return nil, nil, 0, err
		}
		c := newCaller(clusterPlacer{pf.cl}, r.opt.Seed, 1, pf.spec.sizes, pf.ids)
		c.t, c.layer, c.dig = t, "fleet", newDigest()
		d, err := serialPass(ctx, c, nil, n, func() { before = engineHits(pf.engines) })
		return pf, c, d, err
	}
	t := newTracer()
	pf, c, traced, err := pass(t)
	if err != nil {
		return err
	}
	sum, err := r.finishTrace(t)
	if err != nil {
		return err
	}
	r.layerMetrics(sum, "fleet", c.cycles, before, engineHits(pf.engines))
	r.rep.set("fleet.place.self_us", sum.selfP50("fleet.place"))
	r.rep.set("fleet.release.self_us", sum.selfP50("fleet.release"))
	r.rep.set("fleet.fill_tenants", float64(pf.filled))
	r.rep.set("fleet.resident_tenants", float64(len(pf.ids)))
	if err := pf.checkBooks(); err != nil {
		return err
	}
	plainPF, c2, untraced, err := pass(nil)
	if err != nil {
		return err
	}
	r.compareTwin(c, c2, pf.digest, traced, untraced)
	ns, err := predictProbe(ctx, plainPF.engines[0], 16)
	if err != nil {
		return err
	}
	r.rep.set("engine.predict.ns", ns)
	r.rep.Result.Attempted += 2 * (c.cycles + c2.cycles)
	r.checkReconcile(c.cycles)
	return nil
}

// compareTwin holds a traced pass against its untraced twin: the
// decisions must match, and the elapsed-time difference is the tracing
// overhead.
func (r *run) compareTwin(traced, plain *caller, packDigest string, tracedFor, plainFor time.Duration) {
	if a, b := traced.dig.String(), plain.dig.String(); a != b {
		r.rep.problem("decisions differ with (%s) and without (%s) the tracing wrappers", a, b)
	}
	r.rep.Notes["pass_digest"] = traced.dig.String()
	r.rep.Notes["pack_digest"] = packDigest
	r.rep.set("trace.overhead_share", (tracedFor-plainFor).Seconds()/plainFor.Seconds())
}

// ---- fleet_manage ----

func traceFleetManage(ctx context.Context, r *run) error {
	n := r.opt.tracedCycles(tracedAdmissionsPerSecond)
	pass := func(t *tracer, sm seams, ready func(*managedFleet)) (*managedFleet, *caller, *operator, time.Duration, error) {
		mf, err := startManaged(ctx, r.opt.Seed, wal.FsyncInterval, sm)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		c := newCaller(clusterPlacer{mf.cl}, r.opt.Seed, 1, mf.spec.sizes, mf.ids)
		c.t, c.layer, c.dig = t, "fleet", newDigest()
		op := newOperator(mf.testFleet, t)
		d, err := serialPass(ctx, c, op, n, func() { ready(mf) })
		if err == nil {
			op.settle(ctx)
			if len(op.samples["checkpoint"]) == 0 {
				// A pass too short for the mix's checkpoint still ends
				// with one, so the snapshot path always has a number.
				op.timed("checkpoint", func() error { _, err := mf.cl.Fleet().Checkpoint(); return err })
			}
			err = op.firstErr
		}
		return mf, c, op, d, err
	}
	t := newTracer()
	var tp *tracedPersister
	sm := tracedSeams(t, &tp)
	sm.handler = nil
	var before numaplace.EngineStats
	var frames0 int64
	mf, c, op, traced, err := pass(t, sm, func(mf *managedFleet) {
		before = engineHits(mf.engines)
		frames0 = settleFrames(mf.frames.Load)
		tp.reset()
	})
	if mf != nil {
		defer mf.stop()
	}
	if err != nil {
		return err
	}
	sum, err := r.finishTrace(t)
	if err != nil {
		return err
	}
	frames := settleFrames(mf.frames.Load) - frames0
	r.layerMetrics(sum, "fleet", c.cycles, before, engineHits(mf.engines))
	r.walMetrics(tp)
	r.rep.set("fleet.place.self_us", sum.selfP50("fleet.place"))
	r.rep.set("fleet.release.self_us", sum.selfP50("fleet.release"))
	r.rep.set("fleet.fill_tenants", float64(mf.filled))
	r.rep.set("fleet.resident_tenants", float64(len(mf.ids)))
	r.rep.set("fleet.rebalance.moves_per_pass", mean(op.moves))
	r.rep.set("events.frames_per_place", float64(frames)/float64(c.cycles))
	r.rep.set("events.dropped", float64(mf.sub.Dropped()))
	if err := mf.checkBooks(); err != nil {
		return err
	}

	plain, c2, op2, untraced, err := pass(nil, seams{}, func(*managedFleet) {})
	if plain != nil {
		defer plain.stop()
	}
	if err != nil {
		return err
	}
	r.compareTwin(c, c2, mf.digest, traced, untraced)
	ns, err := predictProbe(ctx, plain.engines[0], 16)
	if err != nil {
		return err
	}
	r.rep.set("engine.predict.ns", ns)
	us, err := fsyncProbe()
	if err != nil {
		return err
	}
	r.rep.set("wal.fsync_always.commit_us", us)
	r.rep.Result.Attempted += 2*(c.cycles+c2.cycles) + op.ops + op2.ops
	r.checkReconcile(c.cycles)
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// fsyncProbe times Append+Commit under fsync=always on a scratch log
// (median µs). It measures the sandbox's disk, not the program, which is
// why fsync=always is not an end-to-end workload.
func fsyncProbe() (float64, error) {
	dir, err := os.MkdirTemp("", "numabench-fsync-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, _, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Fsync: wal.FsyncAlways})
	if err != nil {
		return 0, err
	}
	defer l.Close()
	times := make([]float64, 0, fsyncProbeCommits)
	for seq := uint64(1); seq <= fsyncProbeCommits; seq++ {
		t0 := time.Now()
		l.Append(fleet.Record{Seq: seq, Type: fleet.RecRelease, ID: int(seq), Backend: "amd-0", Workload: "gcc", VCPUs: 16})
		if err := l.Commit(seq); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(t0))/1e3)
	}
	return median(times), nil
}

// ---- restart_replay ----

func traceRestartReplay(ctx context.Context, r *run) error {
	e, err := startReplay(ctx, r.opt.Seed)
	if err != nil {
		return err
	}
	defer e.stop()
	t := newTracer()
	restarts := func(t *tracer) ([]float64, int, error) {
		var wrap func(fleet.Backend) fleet.Backend
		if t != nil {
			wrap = func(b fleet.Backend) fleet.Backend { return tracedBackend{b: b, t: t} }
		}
		var times []float64
		records := 0
		for i := 0; i < tracedRestarts; i++ {
			tf, err := buildFleet(ctx, manageFleet, e.live.mods, wrap)
			if err != nil {
				return nil, 0, err
			}
			t.nextOp()
			t.enable(true)
			d, n, err := e.restart(ctx, tf, t)
			t.enable(false)
			if err != nil {
				return nil, 0, err
			}
			times = append(times, float64(d)/1e3)
			records = n
		}
		return times, records, nil
	}
	traced, records, err := restarts(t)
	if err != nil {
		return err
	}
	sum, err := r.finishTrace(t)
	if err != nil {
		return err
	}
	untraced, _, err := restarts(nil)
	if err != nil {
		return err
	}
	r.rep.set("wal.open.total_ms", sum.totalP50("wal.open")/1e3)
	r.rep.set("fleet.restore.total_ms", sum.totalP50("fleet.restore")/1e3)
	r.rep.set("wal.replay.records", float64(records))
	r.rep.set("fleet.restore.adopt_calls", float64(sum.count("engine.adopt"))/tracedRestarts)
	r.rep.set("engine.adopt.total_us", sum.totalP50("engine.adopt"))
	r.rep.set("engine.release.total_us", sum.totalP50("engine.release"))
	r.rep.set("fleet.fill_tenants", float64(e.filled))
	r.rep.set("fleet.resident_tenants", float64(e.live.cl.Len()))
	r.rep.set("trace.overhead_share", (median(traced)-median(untraced))/median(untraced))
	r.rep.set("trace.reconcile_share", sum.reconcile("restart.total"))
	r.rep.Notes["pack_digest"] = e.digest
	r.rep.Result.Attempted += 2 * tracedRestarts
	r.checkReconcile(minReconcileOps) // one restart's spans partition it exactly
	return nil
}
