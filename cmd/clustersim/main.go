//go:build unix

// Command clustersim drives a trace of multi-tenant churn — deterministic
// Poisson-ish container arrivals and departures — over a cluster of
// heterogeneous machines served by numaplace.Cluster, on the same
// discrete-event kernel the migration simulator uses. It is the fleet
// layer's scenario driver: per-machine figures show one box; clustersim
// shows a datacenter slice packing hundreds of containers across boxes
// under a routing policy, with periodic budgeted rebalancing.
//
// The trace and every scheduling decision derive from the -seed, so
// standard output is byte-identical across runs and GOMAXPROCS settings.
// Wall-clock admission latencies (the only nondeterministic measurements)
// go to standard error.
//
// Failure scenarios inject machine trouble at fixed simulated times and
// exercise the cluster's health tracking: a crashed machine stops
// answering probes, rides healthy→suspect→dead, and its tenants fail
// over automatically; a slow machine oscillates between healthy and
// suspect without dying; a partitioned machine dies and later rejoins,
// fencing the records that were failed over in its absence. Every
// scenario's transitions, failover reports and final accounting are part
// of the deterministic standard output.
//
// The restart scenario exercises the durability layer end to end inside
// the simulation: the control plane logs every mutation to a write-ahead
// log, "crashes" at sim time t (the cluster object and its engines are
// discarded), rebuilds the engines from the machine models it trained, and
// recovers the fleet by replaying the log as numaplaced boots. The recovered state must be
// byte-identical to the pre-crash state — the simulator verifies it and
// the report says so deterministically.
//
// Usage:
//
//	clustersim -machines amd,intel -policy best-predicted -n 240 -seed 1
//	clustersim -quick            # smaller training budget, CI smoke
//	clustersim -quick -crash amd-0@600          # kill amd-0 at t=600s
//	clustersim -quick -slow intel-1@300         # flaky probes from t=300s
//	clustersim -quick -partition amd-0@400:900  # unreachable in [400,900)
//	clustersim -quick -restart 800              # crash+recover control plane at t=800s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/des"
	"repro/internal/recipe"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// Scenario is one clustersim run: the fleet, the churn trace, the routing
// policy and the faults injected into it. Each field is one flag's value.
type Scenario struct {
	machines []string
	policy   numaplace.ClusterPolicy
	n        int // total container arrivals
	vcpus    int
	seed     uint64

	meanArrival    float64 // mean inter-arrival time, sim seconds
	meanLife       float64 // mean container lifetime, sim seconds
	rebalanceEvery float64 // rebalance tick period, sim seconds
	budget         float64 // migration-seconds budget per rebalance pass
	drainBelow     float64 // consolidation threshold (fleet.Config.DrainBelow)

	probeEvery float64     // health probe period, sim seconds (0 disables)
	crash      []eventSpec // machines that stop answering probes at t
	slow       []eventSpec // machines answering every 3rd probe from t
	partition  []spanSpec  // machines unreachable in [from, to)
	restart    []float64   // control-plane crash+recover times
	spread     bool        // spread workload replicas across racks

	quick bool // train at the recipe's reduced fidelity
}

// eventSpec is one "machine@t" scenario entry; spanSpec one "machine@t1:t2".
type eventSpec struct {
	name string
	at   float64
}

type spanSpec struct {
	name     string
	from, to float64
}

// parseList parses a comma-separated list with parse; "" is the empty list.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseEvent parses one machine@t spec.
func parseEvent(s string) (eventSpec, error) {
	name, ts, ok := strings.Cut(s, "@")
	at, err := strconv.ParseFloat(ts, 64)
	if !ok || name == "" || err != nil {
		return eventSpec{}, errors.New("want machine@t")
	}
	return eventSpec{name: name, at: at}, nil
}

// parseSpan parses one machine@t1:t2 spec.
func parseSpan(s string) (spanSpec, error) {
	head, ts, ok := strings.Cut(s, ":")
	from, err1 := parseEvent(head)
	to, err2 := strconv.ParseFloat(ts, 64)
	if !ok || err1 != nil || err2 != nil {
		return spanSpec{}, errors.New("want machine@t1:t2")
	}
	return spanSpec{name: from.name, from: from.at, to: to}, nil
}

// parseFlags parses clustersim's command line into a validated Scenario. It
// reports each refusal on standard error itself, as the flag package does
// its own, so its caller only picks the exit status.
func parseFlags(args []string) (Scenario, error) {
	var sc Scenario
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	machines := fs.String("machines", "amd,intel", "comma-separated machine models forming the fleet")
	policy := fs.String("policy", "best-predicted", "routing policy: first-fit, least-loaded or best-predicted")
	fs.IntVar(&sc.n, "n", 240, "number of container arrivals in the trace")
	fs.IntVar(&sc.vcpus, "vcpus", 16, "vCPUs per container")
	fs.Uint64Var(&sc.seed, "seed", 1, "trace seed (arrivals, workloads, lifetimes)")
	fs.Float64Var(&sc.meanArrival, "arrival", 15, "mean inter-arrival time in simulated seconds")
	fs.Float64Var(&sc.meanLife, "life", 90, "mean container lifetime in simulated seconds")
	fs.Float64Var(&sc.rebalanceEvery, "rebalance", 120, "rebalance tick period in simulated seconds (0 disables)")
	fs.Float64Var(&sc.budget, "budget", 60, "migration-seconds budget per rebalance pass")
	fs.Float64Var(&sc.drainBelow, "drain-below", 0.5, "consolidate machines below this utilization during rebalance")
	fs.Float64Var(&sc.probeEvery, "probe-every", 10, "health probe period in simulated seconds (0 disables probing, and with it -crash, -slow and -partition)")
	fs.Func("crash", "crash scenario: machine@t[,...] — stops answering probes at sim time t, never recovers",
		func(s string) (err error) { sc.crash, err = parseList(s, parseEvent); return err })
	fs.Func("slow", "slow-node scenario: machine@t[,...] — answers only every third probe from sim time t",
		func(s string) (err error) { sc.slow, err = parseList(s, parseEvent); return err })
	fs.Func("partition", "partition scenario: machine@t1:t2[,...] — unreachable in [t1,t2), then rejoins",
		func(s string) (err error) { sc.partition, err = parseList(s, parseSpan); return err })
	fs.Func("restart", "restart scenario: t[,...] — crash the control plane at sim time t and recover it from its write-ahead log",
		func(s string) (err error) {
			sc.restart, err = parseList(s, func(t string) (float64, error) { return strconv.ParseFloat(t, 64) })
			return err
		})
	fs.BoolVar(&sc.spread, "spread", false, "spread replicas of a workload across failure domains (racks)")
	fs.BoolVar(&sc.quick, "quick", false, "reduced training fidelity and a 200-container trace (CI smoke)")
	if err := fs.Parse(args); err != nil {
		return sc, err
	}
	sc.machines = strings.Split(*machines, ",")
	nGiven := false
	fs.Visit(func(f *flag.Flag) { nGiven = nGiven || f.Name == "n" })
	if sc.quick && !nGiven { // a 200-container trace, unless -n says otherwise
		sc.n = 200
	}
	var ok bool
	sc.policy, ok = numaplace.ClusterPolicyByName(*policy)
	err := sc.Validate()
	if !ok {
		err = fmt.Errorf("unknown policy %q", *policy)
	}
	if err != nil {
		fmt.Fprintln(fs.Output(), err)
	}
	return sc, err
}

func main() {
	sc, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, sc, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// Validate refuses a Scenario that would run some other trace than the one
// it describes, or none: an unknown machine model; a count, size or mean
// out of range; a number that is not finite (NaN passes every `<= 0` check
// and would run some other trace, or one that never ends); a restart at no
// positive time; an empty partition; and a fault that would do nothing —
// faults are probe answers, so they need probing on, and each must name a
// machine of the fleet. It reports every problem it finds.
func (sc Scenario) Validate() error {
	var errs []error
	check := func(bad bool, format string, args ...any) {
		if bad {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	finite := func(flag string, v float64) {
		check(math.IsNaN(v) || math.IsInf(v, 0), "-%s %g: want a finite number", flag, v)
	}
	finite("arrival", sc.meanArrival)
	finite("life", sc.meanLife)
	finite("rebalance", sc.rebalanceEvery)
	finite("budget", sc.budget)
	finite("drain-below", sc.drainBelow)
	finite("probe-every", sc.probeEvery)
	check(sc.n < 0 || sc.vcpus <= 0 || sc.meanArrival <= 0 || sc.meanLife <= 0,
		"-n must be non-negative; -vcpus, -arrival and -life positive")
	for _, m := range sc.machines {
		_, ok := numaplace.MachineByName(m)
		check(!ok, "-machines: unknown machine model %q", m)
	}
	names := recipe.Names(sc.machines)
	fault := func(flag, machine string, at ...float64) {
		check(!slices.Contains(names, machine), "-%s: unknown machine %q (have %s)", flag, machine, strings.Join(names, ", "))
		for _, t := range at {
			finite(flag, t)
		}
	}
	for _, c := range sc.crash {
		fault("crash", c.name, c.at)
	}
	for _, sl := range sc.slow {
		fault("slow", sl.name, sl.at)
	}
	for _, p := range sc.partition {
		fault("partition", p.name, p.from, p.to)
		check(p.to <= p.from, "-partition %s@%g:%g: want t1 < t2", p.name, p.from, p.to)
	}
	for _, at := range sc.restart {
		finite("restart", at)
		check(at <= 0, "-restart %g: want a positive sim time", at)
	}
	check(len(sc.crash)+len(sc.slow)+len(sc.partition) > 0 && sc.probeEvery <= 0,
		"-crash, -slow and -partition act on health probes: they need -probe-every > 0")
	return errors.Join(errs...)
}

// describe writes the report's header: the trace and each injected fault.
func (sc Scenario) describe(out io.Writer) {
	fmt.Fprintf(out, "clustersim: %d x %d-vCPU containers over %s, policy %s, seed %d\n",
		sc.n, sc.vcpus, strings.Join(sc.machines, "+"), sc.policy, sc.seed)
	fmt.Fprintf(out, "trace: mean inter-arrival %gs, mean lifetime %gs, rebalance every %gs (budget %gs/pass)\n",
		sc.meanArrival, sc.meanLife, sc.rebalanceEvery, sc.budget)
	for _, c := range sc.crash {
		fmt.Fprintf(out, "scenario: %s crashes at t=%gs (probes every %gs)\n", c.name, c.at, sc.probeEvery)
	}
	for _, s := range sc.slow {
		fmt.Fprintf(out, "scenario: %s answers every 3rd probe from t=%gs (probes every %gs)\n", s.name, s.at, sc.probeEvery)
	}
	for _, p := range sc.partition {
		fmt.Fprintf(out, "scenario: %s partitioned in t=[%g,%g)s (probes every %gs)\n", p.name, p.from, p.to, sc.probeEvery)
	}
	for _, rt := range sc.restart {
		fmt.Fprintf(out, "scenario: control plane crashes and recovers from its log at t=%gs\n", rt)
	}
}

// sim is one run of a Scenario: the fleet under test, the event clock that
// drives it, and the tallies the report prints. Each event is a method.
type sim struct {
	sc     Scenario
	ctx    context.Context
	out    io.Writer
	clock  des.Sim
	models *recipe.Models
	cl     *numaplace.Cluster
	walDir string   // the restart scenario's write-ahead log, or ""
	wlog   *wal.Log // the log the running control plane appends to
	err    error    // the first handler error; it ends the run

	remaining, admitted, rejected, failoverStranded int
	crossMoves, intraMoves, machinesDrained         int
	migrationSeconds                                float64
	perBackend                                      map[string]int
	admitWall                                       []float64 // ns
	utilArea, peakUtil, lastT, lastUtil             float64   // time-weighted fleet utilization
	probeTimer                                      *des.Timer
	slowCount                                       map[string]int // probes of each slow machine since its fault began
}

// run executes the scenario and writes the deterministic report to out;
// wall-clock admission latencies go to errw.
func run(ctx context.Context, sc Scenario, out, errw io.Writer) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	sc.describe(out)
	s := &sim{sc: sc, ctx: ctx, out: out, remaining: sc.n,
		perBackend: map[string]int{}, slowCount: map[string]int{}}
	defer func() { // the restart scenario's log and its directory
		if s.wlog != nil {
			s.wlog.Close()
		}
		os.RemoveAll(s.walDir) // "" removes nothing
	}()
	if err := s.start(); err != nil {
		return err
	}
	end := s.clock.Run()
	if s.err != nil {
		return s.err
	}
	s.account()
	s.report(end, errw)
	return nil
}

// start trains each machine model once, boots the first control plane and
// schedules the scenario's events. A restart rebuilds the engines from the
// same predictors, as a restarted daemon retraining with the same seeds would.
func (s *sim) start() error {
	var err error
	if s.models, err = recipe.Train(s.ctx, s.sc.machines, s.sc.vcpus, s.sc.quick); err != nil {
		return err
	}
	// The restart scenario logs every fleet mutation to a real write-ahead
	// log in a fresh directory, and boots each control plane from it as a
	// daemon does, so a recovery replays what a restarted daemon would see.
	if len(s.sc.restart) > 0 {
		if s.walDir, err = os.MkdirTemp("", "clustersim-wal"); err != nil {
			return err
		}
	}
	if s.cl, err = s.boot(); err != nil {
		return err
	}
	for _, name := range recipe.Names(s.sc.machines) {
		b, _ := s.cl.Backend(name)
		eng := b.(*numaplace.Engine)
		pred, _ := eng.Predictor(s.sc.vcpus)
		fmt.Fprintf(s.out, "trained %-8s %-22s %3d workloads x %2d placements, base/probe %d/%d\n",
			name, eng.Machine().Topo.Name, s.models.Workloads, pred.NumPlacements, pred.Base, pred.Probe)
	}
	s.schedule()
	return nil
}

// boot builds a fleet from the trained models and, in the restart scenario,
// recovers it from the write-ahead log.
func (s *sim) boot() (*numaplace.Cluster, error) {
	cl, err := s.models.Build(s.ctx, numaplace.ClusterConfig{
		Policy: s.sc.policy, DrainBelow: s.sc.drainBelow, SpreadDomains: s.sc.spread,
	})
	if err != nil || s.walDir == "" {
		return cl, err
	}
	s.wlog, _, _, err = recipe.Recover(s.ctx, cl, wal.Options{Dir: s.walDir, Fsync: wal.FsyncNone})
	return cl, err
}

// schedule puts the trace's arrivals, the first rebalance tick, the first
// health probe and the control-plane restarts on the clock. The whole trace
// is drawn before the clock runs, so the rng stream is independent of event
// interleaving: arrival times, workloads and lifetimes are fixed by the
// seed alone.
func (s *sim) schedule() {
	catalog := workloads.Paper()
	rng := xrand.New(s.sc.seed)
	exp := func(mean float64) float64 { return -mean * math.Log(1-rng.Float64()) }
	t := 0.0
	for range s.sc.n {
		t += exp(s.sc.meanArrival)
		w := catalog[rng.Intn(len(catalog))]
		life := exp(s.sc.meanLife)
		s.clock.At(t, s.handle(func() error { return s.arrive(w, life) }))
	}
	if s.sc.rebalanceEvery > 0 {
		s.clock.After(s.sc.rebalanceEvery, s.handle(s.rebalance))
	}
	if s.sc.probeEvery > 0 {
		s.armProbe()
	}
	for _, rt := range s.sc.restart {
		s.clock.At(rt, s.handle(s.restart))
	}
}

// handle makes an event of fn that does nothing once a handler has failed
// the run, and otherwise records fleet utilization before fn and, if fn
// succeeds, after it.
func (s *sim) handle(fn func() error) func() {
	return func() {
		if s.err != nil {
			return
		}
		s.account()
		if s.err = fn(); s.err == nil {
			s.account()
		}
	}
}

// account integrates fleet utilization up to now and samples it afresh.
func (s *sim) account() {
	now := s.clock.Now()
	s.utilArea += s.lastUtil * (now - s.lastT)
	s.lastT = now
	s.lastUtil = s.cl.Stats().Utilization
	if s.lastUtil > s.peakUtil {
		s.peakUtil = s.lastUtil
	}
}

// arrive places one container of the trace and, if it is admitted, schedules
// its departure. A full fleet rejects it; that is a tally, not an error.
func (s *sim) arrive(w numaplace.Workload, life float64) error {
	s.remaining--
	// Wall-clock here measures the *implementation*, not the simulation:
	// admitWall is the real CPU cost of one Place call, reported as
	// telemetry and never fed back into simulated time or any decision.
	start := time.Now() //numalint:ignore determinism telemetry: measures real Place latency, never feeds simulated state
	adm, err := s.cl.Place(s.ctx, w, s.sc.vcpus)
	s.admitWall = append(s.admitWall, float64(time.Since(start))) //numalint:ignore determinism telemetry: measures real Place latency, never feeds simulated state
	if errors.Is(err, numaplace.ErrFleetFull) {
		s.rejected++
		return nil
	} else if err != nil {
		return err
	}
	s.admitted++
	s.perBackend[adm.Backend]++
	id := adm.ID
	s.clock.After(life, s.handle(func() error { return s.cl.Release(s.ctx, id) }))
	return nil
}

// rebalance runs one budgeted rebalance pass and schedules the next while
// the trace still has containers to come or to leave.
func (s *sim) rebalance() error {
	rep, err := s.cl.Rebalance(s.ctx, s.sc.budget)
	if rep != nil {
		s.migrationSeconds += rep.TotalSeconds
		s.crossMoves += len(rep.Moves)
		s.machinesDrained += len(rep.Drained)
		for _, ip := range rep.Intra {
			s.intraMoves += len(ip.Report.Moves)
		}
	}
	if err != nil {
		return err
	}
	if s.remaining > 0 || s.cl.Len() > 0 {
		s.clock.After(s.sc.rebalanceEvery, s.handle(s.rebalance))
	}
	return nil
}

// armProbe schedules the next health probe one probe period from now.
func (s *sim) armProbe() {
	s.probeTimer = s.clock.After(s.sc.probeEvery, s.handle(s.probe))
}

// probe is the health probe tick: every probe period each machine, in add
// order, answers or misses per the fault scenarios, on the simulation clock,
// so failure scenarios ride the deterministic event stream. Probing stops
// once the trace is over.
func (s *sim) probe() error {
	if s.ctx.Err() != nil || (s.remaining == 0 && s.cl.Len() == 0) {
		return nil
	}
	for _, name := range s.cl.Names() {
		if err := s.probeOne(name); err != nil {
			return err
		}
	}
	s.armProbe()
	return nil
}

// answers reports whether a machine answers a probe now.
func (s *sim) answers(name string) bool {
	now := s.clock.Now()
	for _, c := range s.sc.crash {
		if c.name == name && now >= c.at {
			return false
		}
	}
	for _, p := range s.sc.partition {
		if p.name == name && now >= p.from && now < p.to {
			return false
		}
	}
	for _, sl := range s.sc.slow {
		// Two misses then an answer, on the machine's own probe count:
		// healthy<->suspect under the default thresholds, never dead.
		if sl.name == name && now >= sl.at {
			s.slowCount[name]++
			return s.slowCount[name]%3 == 0
		}
	}
	return true
}

// probeOne probes one machine. An answer feeds Heartbeat — or Revive, for a
// dead machine, fencing the records failed over in its absence — and a miss
// feeds MissProbe, which advances healthy→suspect→dead and runs the
// automatic failover pass at death. Transitions are logged with their
// simulated times.
func (s *sim) probeOne(name string) error {
	before, ok := s.cl.HealthOf(name)
	if !ok {
		return nil
	}
	if !s.answers(name) {
		after, rep, err := s.cl.MissProbe(s.ctx, name)
		s.health(name, before, after)
		if rep != nil {
			s.failoverStranded += rep.Stranded
			fmt.Fprintf(s.out, "t=%8.1f  failover %-8s rehomed %d, stranded %d (%.2fs migration)\n",
				s.clock.Now(), name, len(rep.Moves), rep.Stranded, rep.TotalSeconds)
		}
		if errors.Is(err, numaplace.ErrNoHealthyBackend) {
			return nil // stranded tenants are reported, and retried by later passes
		}
		return err
	}
	if before == numaplace.ClusterDead {
		fenced, err := s.cl.Revive(s.ctx, name)
		if err != nil {
			return err
		}
		fmt.Fprintf(s.out, "t=%8.1f  rejoin %-10s revived, fenced %d stale records\n", s.clock.Now(), name, fenced)
		s.health(name, before, numaplace.ClusterHealthy)
		return nil
	}
	after, err := s.cl.Heartbeat(name)
	if err == nil {
		s.health(name, before, after)
	}
	return err
}

// health logs a health transition.
func (s *sim) health(name string, from, to numaplace.ClusterHealth) {
	if from != to {
		fmt.Fprintf(s.out, "t=%8.1f  health %-10s %s -> %s\n", s.clock.Now(), name, from, to)
	}
}

// restart crashes the control plane — the cluster object and its engines are
// dropped on the floor — and a successor rebuilds the engines from the
// trained models, replays the write-ahead log into them, and resumes the
// trace. Recovery is verified on the spot: the recovered assignments and
// stats must equal the pre-crash ones exactly, or the run fails.
func (s *sim) restart() error {
	now := s.clock.Now()
	prevAssign := s.cl.Assignments()
	prevStats := s.cl.Stats()
	fmt.Fprintf(s.out, "t=%8.1f  restart: control plane down with %d tenants at seq %d\n",
		now, len(prevAssign), s.cl.Seq())
	if err := s.wlog.Close(); err != nil {
		return err
	}
	cl, err := s.boot()
	if err != nil {
		return fmt.Errorf("restart at t=%g: %w", now, err)
	}
	identical := reflect.DeepEqual(prevAssign, cl.Assignments()) &&
		reflect.DeepEqual(prevStats, cl.Stats())
	fmt.Fprintf(s.out, "t=%8.1f  restart: recovered %d tenants at seq %d, state identical: %v\n",
		now, len(cl.Assignments()), s.wlog.Head().RecoveredSeq, identical)
	if !identical {
		return fmt.Errorf("restart at t=%g: recovered state diverged from pre-crash state", now)
	}
	s.cl = cl
	if s.sc.probeEvery > 0 {
		// The successor's probe clock starts when it has recovered.
		s.probeTimer.Cancel()
		s.armProbe()
	}
	return nil
}

// report writes the trace's outcome to the report: admissions, utilization,
// rebalancing, failover and the final state of every machine and failure
// domain; and wall-clock placement latency to errw.
func (s *sim) report(end float64, errw io.Writer) {
	out := s.out
	meanUtil := 0.0
	if end > 0 {
		meanUtil = s.utilArea / end
	}
	fmt.Fprintf(out, "\ntrace complete at t=%.1fs\n", end)
	fmt.Fprintf(out, "admitted           %6d\n", s.admitted)
	fmt.Fprintf(out, "rejected           %6d  (%.1f%% rejection rate)\n",
		s.rejected, 100*float64(s.rejected)/float64(s.sc.n))
	names := recipe.Names(s.sc.machines)
	for _, name := range names {
		fmt.Fprintf(out, "  on %-12s %6d\n", name, s.perBackend[name])
	}
	fmt.Fprintf(out, "fleet utilization  %6.1f%% mean, %.1f%% peak (allocated NUMA nodes)\n",
		100*meanUtil, 100*s.peakUtil)
	fmt.Fprintf(out, "rebalance moves    %6d cross-machine, %d intra-machine\n", s.crossMoves, s.intraMoves)
	fmt.Fprintf(out, "machines drained   %6d times (consolidation)\n", s.machinesDrained)
	fmt.Fprintf(out, "migration spend    %9.2fs simulated (fast mechanism)\n", s.migrationSeconds)
	st := s.cl.Stats()
	fmt.Fprintf(out, "leaked tenants     %6d (want 0)\n", st.Tenants)
	fmt.Fprintf(out, "failover passes    %6d (%d tenants rehomed, %d stranding events)\n",
		st.Failovers, st.FailedOver, s.failoverStranded)

	// Record conservation across failures: every record the cluster still
	// maps must resolve, and no live machine may hold engine-side records
	// the cluster does not know about (a still-dead machine legitimately
	// holds stale books — they are fenced on revive).
	unfenced := -st.Tenants
	for _, b := range st.Backends {
		if be, ok := s.cl.Backend(b.Name); ok && b.Health != numaplace.ClusterDead {
			unfenced += len(be.Assignments())
		}
	}
	fmt.Fprintf(out, "unfenced records   %6d on live machines (want 0)\n", unfenced)

	fmt.Fprintf(out, "machines:\n")
	for _, b := range st.Backends {
		fmt.Fprintf(out, "  %-12s %-8s %-8s %3d tenants, %2d/%2d nodes free\n",
			b.Name, b.Domain, b.Health, b.Tenants, b.FreeNodes, b.TotalNodes)
	}
	for _, d := range st.Domains {
		fmt.Fprintf(out, "  domain %-8s %d machines (%d dead), utilization %.1f%%\n",
			d.Domain, d.Backends, d.Dead, 100*d.Utilization)
	}

	// Wall-clock placement latency is real measured time and therefore
	// nondeterministic: report it on errw, keeping out byte-identical.
	// Every Place attempt is timed, rejections included — a rejection
	// still pays routing and (under best-predicted) preview costs.
	if len(s.admitWall) == 0 {
		return
	}
	pct := func(p float64) time.Duration {
		return time.Duration(stats.Percentile(s.admitWall, p)).Round(time.Microsecond)
	}
	fmt.Fprintf(errw, "place latency (wall): p50 %s, p95 %s, max %s over %d placement attempts\n",
		pct(50), pct(95), pct(100), len(s.admitWall))
}
