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
// Usage:
//
// The restart scenario exercises the durability layer end to end inside
// the simulation: the control plane logs every mutation to a write-ahead
// log, "crashes" at sim time t (the cluster object and its engines are
// discarded), rebuilds the engines from scratch with the same seeds, and
// recovers the fleet by replaying the log. The recovered state must be
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
	"repro/internal/mlearn"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

type simConfig struct {
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
	dataDir    string      // WAL directory for -restart ("" = fresh temp dir)
	spread     bool        // spread workload replicas across racks

	trials, trees, corpus int // training fidelity
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

// parseEvents parses a comma-separated list of machine@t specs.
func parseEvents(flagName, s string) ([]eventSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []eventSpec
	for _, part := range strings.Split(s, ",") {
		name, ts, ok := strings.Cut(part, "@")
		if !ok || name == "" {
			return nil, fmt.Errorf("-%s %q: want machine@t", flagName, part)
		}
		at, err := strconv.ParseFloat(ts, 64)
		if err != nil {
			return nil, fmt.Errorf("-%s %q: bad time: %w", flagName, part, err)
		}
		out = append(out, eventSpec{name: name, at: at})
	}
	return out, nil
}

// parseTimes parses a comma-separated list of simulated times.
func parseTimes(flagName, s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		at, err := strconv.ParseFloat(part, 64)
		if err != nil || at <= 0 {
			return nil, fmt.Errorf("-%s %q: want a positive sim time", flagName, part)
		}
		out = append(out, at)
	}
	return out, nil
}

// parseSpans parses a comma-separated list of machine@t1:t2 specs.
func parseSpans(flagName, s string) ([]spanSpec, error) {
	if s == "" {
		return nil, nil
	}
	var out []spanSpec
	for _, part := range strings.Split(s, ",") {
		name, span, ok := strings.Cut(part, "@")
		if !ok || name == "" {
			return nil, fmt.Errorf("-%s %q: want machine@t1:t2", flagName, part)
		}
		fs, ts, ok := strings.Cut(span, ":")
		if !ok {
			return nil, fmt.Errorf("-%s %q: want machine@t1:t2", flagName, part)
		}
		from, err1 := strconv.ParseFloat(fs, 64)
		to, err2 := strconv.ParseFloat(ts, 64)
		if err1 != nil || err2 != nil || to <= from {
			return nil, fmt.Errorf("-%s %q: bad span", flagName, part)
		}
		out = append(out, spanSpec{name: name, from: from, to: to})
	}
	return out, nil
}

func main() {
	machineList := flag.String("machines", "amd,intel", "comma-separated machine models forming the fleet")
	policyName := flag.String("policy", "best-predicted", "routing policy: first-fit, least-loaded or best-predicted")
	n := flag.Int("n", 240, "number of container arrivals in the trace")
	vcpus := flag.Int("vcpus", 16, "vCPUs per container")
	seed := flag.Uint64("seed", 1, "trace seed (arrivals, workloads, lifetimes)")
	arrival := flag.Float64("arrival", 15, "mean inter-arrival time in simulated seconds")
	life := flag.Float64("life", 90, "mean container lifetime in simulated seconds")
	rebalance := flag.Float64("rebalance", 120, "rebalance tick period in simulated seconds (0 disables)")
	budget := flag.Float64("budget", 60, "migration-seconds budget per rebalance pass")
	drainBelow := flag.Float64("drain-below", 0.5, "consolidate machines below this utilization during rebalance")
	probeEvery := flag.Float64("probe-every", 10, "health probe period in simulated seconds (0 disables probing, and with it -crash, -slow and -partition)")
	crash := flag.String("crash", "", "crash scenario: machine@t[,...] — stops answering probes at sim time t, never recovers")
	slow := flag.String("slow", "", "slow-node scenario: machine@t[,...] — answers only every third probe from sim time t")
	partition := flag.String("partition", "", "partition scenario: machine@t1:t2[,...] — unreachable in [t1,t2), then rejoins")
	restart := flag.String("restart", "", "restart scenario: t[,...] — crash the control plane at sim time t and recover it from its write-ahead log")
	spread := flag.Bool("spread", false, "spread replicas of a workload across failure domains (racks)")
	quick := flag.Bool("quick", false, "reduced training fidelity and a 200-container trace (CI smoke)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	policy, ok := numaplace.ClusterPolicyByName(*policyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		os.Exit(2)
	}
	if *n < 0 || *vcpus <= 0 || *arrival <= 0 || *life <= 0 {
		fmt.Fprintln(os.Stderr, "-n must be non-negative; -vcpus, -arrival and -life positive")
		flag.Usage()
		os.Exit(2)
	}
	cfg := simConfig{
		machines:       strings.Split(*machineList, ","),
		policy:         policy,
		n:              *n,
		vcpus:          *vcpus,
		seed:           *seed,
		meanArrival:    *arrival,
		meanLife:       *life,
		rebalanceEvery: *rebalance,
		budget:         *budget,
		drainBelow:     *drainBelow,
		probeEvery:     *probeEvery,
		spread:         *spread,
		trials:         3, trees: 60, corpus: 30,
	}
	scenarioErr := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var err error
	cfg.crash, err = parseEvents("crash", *crash)
	scenarioErr(err)
	cfg.slow, err = parseEvents("slow", *slow)
	scenarioErr(err)
	cfg.partition, err = parseSpans("partition", *partition)
	scenarioErr(err)
	cfg.restart, err = parseTimes("restart", *restart)
	scenarioErr(err)
	if *quick {
		cfg.trials, cfg.trees, cfg.corpus = 2, 10, 10
		if !flagSet("n") {
			cfg.n = 200
		}
	}
	if err := run(ctx, cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// flagSet reports whether the named flag was given explicitly.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// buildCluster builds and trains one Engine per configured machine and
// assembles them into a cluster. Training is fully seeded, so calling this
// twice (initial boot and a -restart recovery) yields engines whose
// predictions agree decision for decision — the property WAL replay needs.
// Machines alternate between two racks — the failure domains the -spread
// routing preference and the per-domain stats report against.
func buildCluster(ctx context.Context, cfg simConfig, out io.Writer) (*numaplace.Cluster, error) {
	cl := numaplace.NewCluster(numaplace.ClusterConfig{
		Policy: cfg.policy, DrainBelow: cfg.drainBelow, SpreadDomains: cfg.spread,
	})
	names := machineNames(cfg.machines)
	for i, mname := range cfg.machines {
		m, ok := numaplace.MachineByName(mname)
		if !ok {
			return nil, fmt.Errorf("unknown machine %q", mname)
		}
		eng := numaplace.New(m,
			numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: cfg.trials}),
			numaplace.WithTrainConfig(numaplace.TrainConfig{
				Seed: 1, Forest: mlearn.ForestConfig{Trees: cfg.trees},
				SelectionTrees: 4, SelectionFolds: 3,
			}),
		)
		ws := workloads.TrainingSet(cfg.corpus, 42)
		ds, err := eng.Collect(ctx, ws, cfg.vcpus)
		if err != nil {
			return nil, fmt.Errorf("collecting on %s: %w", mname, err)
		}
		pred, err := eng.Train(ctx, ds)
		if err != nil {
			return nil, fmt.Errorf("training on %s: %w", mname, err)
		}
		if err := cl.Add(names[i], eng, numaplace.InDomain(fmt.Sprintf("rack-%d", i%2))); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trained %-8s %-22s %3d workloads x %2d placements, base/probe %d/%d\n",
			names[i], m.Topo.Name, len(ws), pred.NumPlacements, pred.Base, pred.Probe)
	}
	return cl, nil
}

// machineNames names the fleet's machines: the model and its position in
// -machines ("amd-0", "intel-1").
func machineNames(models []string) []string {
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = fmt.Sprintf("%s-%d", m, i)
	}
	return names
}

// checkFaults refuses a fault scenario that would do nothing: faults are
// probe answers, so they need probing on, and each must name a machine of
// the fleet.
func checkFaults(cfg simConfig) error {
	names := machineNames(cfg.machines)
	known := func(flag, name string) error {
		if !slices.Contains(names, name) {
			return fmt.Errorf("-%s: unknown machine %q (have %s)", flag, name, strings.Join(names, ", "))
		}
		return nil
	}
	for _, c := range cfg.crash {
		if err := known("crash", c.name); err != nil {
			return err
		}
	}
	for _, s := range cfg.slow {
		if err := known("slow", s.name); err != nil {
			return err
		}
	}
	for _, p := range cfg.partition {
		if err := known("partition", p.name); err != nil {
			return err
		}
	}
	if len(cfg.crash)+len(cfg.slow)+len(cfg.partition) > 0 && cfg.probeEvery <= 0 {
		return fmt.Errorf("-crash, -slow and -partition act on health probes: they need -probe-every > 0")
	}
	return nil
}

// run executes the churn trace and writes the deterministic report to out;
// wall-clock admission latencies go to errw.
func run(ctx context.Context, cfg simConfig, out, errw io.Writer) error {
	if err := checkFaults(cfg); err != nil {
		return err
	}
	fmt.Fprintf(out, "clustersim: %d x %d-vCPU containers over %s, policy %s, seed %d\n",
		cfg.n, cfg.vcpus, strings.Join(cfg.machines, "+"), cfg.policy, cfg.seed)
	fmt.Fprintf(out, "trace: mean inter-arrival %gs, mean lifetime %gs, rebalance every %gs (budget %gs/pass)\n",
		cfg.meanArrival, cfg.meanLife, cfg.rebalanceEvery, cfg.budget)
	for _, c := range cfg.crash {
		fmt.Fprintf(out, "scenario: %s crashes at t=%gs (probes every %gs)\n", c.name, c.at, cfg.probeEvery)
	}
	for _, s := range cfg.slow {
		fmt.Fprintf(out, "scenario: %s answers every 3rd probe from t=%gs (probes every %gs)\n", s.name, s.at, cfg.probeEvery)
	}
	for _, p := range cfg.partition {
		fmt.Fprintf(out, "scenario: %s partitioned in t=[%g,%g)s (probes every %gs)\n", p.name, p.from, p.to, cfg.probeEvery)
	}
	for _, rt := range cfg.restart {
		fmt.Fprintf(out, "scenario: control plane crashes and recovers from its log at t=%gs\n", rt)
	}

	cl, err := buildCluster(ctx, cfg, out)
	if err != nil {
		return err
	}
	names := machineNames(cfg.machines)

	// The restart scenario persists every fleet mutation to a real
	// write-ahead log so the mid-trace recovery replays exactly what a
	// restarted daemon would see.
	var wlog *wal.Log
	walDir := cfg.dataDir
	if len(cfg.restart) > 0 {
		if walDir == "" {
			d, err := os.MkdirTemp("", "clustersim-wal")
			if err != nil {
				return err
			}
			defer os.RemoveAll(d)
			walDir = d
		}
		l, _, _, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncNone})
		if err != nil {
			return fmt.Errorf("opening write-ahead log in %s: %w", walDir, err)
		}
		defer func() { wlog.Close() }()
		wlog = l
		cl.Fleet().SetPersister(wlog)
	}

	// Pre-generate the whole trace so the rng stream is independent of
	// event interleaving: arrival times, workloads and lifetimes are fixed
	// by the seed alone.
	catalog := workloads.Paper()
	rng := xrand.New(cfg.seed)
	exp := func(mean float64) float64 { return -mean * math.Log(1-rng.Float64()) }
	type arrival struct {
		at   float64
		w    numaplace.Workload
		life float64
	}
	trace := make([]arrival, cfg.n)
	t := 0.0
	for i := range trace {
		t += exp(cfg.meanArrival)
		trace[i] = arrival{at: t, w: catalog[rng.Intn(len(catalog))], life: exp(cfg.meanLife)}
	}

	var (
		sim        des.Sim
		admitted   int
		rejected   int
		runErr     error
		remaining  = cfg.n
		perBackend = map[string]int{}
		admitWall  []float64 // ns

		// Time-weighted fleet utilization.
		utilArea, peakUtil float64
		lastT, lastUtil    float64
	)
	account := func() {
		now := sim.Now()
		utilArea += lastUtil * (now - lastT)
		lastT = now
		lastUtil = cl.Stats().Utilization
		if lastUtil > peakUtil {
			peakUtil = lastUtil
		}
	}

	for _, a := range trace {
		a := a
		sim.At(a.at, func() {
			if runErr != nil {
				return
			}
			account()
			remaining--
			// Wall-clock here measures the *implementation*, not the
			// simulation: admitWall is the real CPU cost of one Place
			// call, reported as telemetry and never fed back into
			// simulated time or any decision.
			start := time.Now() //numalint:ignore determinism telemetry: measures real Place latency, never feeds simulated state
			adm, err := cl.Place(ctx, a.w, cfg.vcpus)
			admitWall = append(admitWall, float64(time.Since(start))) //numalint:ignore determinism telemetry: measures real Place latency, never feeds simulated state
			if err != nil {
				if errors.Is(err, numaplace.ErrFleetFull) {
					rejected++
					account()
					return
				}
				runErr = err
				return
			}
			admitted++
			perBackend[adm.Backend]++
			id := adm.ID
			sim.After(a.life, func() {
				if runErr != nil {
					return
				}
				account()
				if err := cl.Release(ctx, id); err != nil {
					runErr = err
				}
				account()
			})
			account()
		})
	}

	var (
		migrationSeconds float64
		crossMoves       int
		intraMoves       int
		machinesDrained  int
	)
	if cfg.rebalanceEvery > 0 {
		var tick func()
		tick = func() {
			if runErr != nil {
				return
			}
			account()
			rep, err := cl.Rebalance(ctx, cfg.budget)
			if rep != nil {
				migrationSeconds += rep.TotalSeconds
				crossMoves += len(rep.Moves)
				machinesDrained += len(rep.Drained)
				for _, ip := range rep.Intra {
					intraMoves += len(ip.Report.Moves)
				}
			}
			if err != nil {
				runErr = err
				return
			}
			account()
			if remaining > 0 || cl.Len() > 0 {
				sim.After(cfg.rebalanceEvery, tick)
			}
		}
		sim.After(cfg.rebalanceEvery, tick)
	}

	// Health probes: every probeEvery simulated seconds each machine, in add
	// order, answers or misses per the fault scenarios, on the simulation
	// clock, so failure scenarios ride the deterministic event stream. An
	// answer feeds Heartbeat — or Revive, for a dead machine, fencing the
	// records failed over in its absence — and a miss feeds MissProbe, which
	// advances healthy→suspect→dead and runs the automatic failover pass at
	// death. All transitions are logged with their simulated times.
	var (
		failoverStranded int
		probeTimer       *des.Timer
		probe            func()
	)
	slowCount := map[string]int{} // probes of each slow machine since its fault began
	answers := func(name string) bool {
		now := sim.Now()
		for _, c := range cfg.crash {
			if c.name == name && now >= c.at {
				return false
			}
		}
		for _, p := range cfg.partition {
			if p.name == name && now >= p.from && now < p.to {
				return false
			}
		}
		for _, s := range cfg.slow {
			// Deterministic flakiness: two misses then an answer, on the
			// machine's own probe counter — enough to oscillate
			// healthy<->suspect under the default thresholds without ever
			// reaching dead.
			if s.name == name && now >= s.at {
				slowCount[name]++
				return slowCount[name]%3 == 0
			}
		}
		return true
	}
	health := func(name string, from, to numaplace.ClusterHealth) {
		if from != to {
			fmt.Fprintf(out, "t=%8.1f  health %-10s %s -> %s\n", sim.Now(), name, from, to)
		}
	}
	probeOne := func(name string) error {
		before, ok := cl.HealthOf(name)
		if !ok {
			return nil
		}
		if answers(name) {
			if before != numaplace.ClusterDead {
				after, err := cl.Heartbeat(name)
				if err != nil {
					return err
				}
				health(name, before, after)
				return nil
			}
			fenced, err := cl.Revive(ctx, name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "t=%8.1f  rejoin %-10s revived, fenced %d stale records\n", sim.Now(), name, fenced)
			health(name, before, numaplace.ClusterHealthy)
			return nil
		}
		after, rep, err := cl.MissProbe(ctx, name)
		health(name, before, after)
		if rep != nil {
			failoverStranded += rep.Stranded
			fmt.Fprintf(out, "t=%8.1f  failover %-8s rehomed %d, stranded %d (%.2fs migration)\n",
				sim.Now(), name, len(rep.Moves), rep.Stranded, rep.TotalSeconds)
		}
		if errors.Is(err, numaplace.ErrNoHealthyBackend) {
			return nil // stranded tenants are reported, and retried by later passes
		}
		return err
	}
	probe = func() {
		if runErr != nil || ctx.Err() != nil || (remaining == 0 && cl.Len() == 0) {
			return
		}
		for _, name := range cl.Names() {
			if err := probeOne(name); err != nil {
				runErr = err
				return
			}
		}
		probeTimer = sim.After(cfg.probeEvery, probe)
	}
	if cfg.probeEvery > 0 {
		probeTimer = sim.After(cfg.probeEvery, probe)
	}

	// Restart scenario: at each configured time the control plane crashes —
	// the cluster object and its engines are dropped on the floor — and a
	// successor rebuilds the engines (same seeds, same training), replays
	// the write-ahead log into them, and resumes the trace. Recovery is
	// verified on the spot: the recovered assignments and stats must equal
	// the pre-crash ones exactly, and the run fails loudly if they do not.
	for _, rt := range cfg.restart {
		rt := rt
		sim.At(rt, func() {
			if runErr != nil {
				return
			}
			account()
			prevAssign := cl.Assignments()
			prevStats := cl.Stats()
			fmt.Fprintf(out, "t=%8.1f  restart: control plane down with %d tenants at seq %d\n",
				sim.Now(), len(prevAssign), cl.Fleet().Seq())
			if err := wlog.Close(); err != nil {
				runErr = err
				return
			}
			cl2, err := buildCluster(ctx, cfg, io.Discard)
			if err != nil {
				runErr = fmt.Errorf("restart at t=%g: rebuilding engines: %w", rt, err)
				return
			}
			l2, st, recs, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncNone})
			if err != nil {
				runErr = fmt.Errorf("restart at t=%g: reopening log: %w", rt, err)
				return
			}
			if err := cl2.Fleet().Restore(ctx, st, recs, workloads.ByName); err != nil {
				runErr = fmt.Errorf("restart at t=%g: replaying log: %w", rt, err)
				return
			}
			cl2.Fleet().SetPersister(l2)
			wlog = l2
			identical := reflect.DeepEqual(prevAssign, cl2.Assignments()) &&
				reflect.DeepEqual(prevStats, cl2.Stats())
			fmt.Fprintf(out, "t=%8.1f  restart: recovered %d tenants at seq %d, state identical: %v\n",
				sim.Now(), len(cl2.Assignments()), l2.Head().RecoveredSeq, identical)
			if !identical {
				runErr = fmt.Errorf("restart at t=%g: recovered state diverged from pre-crash state", rt)
				return
			}
			cl = cl2
			if cfg.probeEvery > 0 {
				// The successor's probe clock starts when it has recovered.
				probeTimer.Cancel()
				probeTimer = sim.After(cfg.probeEvery, probe)
			}
			account()
		})
	}

	end := sim.Run()
	if runErr != nil {
		return runErr
	}
	account()

	meanUtil := 0.0
	if end > 0 {
		meanUtil = utilArea / end
	}
	fmt.Fprintf(out, "\ntrace complete at t=%.1fs\n", end)
	fmt.Fprintf(out, "admitted           %6d\n", admitted)
	fmt.Fprintf(out, "rejected           %6d  (%.1f%% rejection rate)\n",
		rejected, 100*float64(rejected)/float64(cfg.n))
	for _, name := range names {
		fmt.Fprintf(out, "  on %-12s %6d\n", name, perBackend[name])
	}
	fmt.Fprintf(out, "fleet utilization  %6.1f%% mean, %.1f%% peak (allocated NUMA nodes)\n",
		100*meanUtil, 100*peakUtil)
	fmt.Fprintf(out, "rebalance moves    %6d cross-machine, %d intra-machine\n", crossMoves, intraMoves)
	fmt.Fprintf(out, "machines drained   %6d times (consolidation)\n", machinesDrained)
	fmt.Fprintf(out, "migration spend    %9.2fs simulated (fast mechanism)\n", migrationSeconds)
	st := cl.Stats()
	fmt.Fprintf(out, "leaked tenants     %6d (want 0)\n", st.Tenants)
	fmt.Fprintf(out, "failover passes    %6d (%d tenants rehomed, %d stranding events)\n",
		st.Failovers, st.FailedOver, failoverStranded)

	// Record conservation across failures: every record the cluster still
	// maps must resolve, and no live machine may hold engine-side records
	// the cluster does not know about (a still-dead machine legitimately
	// holds stale books — they are fenced on revive).
	unfenced := 0
	for _, name := range names {
		if h, _ := cl.HealthOf(name); h == numaplace.ClusterDead {
			continue
		}
		if eng, ok := cl.Engine(name); ok {
			unfenced += len(eng.Assignments())
		}
	}
	unfenced -= st.Tenants
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
	if len(admitWall) > 0 {
		pct := func(p float64) time.Duration {
			return time.Duration(stats.Percentile(admitWall, p)).Round(time.Microsecond)
		}
		fmt.Fprintf(errw, "place latency (wall): p50 %s, p95 %s, max %s over %d placement attempts\n",
			pct(50), pct(95), pct(100), len(admitWall))
	}
	return nil
}
