//go:build unix

// Command numaplaced serves a numaplace.Cluster over the wire protocol:
// an HTTP/JSON daemon remote callers drive through repro/client (or plain
// curl). On startup it builds one Engine per -machines entry, trains each
// on the paper catalog plus a synthetic corpus, assembles the cluster
// under the chosen routing policy, and listens.
//
// Routes live under /v1 (see DESIGN.md "Wire protocol"): place, release,
// rebalance, drain, resume, heartbeat, missprobe, fail, failover, revive,
// stats, assignments, health/{backend}, healthz, and the events stream
// (Server-Sent Events).
//
// With -data-dir the daemon is crash-recoverable: every fleet mutation is
// appended to a write-ahead log under the directory before the response
// leaves, and on the next boot the daemon replays the log (plus the newest
// snapshot) into freshly rebuilt engines, so live admissions survive a
// kill -9. A log that fails structural validation refuses the boot with a
// non-zero exit — serving from silently wrong state is worse than not
// serving. GET /v1/log/head reports the durability position; POST
// /v1/snapshot forces a checkpoint.
//
// SIGINT/SIGTERM shut the daemon down gracefully: event streams are
// closed, in-flight requests drain within -shutdown-timeout, the fleet is
// checkpointed, the log is flushed and closed, and the process exits 0.
// Bad flags exit 2 with usage.
//
// Usage:
//
//	numaplaced -listen 127.0.0.1:7070 -machines amd,intel -policy best-predicted
//	numaplaced -listen 127.0.0.1:0 -quick     # ephemeral port, CI training budget
//	numaplaced -listen 127.0.0.1:7070 -data-dir /var/lib/numaplaced -fsync interval
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workloads"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "listen address (host:port; port 0 picks an ephemeral port)")
	machineList := flag.String("machines", "amd,intel", "comma-separated machine models forming the fleet")
	policyName := flag.String("policy", "best-predicted", "routing policy: first-fit, least-loaded or best-predicted")
	vcpus := flag.Int("vcpus", 16, "vCPUs per container the engines are trained for")
	drainBelow := flag.Float64("drain-below", 0.5, "consolidate machines below this utilization during rebalance")
	spread := flag.Bool("spread", false, "spread replicas of a workload across failure domains (racks)")
	eventsBuffer := flag.Int("events-buffer", 1024, "per-subscriber event ring size on /v1/events")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	quick := flag.Bool("quick", false, "reduced training fidelity (CI smoke)")
	dataDir := flag.String("data-dir", "", "directory for the write-ahead log and snapshots (empty: no persistence)")
	fsync := flag.String("fsync", "always", "log durability policy: always, interval or none (needs -data-dir)")
	fsyncInterval := flag.Duration("fsync-interval", 50*time.Millisecond, "flush cadence under -fsync interval (needs -data-dir)")
	snapshotEvery := flag.Duration("snapshot-every", 0, "periodic checkpoint cadence (0: only on shutdown and POST /v1/snapshot; needs -data-dir)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}
	if *dataDir == "" {
		// The persistence flags tune a log that exists only with -data-dir.
		var stray []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fsync", "fsync-interval", "snapshot-every":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			fmt.Fprintf(os.Stderr, "%s need -data-dir\n", strings.Join(stray, ", "))
			flag.Usage()
			os.Exit(2)
		}
	}
	if *vcpus <= 0 || *eventsBuffer <= 0 {
		fmt.Fprintln(os.Stderr, "-vcpus and -events-buffer must be positive")
		flag.Usage()
		os.Exit(2)
	}
	policy, ok := numaplace.ClusterPolicyByName(*policyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		flag.Usage()
		os.Exit(2)
	}
	fsyncPolicy, ok := wal.PolicyByName(*fsync)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown fsync policy %q\n", *fsync)
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, config{
		listen:        *listen,
		machines:      strings.Split(*machineList, ","),
		policy:        policy,
		vcpus:         *vcpus,
		drainBelow:    *drainBelow,
		spread:        *spread,
		eventsBuffer:  *eventsBuffer,
		shutdown:      *shutdownTimeout,
		quick:         *quick,
		dataDir:       *dataDir,
		fsync:         fsyncPolicy,
		fsyncInterval: *fsyncInterval,
		snapshotEvery: *snapshotEvery,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, nperr.ErrLogCorrupt) {
			// Refusing to serve from damaged durable state is deliberate;
			// exit 3 so supervisors can tell "operator must inspect
			// -data-dir" from ordinary startup failures.
			os.Exit(3)
		}
		os.Exit(1)
	}
}

type config struct {
	listen        string
	machines      []string
	policy        numaplace.ClusterPolicy
	vcpus         int
	drainBelow    float64
	spread        bool
	eventsBuffer  int
	shutdown      time.Duration
	quick         bool
	dataDir       string
	fsync         wal.FsyncPolicy
	fsyncInterval time.Duration
	snapshotEvery time.Duration
}

func run(ctx context.Context, cfg config) error {
	trials, trees, corpus := 3, 60, 30
	if cfg.quick {
		trials, trees, corpus = 2, 10, 10
	}

	// Build and train one Engine per machine (same recipe as clustersim:
	// paper catalog + synthetic corpus, machines alternating racks).
	cl := numaplace.NewCluster(numaplace.ClusterConfig{
		Policy: cfg.policy, DrainBelow: cfg.drainBelow, SpreadDomains: cfg.spread,
	})
	for i, mname := range cfg.machines {
		m, ok := numaplace.MachineByName(mname)
		if !ok {
			return fmt.Errorf("unknown machine %q", mname)
		}
		eng := numaplace.New(m,
			numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: trials}),
			numaplace.WithTrainConfig(numaplace.TrainConfig{
				Seed: 1, Forest: mlearn.ForestConfig{Trees: trees},
				SelectionTrees: 4, SelectionFolds: 3,
			}),
		)
		ds, err := eng.Collect(ctx, workloads.TrainingSet(corpus, 42), cfg.vcpus)
		if err != nil {
			return fmt.Errorf("collecting on %s: %w", mname, err)
		}
		if _, err := eng.Train(ctx, ds); err != nil {
			return fmt.Errorf("training on %s: %w", mname, err)
		}
		name := fmt.Sprintf("%s-%d", mname, i)
		if err := cl.Add(name, eng, numaplace.InDomain(fmt.Sprintf("rack-%d", i%2))); err != nil {
			return err
		}
		fmt.Printf("numaplaced: trained %s (%s)\n", name, m.Topo.Name)
	}

	// Recovery happens after training and before serving: the engines are
	// rebuilt deterministically (fixed seeds, same flags), so replaying the
	// log against them reconstructs the pre-crash placements exactly.
	f := cl.Fleet()
	wcfg := wire.Config{EventBuffer: cfg.eventsBuffer}
	var wlog *wal.Log
	recovered := 0
	if cfg.dataDir != "" {
		t0 := time.Now()
		l, st, recs, err := wal.Open(wal.Options{
			Dir: cfg.dataDir, Fsync: cfg.fsync, Interval: cfg.fsyncInterval,
		})
		if err != nil {
			return fmt.Errorf("opening write-ahead log in %s: %w", cfg.dataDir, err)
		}
		opened := time.Since(t0)
		if err := f.Restore(ctx, st, recs, workloads.ByName); err != nil {
			l.Close()
			return fmt.Errorf("replaying write-ahead log in %s: %w", cfg.dataDir, err)
		}
		restored := time.Since(t0) - opened
		wlog = l
		recovered = len(f.Assignments())
		f.SetPersister(wlog)
		defer wlog.Close()
		head := wlog.Head()
		// Recovery time is downtime: say what it cost, per phase.
		fmt.Printf("numaplaced: recovered %d tenants at seq %d (snapshot %d) from %s: %d records replayed, open %s, restore %s\n",
			recovered, head.RecoveredSeq, head.SnapshotSeq, cfg.dataDir, head.RecoveredSeq-head.SnapshotSeq,
			opened.Round(time.Microsecond), restored.Round(time.Microsecond))
		wcfg.LogHead = func() wire.LogHead {
			h := wlog.Head()
			return wire.LogHead{
				Seq: h.Seq, SnapshotSeq: h.SnapshotSeq, RecoveredSeq: h.RecoveredSeq,
				RecoveredTenants: recovered, Persistent: true,
			}
		}
		wcfg.Snapshot = func() (uint64, error) { return f.Checkpoint() }
	}

	ws := wire.NewServer(f, wcfg)
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", cfg.listen, err)
	}
	srv := &http.Server{Handler: ws}

	// Periodic checkpoints bound the log tail a restart must replay.
	if wlog != nil && cfg.snapshotEvery > 0 {
		go func() {
			tick := time.NewTicker(cfg.snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := f.Checkpoint(); err != nil {
						fmt.Fprintf(os.Stderr, "numaplaced: periodic snapshot: %v\n", err)
					}
				}
			}
		}()
	}

	// The readiness line load generators and the smoke test poll for.
	fmt.Printf("numaplaced: serving on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return fmt.Errorf("serving: %w", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: Stop ends the never-returning SSE handlers first
	// (Shutdown waits for active handlers), then Shutdown drains the rest.
	// Only after the last request has drained is the fleet checkpointed and
	// the log flushed and closed — a mutation racing the final snapshot
	// would otherwise be stranded in the buffer.
	fmt.Println("numaplaced: shutting down")
	ws.Stop()
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdown)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("draining in-flight requests: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if wlog != nil {
		if seq, err := f.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "numaplaced: final snapshot: %v (log retained)\n", err)
		} else {
			fmt.Printf("numaplaced: checkpointed at seq %d\n", seq)
		}
		if err := wlog.Close(); err != nil {
			return fmt.Errorf("closing write-ahead log: %w", err)
		}
	}
	fmt.Println("numaplaced: bye")
	return nil
}
