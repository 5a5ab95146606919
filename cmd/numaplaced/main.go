//go:build unix

// Command numaplaced serves a numaplace.Cluster over the wire protocol:
// an HTTP/JSON daemon remote callers drive through repro/client (or plain
// curl). On startup it trains one predictor per machine model named in
// -machines (internal/recipe), builds one Engine per entry serving its
// model's predictor, assembles the cluster under the chosen routing
// policy, and listens.
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
// kill -9. A log that fails structural validation refuses the boot with
// exit 3 — serving from silently wrong state is worse than not
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
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/nperr"
	"repro/internal/recipe"
	"repro/internal/wal"
	"repro/internal/wire"
)

// parseFlags parses numaplaced's command line into a config. It reports each
// refusal on stderr itself, with the usage, as the flag package does its own,
// so its caller only picks the exit status.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("numaplaced", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7070", "listen address (host:port; port 0 picks an ephemeral port)")
	machineList := fs.String("machines", "amd,intel", "comma-separated machine models forming the fleet")
	policyName := fs.String("policy", "best-predicted", "routing policy: first-fit, least-loaded or best-predicted")
	fs.IntVar(&cfg.vcpus, "vcpus", 16, "vCPUs per container the engines are trained for")
	fs.Float64Var(&cfg.drainBelow, "drain-below", 0.5, "consolidate machines below this utilization during rebalance")
	fs.BoolVar(&cfg.spread, "spread", false, "spread replicas of a workload across failure domains (racks)")
	fs.IntVar(&cfg.eventsBuffer, "events-buffer", 1024, "per-subscriber event ring size on /v1/events")
	fs.DurationVar(&cfg.shutdown, "shutdown-timeout", 10*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	fs.BoolVar(&cfg.quick, "quick", false, "reduced training fidelity (CI smoke)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "directory for the write-ahead log and snapshots (empty: no persistence)")
	fsync := fs.String("fsync", "always", "log durability policy: always, interval or none (needs -data-dir)")
	fs.DurationVar(&cfg.fsyncInterval, "fsync-interval", 50*time.Millisecond, "flush cadence under -fsync interval (needs -data-dir)")
	fs.DurationVar(&cfg.snapshotEvery, "snapshot-every", 0, "periodic checkpoint cadence (0: only on shutdown and POST /v1/snapshot; needs -data-dir)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.machines = strings.Split(*machineList, ",")
	unknown := slices.IndexFunc(cfg.machines, func(m string) bool {
		_, ok := numaplace.MachineByName(m)
		return !ok
	})
	var policyOK, fsyncOK bool
	cfg.policy, policyOK = numaplace.ClusterPolicyByName(*policyName)
	cfg.fsync, fsyncOK = wal.PolicyByName(*fsync)
	var persistence []string // the persistence flags given
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "fsync" || f.Name == "fsync-interval" || f.Name == "snapshot-every" {
			persistence = append(persistence, "-"+f.Name)
		}
	})
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	case cfg.dataDir == "" && len(persistence) > 0:
		// The persistence flags tune a log that exists only with -data-dir.
		err = fmt.Errorf("%s need -data-dir", strings.Join(persistence, ", "))
	case cfg.vcpus <= 0 || cfg.eventsBuffer <= 0:
		err = errors.New("-vcpus and -events-buffer must be positive")
	case math.IsNaN(cfg.drainBelow) || math.IsInf(cfg.drainBelow, 0):
		// NaN would pass as a threshold no utilization is below.
		err = errors.New("-drain-below must be a finite number")
	case cfg.fsyncInterval <= 0:
		// The log would quietly flush at its 50ms default instead.
		err = fmt.Errorf("-fsync-interval %s: must be positive", cfg.fsyncInterval)
	case cfg.snapshotEvery < 0:
		// 0 is off; a negative cadence would silently be off too.
		err = fmt.Errorf("-snapshot-every %s: must not be negative", cfg.snapshotEvery)
	case cfg.shutdown < 0:
		err = fmt.Errorf("-shutdown-timeout %s: must not be negative", cfg.shutdown)
	case unknown >= 0:
		err = fmt.Errorf("-machines: unknown machine model %q", cfg.machines[unknown])
	case !policyOK:
		err = fmt.Errorf("unknown policy %q", *policyName)
	case !fsyncOK:
		err = fmt.Errorf("unknown fsync policy %q", *fsync)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		fs.Usage()
	}
	return cfg, err
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, os.Stdout); err != nil {
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

// run trains the fleet, recovers it from -data-dir if one is given, and
// serves it until ctx is done (main cancels it on SIGINT or SIGTERM); then it
// shuts down gracefully. It prints the daemon's progress lines to stdout.
func run(ctx context.Context, cfg config, stdout io.Writer) error {
	models, err := recipe.Train(ctx, cfg.machines, cfg.vcpus, cfg.quick)
	if err != nil {
		return err
	}
	cl, err := models.Build(ctx, numaplace.ClusterConfig{
		Policy: cfg.policy, DrainBelow: cfg.drainBelow, SpreadDomains: cfg.spread,
	})
	if err != nil {
		return err
	}
	for _, name := range cl.Names() {
		b, _ := cl.Backend(name)
		fmt.Fprintf(stdout, "numaplaced: trained %s (%s)\n", name, b.Machine().Topo.Name)
	}

	// Recovery happens after training and before serving: the engines are
	// rebuilt deterministically (fixed seeds, same flags), so replaying the
	// log against them reconstructs the pre-crash placements exactly.
	wcfg := wire.Config{EventBuffer: cfg.eventsBuffer}
	var wlog *wal.Log
	recovered := 0
	if cfg.dataDir != "" {
		l, opened, restored, err := recipe.Recover(ctx, cl, wal.Options{
			Dir: cfg.dataDir, Fsync: cfg.fsync, Interval: cfg.fsyncInterval,
		})
		if err != nil {
			return err
		}
		wlog = l
		recovered = len(cl.Assignments())
		defer wlog.Close()
		head := wlog.Head()
		// Recovery time is downtime: say what it cost, per phase.
		fmt.Fprintf(stdout, "numaplaced: recovered %d tenants at seq %d (snapshot %d) from %s: %d records replayed, open %s, restore %s\n",
			recovered, head.RecoveredSeq, head.SnapshotSeq, cfg.dataDir, head.RecoveredSeq-head.SnapshotSeq,
			opened.Round(time.Microsecond), restored.Round(time.Microsecond))
		wcfg.LogHead = func() wire.LogHead {
			h := wlog.Head()
			return wire.LogHead{
				Seq: h.Seq, SnapshotSeq: h.SnapshotSeq, RecoveredSeq: h.RecoveredSeq,
				RecoveredTenants: recovered, Persistent: true,
			}
		}
		wcfg.Snapshot = func() (uint64, error) { return cl.Checkpoint() }
	}

	ws := wire.NewServer(cl, wcfg)
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", cfg.listen, err)
	}
	srv := &http.Server{Handler: ws}

	// Periodic checkpoints bound the log tail a restart must replay. The
	// ticker ends with ctx, before the final checkpoint and the log's close.
	var ticking sync.WaitGroup
	if wlog != nil && cfg.snapshotEvery > 0 {
		ticking.Add(1)
		go func() {
			defer ticking.Done()
			tick := time.NewTicker(cfg.snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if _, err := cl.Checkpoint(); err != nil {
						fmt.Fprintf(os.Stderr, "numaplaced: periodic snapshot: %v\n", err)
					}
				}
			}
		}()
	}

	// The readiness line load generators and the tests poll for.
	fmt.Fprintf(stdout, "numaplaced: serving on http://%s\n", ln.Addr())

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
	fmt.Fprintln(stdout, "numaplaced: shutting down")
	ws.Stop()
	sctx, cancel := context.WithTimeout(context.Background(), cfg.shutdown)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("draining in-flight requests: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	ticking.Wait()
	if wlog != nil {
		if seq, err := cl.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "numaplaced: final snapshot: %v (log retained)\n", err)
		} else {
			fmt.Fprintf(stdout, "numaplaced: checkpointed at seq %d\n", seq)
		}
		if err := wlog.Close(); err != nil {
			return fmt.Errorf("closing write-ahead log: %w", err)
		}
	}
	fmt.Fprintln(stdout, "numaplaced: bye")
	return nil
}
