// Command loadgen drives concurrent container admissions against a live
// numaplaced daemon through the typed client and reports what the wire can
// sustain: rejection rate, place-latency percentiles (p50/p90/p99/p999)
// and event-feed accounting (frames received, frames the daemon dropped
// for this subscriber).
//
// Every admission is one cycle: place one container (workload drawn from
// the paper catalog by a seeded xrand stream), hold it for an exponentially
// distributed time, release it — the same arrival shapes internal/workloads
// scenarios use, but in wall time against a real socket. The run is seeded
// (-seed) so the request mix is reproducible; wall-clock latencies of
// course are not.
//
// By default -c workers run a closed loop: each runs one cycle after
// another, optionally thinking in between. With -rate the generator
// switches to an open loop: arrivals fire at the given rate on a fixed
// schedule regardless of completions (each cycle in its own goroutine), so
// a daemon slower than the offered load accumulates in-flight requests and
// its latency tail grows without bound instead of being hidden by
// closed-loop self-throttling — the honest way to probe a throughput
// ceiling. -c is ignored in this mode.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:7070 -n 20000 -c 32
//	loadgen -addr http://127.0.0.1:7070 -n 50000 -rate 5000   # open loop
//	loadgen -addr http://127.0.0.1:7070 -quick                # a short run
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
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/nperr"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// config is one loadgen run; each field is one flag's value.
type config struct {
	addr              string
	n, workers, vcpus int
	seed              uint64
	hold, think       time.Duration
	rate              float64 // open-loop arrivals per second; 0 runs the closed loop
	wait              time.Duration
}

// parseFlags parses loadgen's command line into a config. It reports each
// refusal on stderr itself, with the usage, as the flag package does its
// own, so its caller only picks the exit status.
func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.addr, "addr", "http://127.0.0.1:7070", "daemon base URL")
	fs.IntVar(&cfg.n, "n", 20000, "total admission attempts across all workers")
	fs.IntVar(&cfg.workers, "c", 16, "concurrent workers (closed loop)")
	fs.IntVar(&cfg.vcpus, "vcpus", 16, "vCPUs per container")
	fs.Uint64Var(&cfg.seed, "seed", 1, "request-mix seed (workload draws, hold times)")
	fs.DurationVar(&cfg.hold, "hold", 2*time.Millisecond, "mean container hold time before release")
	fs.DurationVar(&cfg.think, "think", 0, "mean per-worker think time between iterations (0 = none)")
	fs.Float64Var(&cfg.rate, "rate", 0, "open-loop arrival rate in placements/sec (0 = closed loop with -c workers)")
	fs.DurationVar(&cfg.wait, "wait", 60*time.Second, "how long to wait for the daemon to become ready")
	quick := fs.Bool("quick", false, "a short run (-n 400 -c 4 -hold 0, for the flags not given)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if *quick {
		// A short run, for the flags not given; holds just add
		// sleep-wakeup scheduler noise to it.
		given := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["n"] {
			cfg.n = 400
		}
		if !given["c"] {
			cfg.workers = 4
		}
		if !given["hold"] {
			cfg.hold = 0
		}
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = errors.New("unexpected arguments")
	case cfg.n <= 0 || cfg.workers <= 0 || cfg.vcpus <= 0 || cfg.hold < 0 || cfg.think < 0 ||
		!(cfg.rate >= 0) || math.IsInf(cfg.rate, 0):
		err = errors.New("-n, -c and -vcpus must be positive; -hold, -think and -rate non-negative, -rate finite")
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
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	report(os.Stdout, res)
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%d request errors, first: %v\n", res.Errors, res.firstErr)
		os.Exit(1)
	}
}

// result is what one run measured.
type result struct {
	N             int
	Workers       int // 0 for an open-loop run
	Admitted      int64
	Rejected      int64
	RejectionRate float64
	Errors        int64
	firstErr      error // the first of the Errors
	Duration      time.Duration
	Throughput    float64 // place attempts per second
	P50, P90, P99 time.Duration
	P999, Max     time.Duration
	EventsSeen    int64
	EventsDropped uint64
	// Durability posture of the daemon under test, read from /v1/log/head
	// at readiness: whether it persists at all, what boot-time recovery
	// replayed, and how many tenants it woke up with; LogSeq is re-read at
	// the end, so it counts the run's own writes.
	Persistent       bool
	RecoveredSeq     uint64
	RecoveredTenants int
	LogSeq           uint64
}

// gen is the state one run's cycles share: the client and the tallies.
type gen struct {
	c     *client.Client
	vcpus int

	admitted, rejected, errors atomic.Int64
	mu                         sync.Mutex
	latencies                  []float64 // ns per place attempt
	firstErr                   error
}

// cycle is one admission: place a container of workload, hold it for hold,
// release it. A rejection is a tally, not an error; a request that fails
// because ctx ended is neither.
func (g *gen) cycle(ctx context.Context, workload string, hold time.Duration) {
	t0 := time.Now()
	pr, err := g.c.Place(ctx, workload, g.vcpus)
	lat := float64(time.Since(t0))
	switch {
	case err == nil:
		g.admitted.Add(1)
		sleep(ctx, hold)
		if err := g.c.Release(ctx, pr.ID); err != nil && ctx.Err() == nil {
			g.fail(fmt.Errorf("release %d: %w", pr.ID, err))
		}
	case errors.Is(err, nperr.ErrFleetFull) || errors.Is(err, nperr.ErrNoHealthyBackend):
		g.rejected.Add(1)
	case ctx.Err() == nil:
		g.fail(fmt.Errorf("place: %w", err))
	}
	g.mu.Lock()
	g.latencies = append(g.latencies, lat)
	g.mu.Unlock()
}

func (g *gen) fail(err error) {
	g.errors.Add(1)
	g.mu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.mu.Unlock()
}

// sleep waits d, or until ctx is done.
func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// expDraw draws an exponentially distributed duration of the given mean
// from rng; a mean of 0 draws nothing.
func expDraw(rng *xrand.SplitMix64, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(-float64(mean) * math.Log(1-rng.Float64()))
}

// run waits for the daemon, watches its event feed and runs cfg.n cycles
// against it, in the closed loop or, with cfg.rate, the open one. Request
// errors are counted in the result (the first is kept); run itself fails
// only if the daemon never became ready, the feed would not open or ctx
// ended.
func run(ctx context.Context, cfg config) (result, error) {
	// Rejections must surface as rejections, not retried into admissions:
	// the measuring client never retries.
	c := client.New(cfg.addr, client.WithRetries(0))
	res := result{N: cfg.n, Workers: cfg.workers}

	// Readiness: the daemon trains engines before listening answers.
	deadline := time.Now().Add(cfg.wait)
	for {
		err := c.Healthz(ctx)
		if err == nil {
			break
		} else if time.Now().After(deadline) {
			return res, fmt.Errorf("daemon at %s not ready after %s: %w", cfg.addr, cfg.wait, err)
		}
		sleep(ctx, 100*time.Millisecond)
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
	}

	// Durability metadata: which sequence the daemon recovered to and how
	// many tenants it woke up with. Best-effort against older daemons —
	// the endpoint always exists on current ones, persistent=false when
	// the daemon runs without -data-dir.
	if h, err := c.LogHead(ctx); err == nil {
		res.Persistent, res.RecoveredSeq, res.RecoveredTenants, res.LogSeq =
			h.Persistent, h.RecoveredSeq, h.RecoveredTenants, h.Seq
	}

	// Event watcher: counts every frame this subscriber sees and every
	// frame the daemon says it dropped for us (the "dropped" frames).
	var eventsSeen atomic.Int64
	var eventsDropped atomic.Uint64
	es, err := c.Events(ctx)
	if err != nil {
		return res, fmt.Errorf("opening event stream: %w", err)
	}
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for {
			ev, err := es.Next()
			if err != nil {
				return
			}
			if ev.Type == "dropped" {
				eventsDropped.Add(ev.Dropped)
				continue
			}
			eventsSeen.Add(1)
		}
	}()

	g := &gen{c: c, vcpus: cfg.vcpus, latencies: make([]float64, 0, cfg.n)}
	start := time.Now()
	if cfg.rate > 0 {
		openLoop(ctx, g, cfg)
		res.Workers = 0 // no closed-loop workers drove this run
	} else {
		closedLoop(ctx, g, cfg)
	}
	res.Duration = time.Since(start)

	// Let the event tail land, then close the stream.
	time.Sleep(50 * time.Millisecond)
	es.Close()
	<-watcherDone

	if ctx.Err() != nil {
		return res, fmt.Errorf("interrupted: %w", ctx.Err())
	}

	pct := func(p float64) time.Duration { return time.Duration(stats.Percentile(g.latencies, p)) }
	res.Admitted, res.Rejected = g.admitted.Load(), g.rejected.Load()
	res.Errors, res.firstErr = g.errors.Load(), g.firstErr
	res.P50, res.P90, res.P99, res.P999, res.Max = pct(50), pct(90), pct(99), pct(99.9), pct(100)
	res.EventsSeen, res.EventsDropped = eventsSeen.Load(), eventsDropped.Load()
	if res.Persistent {
		if h, err := c.LogHead(ctx); err == nil {
			res.LogSeq = h.Seq
		}
	}
	if total := res.Admitted + res.Rejected; total > 0 {
		res.RejectionRate = float64(res.Rejected) / float64(total)
	}
	if res.Duration > 0 {
		res.Throughput = float64(len(g.latencies)) / res.Duration.Seconds()
	}
	return res, nil
}

// openLoop fires cfg.n arrivals on a fixed schedule derived from cfg.rate,
// each cycle in its own goroutine, so slow responses never slow the arrival
// process down. Workload and hold draws happen here, from the one seeded
// stream, keeping the request mix as reproducible as the closed loop's.
func openLoop(ctx context.Context, g *gen, cfg config) {
	catalog := workloads.Paper()
	rng := xrand.New(cfg.seed)
	interval := time.Duration(float64(time.Second) / cfg.rate)
	next := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.n && ctx.Err() == nil; i++ {
		sleep(ctx, time.Until(next))
		next = next.Add(interval)
		w := catalog[rng.Intn(len(catalog))]
		hold := expDraw(rng, cfg.hold)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.cycle(ctx, w.Name, hold)
		}()
	}
	wg.Wait()
}

// closedLoop runs cfg.workers workers, each with its own seeded stream, that
// share cfg.n cycles: a worker runs one, thinks, and takes the next.
func closedLoop(ctx context.Context, g *gen, cfg config) {
	catalog := workloads.Paper()
	var attempts atomic.Int64
	var wg sync.WaitGroup
	for worker := range cfg.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(xrand.Mix(cfg.seed, uint64(worker)))
			for attempts.Add(1) <= int64(cfg.n) && ctx.Err() == nil {
				w := catalog[rng.Intn(len(catalog))]
				g.cycle(ctx, w.Name, expDraw(rng, cfg.hold))
				sleep(ctx, expDraw(rng, cfg.think))
			}
		}()
	}
	wg.Wait()
}

// report prints a run's result for a reader.
func report(w io.Writer, r result) {
	fmt.Fprintf(w, "loadgen: %d attempts, %d workers, %.2fs\n", r.N, r.Workers, r.Duration.Seconds())
	fmt.Fprintf(w, "admitted   %8d\n", r.Admitted)
	fmt.Fprintf(w, "rejected   %8d  (%.1f%% rejection rate)\n", r.Rejected, 100*r.RejectionRate)
	fmt.Fprintf(w, "errors     %8d\n", r.Errors)
	fmt.Fprintf(w, "throughput %10.1f place/s\n", r.Throughput)
	fmt.Fprintf(w, "place latency: p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
		r.P50, r.P90, r.P99, r.P999, r.Max)
	fmt.Fprintf(w, "events: %d seen, %d dropped\n", r.EventsSeen, r.EventsDropped)
	if r.Persistent {
		fmt.Fprintf(w, "durability: log seq %d (daemon recovered %d tenants at seq %d)\n",
			r.LogSeq, r.RecoveredTenants, r.RecoveredSeq)
	}
}
