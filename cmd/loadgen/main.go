// Command loadgen drives concurrent container admissions against a live
// numaplaced daemon through the typed client and reports what the wire can
// sustain: rejection rate, place-latency percentiles (p50/p90/p99/p999)
// and event-feed accounting (frames received, frames the daemon dropped
// for this subscriber).
//
// Workers run a closed loop: place one container (workload drawn from the
// paper catalog by a per-worker xrand stream), hold it for an
// exponentially distributed time, release it, optionally think, repeat —
// the same arrival shapes internal/workloads scenarios use, but in wall
// time against a real socket. The run is seeded (-seed) so the request
// mix is reproducible; wall-clock latencies of course are not.
//
// With -rate the generator switches to an open loop: arrivals fire at the
// given rate on a fixed schedule regardless of completions (each in its
// own goroutine), so a daemon slower than the offered load accumulates
// in-flight requests and its latency tail grows without bound instead of
// being hidden by closed-loop self-throttling — the honest way to probe a
// throughput ceiling. -c is ignored in this mode.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:7070 -n 20000 -c 32
//	loadgen -addr http://127.0.0.1:7070 -n 50000 -rate 5000   # open loop
//	loadgen -addr http://127.0.0.1:7070 -quick -json   # CI smoke, one JSON line
package main

import (
	"context"
	"encoding/json"
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
	"repro/internal/wire"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7070", "daemon base URL")
	n := flag.Int("n", 20000, "total admission attempts across all workers")
	c := flag.Int("c", 16, "concurrent workers (closed loop)")
	vcpus := flag.Int("vcpus", 16, "vCPUs per container")
	seed := flag.Uint64("seed", 1, "request-mix seed (workload draws, hold times)")
	hold := flag.Duration("hold", 2*time.Millisecond, "mean container hold time before release")
	think := flag.Duration("think", 0, "mean per-worker think time between iterations (0 = none)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in placements/sec (0 = closed loop with -c workers)")
	wait := flag.Duration("wait", 60*time.Second, "how long to wait for the daemon to become ready")
	jsonOut := flag.Bool("json", false, "emit one JSON result line instead of the human report")
	quick := flag.Bool("quick", false, "small smoke run (-n 400 -c 4) for CI")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}
	if *quick {
		if !flagSet("n") {
			*n = 400
		}
		if !flagSet("c") {
			*c = 4
		}
		// Holds just add sleep-wakeup scheduler noise to a smoke run.
		if !flagSet("hold") {
			*hold = 0
		}
	}
	if *n <= 0 || *c <= 0 || *vcpus <= 0 || *hold < 0 || *think < 0 || !(*rate >= 0) || math.IsInf(*rate, 0) {
		fmt.Fprintln(os.Stderr, "-n, -c and -vcpus must be positive; -hold, -think and -rate non-negative, -rate finite")
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, *addr, *n, *c, *vcpus, *seed, *hold, *think, *rate, *wait, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// result is the -json output schema (scripts/daemonsmoke.sh parses it).
type result struct {
	N             int     `json:"n"`
	Workers       int     `json:"workers"`
	Admitted      int64   `json:"admitted"`
	Rejected      int64   `json:"rejected"`
	RejectionRate float64 `json:"rejection_rate"`
	Errors        int64   `json:"errors"`
	DurationNs    int64   `json:"duration_ns"`
	Throughput    float64 `json:"throughput_rps"`
	P50Ns         int64   `json:"p50_ns"`
	P90Ns         int64   `json:"p90_ns"`
	P99Ns         int64   `json:"p99_ns"`
	P999Ns        int64   `json:"p999_ns"`
	MaxNs         int64   `json:"max_ns"`
	EventsSeen    int64   `json:"events_seen"`
	EventsDropped uint64  `json:"events_dropped"`
	// Durability posture of the daemon under test, read from /v1/log/head
	// at readiness: whether it persists at all, what boot-time recovery
	// replayed, and how many tenants it woke up with. walsmoke diffs
	// RecoveredTenants/RecoveredSeq across a kill -9 restart.
	Persistent       bool   `json:"persistent"`
	RecoveredSeq     uint64 `json:"recovered_seq"`
	RecoveredTenants int    `json:"recovered_tenants"`
	LogSeq           uint64 `json:"log_seq"`
}

func run(ctx context.Context, addr string, n, workers, vcpus int, seed uint64,
	hold, think time.Duration, rate float64, wait time.Duration, jsonOut bool) error {
	// Rejections must surface as rejections, not retried into admissions:
	// the measuring client never retries.
	c := client.New(addr, client.WithRetries(0))

	// Readiness: the daemon trains engines before listening answers.
	deadline := time.Now().Add(wait)
	for {
		if err := c.Healthz(ctx); err == nil {
			break
		} else if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready after %s: %w", addr, wait, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}

	// Durability metadata: which sequence the daemon recovered to and how
	// many tenants it woke up with. Best-effort against older daemons —
	// the endpoint always exists on current ones, persistent=false when
	// the daemon runs without -data-dir.
	var head *wire.LogHead
	if h, err := c.LogHead(ctx); err == nil {
		head = h
	}

	// Event watcher: counts every frame this subscriber sees and every
	// frame the daemon says it dropped for us (the "dropped" frames).
	var eventsSeen int64
	var eventsDropped uint64
	es, err := c.Events(ctx)
	if err != nil {
		return fmt.Errorf("opening event stream: %w", err)
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
				atomic.AddUint64(&eventsDropped, ev.Dropped)
				continue
			}
			atomic.AddInt64(&eventsSeen, 1)
		}
	}()

	catalog := workloads.Paper()
	var (
		admitted, rejected, errCount int64
		attempts                     int64
		mu                           sync.Mutex
		latencies                    []float64 // ns per place attempt
		firstErr                     error
	)
	start := time.Now()
	var wg sync.WaitGroup
	if rate > 0 {
		// Open loop: arrivals fire on a fixed schedule derived from -rate,
		// each handled in its own goroutine, so slow responses never slow
		// the arrival process down. Workload and hold draws happen in the
		// pacing goroutine from the single seeded stream, keeping the
		// request mix as reproducible as the closed loop's.
		rng := xrand.New(seed)
		exp := func(mean time.Duration) time.Duration {
			if mean <= 0 {
				return 0
			}
			return time.Duration(-float64(mean) * math.Log(1-rng.Float64()))
		}
		interval := time.Duration(float64(time.Second) / rate)
		next := time.Now()
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			if d := time.Until(next); d > 0 {
				select {
				case <-ctx.Done():
				case <-time.After(d):
				}
			}
			next = next.Add(interval)
			w := catalog[rng.Intn(len(catalog))]
			holdFor := exp(hold)
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				pr, err := c.Place(ctx, w.Name, vcpus)
				lat := float64(time.Since(t0))
				mu.Lock()
				latencies = append(latencies, lat)
				mu.Unlock()
				switch {
				case err == nil:
					atomic.AddInt64(&admitted, 1)
					if holdFor > 0 {
						select {
						case <-ctx.Done():
						case <-time.After(holdFor):
						}
					}
					if err := c.Release(ctx, pr.ID); err != nil && ctx.Err() == nil {
						atomic.AddInt64(&errCount, 1)
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("release %d: %w", pr.ID, err)
						}
						mu.Unlock()
					}
				case errors.Is(err, nperr.ErrFleetFull) || errors.Is(err, nperr.ErrNoHealthyBackend):
					atomic.AddInt64(&rejected, 1)
				default:
					if ctx.Err() != nil {
						return
					}
					atomic.AddInt64(&errCount, 1)
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("place: %w", err)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		workers = 0 // reported: no closed-loop workers drove this run
	}
	for w := 0; rate == 0 && w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := xrand.New(xrand.Mix(seed, uint64(worker)))
			exp := func(mean time.Duration) time.Duration {
				if mean <= 0 {
					return 0
				}
				return time.Duration(-float64(mean) * math.Log(1-rng.Float64()))
			}
			local := make([]float64, 0, n/workers+1)
			for atomic.AddInt64(&attempts, 1) <= int64(n) {
				if ctx.Err() != nil {
					break
				}
				w := catalog[rng.Intn(len(catalog))]
				t0 := time.Now()
				pr, err := c.Place(ctx, w.Name, vcpus)
				local = append(local, float64(time.Since(t0)))
				switch {
				case err == nil:
					atomic.AddInt64(&admitted, 1)
					if d := exp(hold); d > 0 {
						select {
						case <-ctx.Done():
						case <-time.After(d):
						}
					}
					if err := c.Release(ctx, pr.ID); err != nil && ctx.Err() == nil {
						atomic.AddInt64(&errCount, 1)
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("release %d: %w", pr.ID, err)
						}
						mu.Unlock()
					}
				case errors.Is(err, nperr.ErrFleetFull) || errors.Is(err, nperr.ErrNoHealthyBackend):
					atomic.AddInt64(&rejected, 1)
				default:
					if ctx.Err() != nil {
						break
					}
					atomic.AddInt64(&errCount, 1)
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("place: %w", err)
					}
					mu.Unlock()
				}
				if d := exp(think); d > 0 {
					select {
					case <-ctx.Done():
					case <-time.After(d):
					}
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Let the event tail land, then close the stream.
	time.Sleep(50 * time.Millisecond)
	es.Close()
	<-watcherDone

	if ctx.Err() != nil {
		return fmt.Errorf("interrupted: %w", ctx.Err())
	}

	pct := func(p float64) int64 { return int64(stats.Percentile(latencies, p)) }
	total := admitted + rejected
	res := result{
		N:             n,
		Workers:       workers,
		Admitted:      admitted,
		Rejected:      rejected,
		Errors:        errCount,
		DurationNs:    elapsed.Nanoseconds(),
		P50Ns:         pct(50),
		P90Ns:         pct(90),
		P99Ns:         pct(99),
		P999Ns:        pct(99.9),
		MaxNs:         pct(100),
		EventsSeen:    atomic.LoadInt64(&eventsSeen),
		EventsDropped: atomic.LoadUint64(&eventsDropped),
	}
	if head != nil {
		res.Persistent = head.Persistent
		res.RecoveredSeq = head.RecoveredSeq
		res.RecoveredTenants = head.RecoveredTenants
		// Re-read at the end so LogSeq reflects the run's own writes.
		if h, err := c.LogHead(ctx); err == nil {
			res.LogSeq = h.Seq
		} else {
			res.LogSeq = head.Seq
		}
	}
	if total > 0 {
		res.RejectionRate = float64(rejected) / float64(total)
	}
	if elapsed > 0 {
		res.Throughput = float64(len(latencies)) / elapsed.Seconds()
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		report(os.Stdout, res)
	}
	if firstErr != nil {
		return fmt.Errorf("%d request errors, first: %w", errCount, firstErr)
	}
	return nil
}

func report(w io.Writer, r result) {
	fmt.Fprintf(w, "loadgen: %d attempts, %d workers, %.2fs\n",
		r.N, r.Workers, time.Duration(r.DurationNs).Seconds())
	fmt.Fprintf(w, "admitted   %8d\n", r.Admitted)
	fmt.Fprintf(w, "rejected   %8d  (%.1f%% rejection rate)\n", r.Rejected, 100*r.RejectionRate)
	fmt.Fprintf(w, "errors     %8d\n", r.Errors)
	fmt.Fprintf(w, "throughput %10.1f place/s\n", r.Throughput)
	fmt.Fprintf(w, "place latency: p50 %s  p90 %s  p99 %s  p99.9 %s  max %s\n",
		time.Duration(r.P50Ns), time.Duration(r.P90Ns), time.Duration(r.P99Ns),
		time.Duration(r.P999Ns), time.Duration(r.MaxNs))
	fmt.Fprintf(w, "events: %d seen, %d dropped\n", r.EventsSeen, r.EventsDropped)
	if r.Persistent {
		fmt.Fprintf(w, "durability: log seq %d (daemon recovered %d tenants at seq %d)\n",
			r.LogSeq, r.RecoveredTenants, r.RecoveredSeq)
	}
}
