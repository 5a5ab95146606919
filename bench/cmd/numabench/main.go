// Command numabench is the repo's benchmark (see bench/README.md and
// BENCHMARK.json).
//
// The driver's form runs one workload once and prints the contract's JSON
// object as the last line of standard output:
//
//	numabench --workload fleet_resident --seed 1 --seconds 25 --trace 0
//
// Without --workload it runs every workload, tracing off and then the
// traced pass, and prints every metric by name with its unit. With
// -repeat N it runs that whole set on N consecutive seeds and prints, per
// metric, the median, the quartiles and the relative spread the driver
// computes (interquartile distance over median).
//
// The program starts no processes. The daemon wire_churn measures is
// assembled in process; every listener, goroutine and temp directory is
// gone when it returns, also on SIGINT/SIGTERM and when the whole-run
// deadline fires.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/bench"
)

// runDeadline bounds one run of one workload; the driver allows 180 s.
const runDeadline = 170 * time.Second

var errDeadline = errors.New("whole-run deadline exceeded")

func main() {
	workload := flag.String("workload", "", "workload to run once (default: all, tracing off then traced)")
	seed := flag.Uint64("seed", 1, "input seed: the same seed generates the same requests")
	seconds := flag.Float64("seconds", 25, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics, traced pass")
	repeat := flag.Int("repeat", 0, "run the whole set on this many consecutive seeds and print each metric's spread")
	out := flag.String("out", "bench/out", "directory for trace-*.json")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "numabench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == 1, *repeat, *out))
}

func run(workload string, seed uint64, seconds float64, traced bool, repeat int, out string) int {
	// Every temp directory the benchmark makes nests under one root, so a
	// single RemoveAll — deferred, and repeated by the last-resort watchdog
	// — proves none is left behind.
	root, err := os.MkdirTemp("", "numabench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "numabench:", err)
		return 1
	}
	defer os.RemoveAll(root)
	os.Setenv("TMPDIR", root)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	one := func(name string, seed uint64, traced bool) *bench.Report {
		rctx, cancel := context.WithTimeoutCause(ctx, runDeadline, errDeadline)
		defer cancel()
		// Cancellation unwinds every loop and teardown; if something
		// ignores it, leave nothing behind anyway.
		watchdog := time.AfterFunc(runDeadline+30*time.Second, func() {
			fmt.Fprintln(os.Stderr, "numabench: run did not unwind after its deadline; exiting")
			os.RemoveAll(root)
			os.Exit(3)
		})
		defer watchdog.Stop()
		rep := bench.Run(rctx, bench.Options{Workload: name, Seed: seed, Seconds: seconds, Traced: traced, OutDir: out})
		rep.Print(os.Stdout)
		return rep
	}

	if workload != "" {
		rep := one(workload, seed, traced)
		fmt.Println(rep.ResultLine())
		if !rep.Result.Correct {
			return 1
		}
		return 0
	}

	if repeat == 0 {
		repeat = 1
	}
	var reports []*bench.Report
	ok := true
	for i := 0; i < repeat && ctx.Err() == nil; i++ {
		for _, traced := range []bool{false, true} {
			for _, w := range bench.Workloads {
				rep := one(w.Name, seed+uint64(i), traced)
				ok = ok && rep.Result.Correct
				reports = append(reports, rep)
			}
		}
	}
	if repeat > 1 {
		bench.PrintSpread(os.Stdout, reports)
	}
	if !ok || ctx.Err() != nil {
		fmt.Println("numabench: FAILED (see FAILED CHECK lines above)")
		return 1
	}
	fmt.Println("numabench: all checks passed")
	return 0
}
