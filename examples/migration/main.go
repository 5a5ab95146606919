// Migration: reproduce the Table 2 scenario through the Engine — migrate
// each paper workload between node sets with the fast mechanism and with
// default Linux, then show the throttled option for the latency-sensitive
// WiredTiger container.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	eng := numaplace.New(numaplace.AMD())
	fmt.Printf("%-14s %10s %9s %9s %9s\n", "benchmark", "memory(GB)", "fast(s)", "linux(s)", "speedup")
	for _, w := range numaplace.PaperWorkloads() {
		p := numaplace.MigrationProfileFor(w, 16)
		fast, err := eng.Migrate(ctx, p, numaplace.MigrateFast)
		if err != nil {
			log.Fatal(err)
		}
		linux, err := eng.Migrate(ctx, p, numaplace.MigrateDefaultLinux)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %10.1f %9.1f %9.1f %8.1fx\n",
			w.Name, w.MemoryGB, fast.Seconds, linux.Seconds, linux.Seconds/fast.Seconds)
	}

	wt, _ := numaplace.WorkloadByName("WTbtree")
	th, err := eng.Migrate(ctx, numaplace.MigrationProfileFor(wt, 16), numaplace.MigrateThrottled)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthrottled WiredTiger: %.1f s, %.1f%% overhead while running (no freeze)\n",
		th.Seconds, th.OverheadPct)
}
