// Package migrate simulates container memory migration between NUMA node
// sets, reproducing the §7 migration study (Table 2). Three mechanisms are
// modelled on the discrete-event kernel:
//
//   - DefaultLinux: the stock migrate_pages path — a single kernel thread
//     moves anonymous pages one batch at a time, pays a reverse-map walk
//     per shared mapping, contends on mmap_sem with the running
//     application's threads, updates every task's cpuset, and does not
//     migrate the page cache.
//
//   - Fast: the paper's improved mechanism (after Lepers et al.) — the
//     container is frozen (no lock contention), several worker threads
//     stream pages concurrently up to the interconnect bandwidth, and the
//     page cache is migrated too.
//
//   - Throttled: the latency-sensitive variant — the container keeps
//     running while migration is bandwidth-throttled, trading a longer
//     migration for a small bounded slowdown.
package migrate

import (
	"context"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/perfsim"
)

// Profile describes the migration-relevant shape of a container's memory.
type Profile struct {
	Name        string
	AnonGB      float64 // anonymous memory (Linux can migrate this)
	PageCacheGB float64 // page cache (only Fast/Throttled migrate this)
	Tasks       int     // tasks whose cpusets must be updated
	// HugePageFrac is the fraction of anonymous memory backed by
	// transparent huge pages: one migration operation moves 512x the
	// data, which is why array-heavy workloads (kmeans, pca) migrate far
	// faster per GB under default Linux than pointer-chasing ones.
	HugePageFrac float64
	// SharedMappings is the number of address spaces mapping the average
	// shared page (Postgres shared buffers): the kernel's rmap walk visits
	// each during unmap, the mechanism behind TPC-C's pathological times.
	SharedMappings int
	// RunningThreads is the number of application threads contending on
	// mmap_sem while default Linux migrates without freezing.
	RunningThreads int
}

// ProfileFor derives a migration profile from a workload descriptor.
// Per-workload overrides encode known structure: huge-page-friendly
// numeric workloads, Postgres shared buffers, JVM thread armies.
func ProfileFor(w perfsim.Workload, vcpus int) Profile {
	p := Profile{
		Name:           w.Name,
		AnonGB:         math.Max(0, w.MemoryGB-w.PageCacheGB),
		PageCacheGB:    w.PageCacheGB,
		Tasks:          w.Processes,
		HugePageFrac:   0.25,
		SharedMappings: 1,
		RunningThreads: vcpus,
	}
	switch w.Name {
	case "kmeans", "pca", "streamcluster", "swaptions":
		p.HugePageFrac = 0.95 // large numeric arrays, fully THP-backed
	case "postgres-tpch":
		p.SharedMappings = 6 // shared buffers mapped by scan backends
	case "postgres-tpcc":
		p.SharedMappings = 24 // many hot backends on the same buffers
	case "spark-cc", "spark-pr-lj":
		p.RunningThreads = 400 // JVM worker/GC/JIT threads hammer mmap_sem
		p.HugePageFrac = 0
	case "WTbtree":
		p.RunningThreads = 64 // eviction + reader threads
		p.HugePageFrac = 0.1
	case "dc.B":
		p.RunningThreads = 48
		p.HugePageFrac = 0.1
	case "wc", "wr":
		p.RunningThreads = 32
	}
	return p
}

// Mechanism selects the migration implementation.
type Mechanism int

const (
	DefaultLinux Mechanism = iota
	Fast
	Throttled
)

func (m Mechanism) String() string {
	switch m {
	case DefaultLinux:
		return "default-linux"
	case Fast:
		return "fast"
	case Throttled:
		return "throttled"
	default:
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
}

// Kernel cost constants (seconds), calibrated against Table 2. They model
// mechanisms, not workloads: every workload uses the same constants.
const (
	// fastWorkers is the number of concurrent copy threads Fast runs.
	fastWorkers = 8

	pageKB = 4
	hugeKB = 2048

	// Default Linux: per-operation CPU cost of move_pages-style migration
	// (isolate, unmap with rmap walk, copy, remap), single-threaded.
	linuxPerOpSec = 14e-6
	// Additional unmap cost per extra shared mapping per operation.
	linuxRmapSec = 9e-6
	// mmap_sem contention: each running application thread adds this
	// fraction of extra wall time to every operation.
	linuxContention = 0.006
	// cpuset update cost per task (cgroup attach, IPI storm).
	linuxPerTaskSec = 0.05

	// Fast path: frozen container, batched unmap, reduced (but not free)
	// rmap cost for shared anonymous pages, per-operation cost amortized
	// by worker pipelining.
	fastPerOpSec   = 1.2e-6
	fastRmapSec    = 2e-6
	fastPerTaskSec = 0.004 // freezing and cpuset update are batched
	fastFreezeSec  = 0.05  // freeze/thaw round trip

	// Copy bandwidths (MB/s): one Fast worker's stream over the
	// interconnect, the machine-level ceiling all workers share, and the
	// Throttled cap, which moves WiredTiger's 36.3 GB in roughly a minute as
	// reported.
	linkMBs      = 1800
	aggregateMBs = 6300
	throttleMBs  = 620
)

// Result reports one simulated migration.
type Result struct {
	Mechanism Mechanism
	// Seconds is the wall-clock migration time.
	Seconds float64
	// MovedGB is the amount of memory actually migrated.
	MovedGB float64
	// PageCacheGB is the page-cache portion moved (0 for DefaultLinux).
	PageCacheGB float64
	// OverheadPct is the application slowdown while migrating (only
	// meaningful for Throttled, which keeps the container running;
	// DefaultLinux reports the slowdown from lock contention, and Fast
	// reports 100 because the container is frozen).
	OverheadPct float64
}

// Run simulates migrating the container described by p with the given
// mechanism. The simulation is deterministic. One simulated migration is
// fast, but schedulers run many back to back (e.g. a rebalance pass over
// every admitted container), so the context is honoured before simulating.
func Run(ctx context.Context, p Profile, mech Mechanism) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.AnonGB < 0 || p.PageCacheGB < 0 {
		return nil, fmt.Errorf("migrate: negative memory in profile %q", p.Name)
	}
	switch mech {
	case DefaultLinux:
		return runLinux(p), nil
	case Fast:
		return runFast(p, fastWorkers), nil
	case Throttled:
		return runThrottled(p), nil
	default:
		return nil, fmt.Errorf("migrate: unknown mechanism %v", mech)
	}
}

// ops returns the number of migration operations for a memory region,
// honouring the huge-page mix.
func ops(gb, hugeFrac float64) float64 {
	kb := gb * 1024 * 1024
	return kb*hugeFrac/hugeKB + kb*(1-hugeFrac)/pageKB
}

// runLinux models the stock kernel path: one thread, anonymous memory
// only, rmap walks, lock contention with the running app, per-task cpuset
// updates.
func runLinux(p Profile) *Result {
	var sim des.Sim
	nOps := ops(p.AnonGB, p.HugePageFrac)
	perOp := linuxPerOpSec + linuxRmapSec*float64(p.SharedMappings-1)
	contention := 1 + linuxContention*float64(p.RunningThreads)

	// Per-task cpuset updates happen first, then the single-threaded copy
	// loop; chunked so the event queue stays small.
	sim.After(linuxPerTaskSec*float64(p.Tasks), func() {})
	sim.Run()
	copySeconds := nOps * perOp * contention
	// The copy itself is also bounded by single-stream bandwidth.
	minCopy := p.AnonGB * 1024 / 900 // ~900 MB/s single-threaded stream
	if copySeconds < minCopy {
		copySeconds = minCopy
	}
	chunks := 100
	for i := 0; i < chunks; i++ {
		sim.After(copySeconds/float64(chunks), func() {})
		sim.RunUntil(sim.Now() + copySeconds/float64(chunks))
	}
	// Lock contention slows the application roughly in proportion to the
	// time the migrating thread holds mmap_sem.
	overhead := math.Min(60, 20+0.2*float64(p.RunningThreads))
	return &Result{
		Mechanism:   DefaultLinux,
		Seconds:     sim.Now(),
		MovedGB:     p.AnonGB,
		OverheadPct: overhead,
	}
}

// runFast models the paper's mechanism: freeze, the given number of parallel
// workers copying anon + page cache, batched bookkeeping, thaw.
func runFast(p Profile, workers int) *Result {
	var sim des.Sim
	totalGB := p.AnonGB + p.PageCacheGB

	// Effective copy bandwidth: workers stream concurrently, bounded by
	// the aggregate interconnect ceiling.
	bw := math.Min(float64(workers)*linkMBs, aggregateMBs)

	// CPU-side per-operation cost is spread across workers; the frozen
	// container means no mmap_sem waiters, and batching slashes — but does
	// not eliminate — the rmap cost of shared anonymous pages.
	anonOps := ops(p.AnonGB, p.HugePageFrac)
	cacheOps := ops(p.PageCacheGB, 0)
	cpuSeconds := (anonOps*(fastPerOpSec+fastRmapSec*float64(p.SharedMappings-1)) +
		cacheOps*fastPerOpSec) / float64(workers)
	copySeconds := math.Max(cpuSeconds, totalGB*1024/bw)

	sim.After(fastFreezeSec+fastPerTaskSec*float64(p.Tasks), func() {})
	sim.Run()
	// Workers drain per-node page lists; simulate worker completion events.
	per := copySeconds / float64(workers)
	for w := 0; w < workers; w++ {
		// Workers start staggered by bookkeeping, finish together within
		// a batch epsilon.
		sim.At(sim.Now()+per*float64(workers), func() {})
	}
	sim.Run()
	return &Result{
		Mechanism:   Fast,
		Seconds:     sim.Now(),
		MovedGB:     totalGB,
		PageCacheGB: p.PageCacheGB,
		OverheadPct: 100, // container frozen for the duration
	}
}

// runThrottled models the latency-sensitive variant: the container keeps
// running; copy bandwidth is capped so the application slowdown stays low.
func runThrottled(p Profile) *Result {
	var sim des.Sim
	totalGB := p.AnonGB + p.PageCacheGB
	bw := float64(throttleMBs)
	copySeconds := totalGB * 1024 / bw
	sim.After(fastPerTaskSec*float64(p.Tasks), func() {})
	sim.Run()
	sim.After(copySeconds, func() {})
	sim.Run()
	// Slowdown: migration traffic steals a slice of one node's memory
	// bandwidth plus brief unmap stalls.
	overhead := 2 + bw/300.0
	return &Result{
		Mechanism:   Throttled,
		Seconds:     sim.Now(),
		MovedGB:     totalGB,
		PageCacheGB: p.PageCacheGB,
		OverheadPct: overhead,
	}
}
