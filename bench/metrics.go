package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric names one reported number and its unit. End-to-end metrics also
// carry which direction is better and the regression bound: the share of
// the parent commit's median by which a change may worsen it.
type Metric struct {
	Name, Unit string
	Better     string
	Bound      float64
}

// EndToEnd lists what a caller of the system sees, in BENCHMARK.json's
// order. Every workload reports every one (the driver's contract), so the
// names are generic over two notions bench/README.md defines per workload:
// the unit of work (a place+release cycle; a replayed record) and the
// awaited operation (a Place; a restart).
var EndToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_tail_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// PerLayer lists the traced pass's numbers, one module per prefix. A
// metric a workload's layers never produce reads 0 there.
var PerLayer = []Metric{
	{Name: "caller.place.total_us", Unit: "us"},
	{Name: "caller.release.total_us", Unit: "us"},
	{Name: "client.place.self_us", Unit: "us"},
	{Name: "client.release.self_us", Unit: "us"},
	{Name: "transport.place.self_us", Unit: "us"},
	{Name: "transport.release.self_us", Unit: "us"},
	{Name: "transport.conns_dialed", Unit: "count"},
	{Name: "transport.bytes_per_place", Unit: "B"},
	{Name: "wire.place.self_us", Unit: "us"},
	{Name: "wire.release.self_us", Unit: "us"},
	{Name: "wire.handler.place.total_us", Unit: "us"},
	{Name: "fleet.place.self_us", Unit: "us"},
	{Name: "fleet.release.self_us", Unit: "us"},
	{Name: "fleet.place.preview_calls", Unit: "count"},
	{Name: "fleet.place.backend_tries", Unit: "count"},
	{Name: "fleet.place.try_success_share", Unit: "share"},
	{Name: "fleet.place.reject_share", Unit: "share"},
	{Name: "fleet.fill_tenants", Unit: "count"},
	{Name: "fleet.resident_tenants", Unit: "count"},
	{Name: "engine.preview.total_us", Unit: "us"},
	{Name: "engine.place.total_us", Unit: "us"},
	{Name: "engine.place.reject_us", Unit: "us"},
	{Name: "engine.place.reject_share", Unit: "share"},
	{Name: "engine.release.total_us", Unit: "us"},
	{Name: "engine.pin.hit_share", Unit: "share"},
	{Name: "engine.placements.hit_share", Unit: "share"},
	{Name: "engine.predict.ns", Unit: "ns"},
	{Name: "fleet.stats.total_us", Unit: "us"},
	{Name: "fleet.assignments.total_us", Unit: "us"},
	{Name: "fleet.rebalance.total_us", Unit: "us"},
	{Name: "fleet.rebalance.moves_per_pass", Unit: "count"},
	{Name: "fleet.drain.total_us", Unit: "us"},
	{Name: "fleet.fail.total_us", Unit: "us"},
	{Name: "fleet.revive.total_us", Unit: "us"},
	{Name: "fleet.checkpoint.total_us", Unit: "us"},
	{Name: "engine.rebalance.total_us", Unit: "us"},
	{Name: "wal.append.total_us", Unit: "us"},
	{Name: "wal.commit.total_us", Unit: "us"},
	{Name: "wal.commits_per_place", Unit: "count"},
	{Name: "wal.records_per_place", Unit: "count"},
	{Name: "wal.bytes_per_record", Unit: "B"},
	{Name: "wal.snapshot.total_us", Unit: "us"},
	{Name: "wal.snapshot.bytes", Unit: "B"},
	{Name: "wal.fsync_always.commit_us", Unit: "us"},
	{Name: "wal.open.total_ms", Unit: "ms"},
	{Name: "wal.replay.records", Unit: "count"},
	{Name: "fleet.restore.total_ms", Unit: "ms"},
	{Name: "fleet.restore.adopt_calls", Unit: "count"},
	{Name: "engine.adopt.total_us", Unit: "us"},
	{Name: "events.frames_per_place", Unit: "count"},
	{Name: "events.dropped", Unit: "count"},
	{Name: "trace.overhead_share", Unit: "share"},
	{Name: "trace.reconcile_share", Unit: "share"},
	{Name: "trace.machine_speed", Unit: "share"},
}

// Value is one measured metric in the result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints: the driver's contract.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Report is everything one run of one workload produced. Extra holds
// numbers measured alongside the end-to-end ones that the contract cannot
// gate (a workload lacks them, or they may read 0); Notes holds the
// decision digest and other strings.
type Report struct {
	Workload string
	Seed     uint64
	Traced   bool
	Env      environment // as the run saw it: one processor
	Result   Result
	Extra    map[string]Value
	Notes    map[string]string
	Problems []string
}

// newReport starts a report with every metric of the run's kind present.
func newReport(workload string, seed uint64, traced bool) *Report {
	r := &Report{Workload: workload, Seed: seed, Traced: traced, Env: currentEnv(),
		Result: Result{Metrics: map[string]Value{}},
		Extra:  map[string]Value{}, Notes: map[string]string{}}
	list := EndToEnd
	if traced {
		list = PerLayer
	}
	for _, m := range list {
		r.Result.Metrics[m.Name] = Value{Unit: m.Unit}
	}
	return r
}

// set records a declared metric; an undeclared name is a bug in this
// package and fails the run.
func (r *Report) set(name string, v float64) {
	cur, ok := r.Result.Metrics[name]
	if !ok {
		r.problem("metric %q is not declared for this kind of run", name)
		return
	}
	cur.Value = v
	r.Result.Metrics[name] = cur
}

func (r *Report) extra(name, unit string, v float64) { r.Extra[name] = Value{v, unit} }

// problem records a failed output check; any problem makes the run
// incorrect and the command exit non-zero.
func (r *Report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *Report) finish() {
	r.Result.Failed += len(r.Problems)
	if r.Result.Attempted < 1 {
		r.Result.Attempted = 1
	}
	r.Result.Correct = r.Result.Failed == 0
}

// Print writes the human-readable report: every metric by name with its
// unit, in declaration order.
func (r *Report) Print(w *os.File) {
	kind := "end-to-end, tracing off"
	list := EndToEnd
	if r.Traced {
		kind, list = "per-layer, traced pass", PerLayer
	}
	fmt.Fprintf(w, "== %s seed %d (%s) ==\n", r.Workload, r.Seed, kind)
	fmt.Fprintf(w, "env: %s\n", r.Env)
	for _, m := range list {
		v := r.Result.Metrics[m.Name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	for _, name := range sortedKeys(r.Extra) {
		v := r.Extra[name]
		fmt.Fprintf(w, "  %-32s %14.4f %s (not gated)\n", name, v.Value, v.Unit)
	}
	for _, name := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "  %s: %s\n", name, r.Notes[name])
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", r.Result.Attempted, r.Result.Failed, r.Result.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

// ResultLine is the one-line JSON object the driver reads.
func (r *Report) ResultLine() string {
	b, err := json.Marshal(r.Result)
	if err != nil {
		panic(err) // a map of floats and strings always encodes
	}
	return string(b)
}

// quartiles returns the quartile cut points the way Python's
// statistics.quantiles(v, n=4) does (the driver's spread rule).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// PrintSpread is the stability harness's summary: for every metric of
// every workload, over the reports of a -repeat run, the median, the
// quartiles and the spread (interquartile distance over median). An
// end-to-end metric is steady enough to gate on when its spread is under a
// third of its bound; one that is not is marked and must be demoted to a
// per-layer metric, with the spread recorded in bench/README.md.
func PrintSpread(w *os.File, reports []*Report) {
	type key struct {
		workload string
		traced   bool
	}
	values := map[key]map[string][]float64{}
	for _, r := range reports {
		k := key{r.Workload, r.Traced}
		if values[k] == nil {
			values[k] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			values[k][name] = append(values[k][name], v.Value)
		}
	}
	for _, traced := range []bool{false, true} {
		list := EndToEnd
		if traced {
			list = PerLayer
		}
		for _, wl := range Workloads {
			vs := values[key{wl.Name, traced}]
			if vs == nil {
				continue
			}
			fmt.Fprintf(w, "== spread: %s traced=%v (%d runs) ==\n", wl.Name, traced, len(vs[list[0].Name]))
			for _, m := range list {
				q1, q2, q3 := quartiles(vs[m.Name])
				spread := 0.0
				if q2 != 0 {
					spread = (q3 - q1) / q2
				}
				mark := ""
				switch {
				case m.Bound > 0 && spread > m.Bound:
					mark = "  UNSTEADY: spread exceeds the bound"
				case m.Bound > 0 && spread > m.Bound/3:
					mark = "  (over a third of the bound)"
				}
				fmt.Fprintf(w, "  %-32s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.2f%% %s%s\n",
					m.Name, q2, q1, q3, 100*spread, m.Unit, mark)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile reads the q-quantile of an ascending slice (nearest rank); 0 for
// an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// environment is recorded in every report and trace file.
type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func (e environment) String() string {
	return fmt.Sprintf("%s/%s cpu=%q nproc=%d GOMAXPROCS=%d %s commit=%s",
		e.GOOS, e.GOARCH, e.CPU, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit)
}

func currentEnv() environment {
	return environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// commit reads the checked-out commit without running git (the benchmark
// starts no processes); the driver's checkouts are not repositories and
// report "none".
func commit() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			b, err := os.ReadFile(dir + "/" + name)
			if err != nil {
				return name
			}
			ref = strings.TrimSpace(string(b))
		}
		if len(ref) > 12 {
			ref = ref[:12]
		}
		return ref
	}
	return "none"
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapLiveMB is the live heap after a forced collection — two, because a
// sync.Pool's contents survive one cycle in its victim cache.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
