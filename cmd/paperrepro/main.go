// Command paperrepro regenerates the paper's evaluation on the simulated
// machines: with no subcommand every table and figure in order, or the one
// -only names; the subcommands are the single-purpose tools around it (see
// usage). SIGINT/SIGTERM cancels a run promptly. The exit status is 2 on a
// usage error, 130 when cancelled and 1 on any other error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"repro"
	"repro/internal/concern"
	"repro/internal/experiments"
	"repro/internal/interconnect"
	"repro/internal/machines"
	"repro/internal/migrate"
	"repro/internal/mlearn"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// Each subcommand parses its flags from args and reports on stdout.
var commands = map[string]func(ctx context.Context, args []string, stdout io.Writer) error{
	"placements": placements,
	"train":      train,
	"pack":       pack,
	"migrate":    migrateCmd,
	"calibrate":  calibrate,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(exitCode(err, os.Stderr))
}

// run dispatches args to the subcommand they name, or else reproduces the
// paper's tables and figures.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) > 0 {
		if cmd, ok := commands[args[0]]; ok {
			return cmd(ctx, args[1:], stdout)
		}
		if !strings.HasPrefix(args[0], "-") {
			return usagef("unknown subcommand %q", args[0])
		}
	}
	return reproduce(ctx, args, stdout)
}

func usage() string {
	return "usage:\n  paperrepro [-quick] [-only " + strings.Join(reportNames, "|") + `]
  paperrepro placements [-machine amd] [-vcpus 16] [-packings]
  paperrepro train [-machine intel] [-vcpus N] [-trees 100] [-out FILE]
  paperrepro pack [-machine amd] [-workload WTbtree]
  paperrepro migrate [-workload WTbtree] [-workers N] [-vcpus 16] [-paper]
  paperrepro calibrate [debug]
`
}

// usageError is a mistake on the command line: exit 2, after the usage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// parseFlags parses args into fs; a bad flag or positional is a usage error.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// nameFlag defines the flag -kind naming a machine or workload, resolved by
// find while parsing: an unknown name is a usage error.
func nameFlag[T any](fs *flag.FlagSet, kind, def string, find func(string) (T, bool)) *T {
	v, _ := find(def)
	fs.Func(kind, kind+" name (default "+def+")", func(name string) error {
		var ok bool
		if v, ok = find(name); !ok {
			return fmt.Errorf("unknown %s %q", kind, name)
		}
		return nil
	})
	return &v
}

// exitCode reports err on stderr and returns the process exit status.
func exitCode(err error, stderr io.Writer) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		fmt.Fprint(stderr, usage())
		return 0
	case errors.As(err, new(usageError)):
		fmt.Fprintf(stderr, "paperrepro: %v\n%s", err, usage())
		return 2
	}
	fmt.Fprintln(stderr, "paperrepro:", err)
	if errors.Is(err, context.Canceled) {
		return 130
	}
	return 1
}

// reportNames are the paper's tables and figures in the order they print.
var reportNames = []string{"table1", "counts", "fig1", "fig3", "fig4", "fig5", "table2"}

// reproduce prints every table and figure of the paper, or the one -only
// names, each under a "==== name ====" header.
func reproduce(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "low-fidelity smoke run")
	only := fs.String("only", "", "run a single experiment")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *only != "" && !slices.Contains(reportNames, *only) {
		return usagef("unknown experiment %q (have %s)", *only, strings.Join(reportNames, ", "))
	}
	cfg := experiments.Config{}
	if *quick {
		cfg = experiments.Quick()
	}
	for _, name := range reportNames {
		if *only != "" && *only != name {
			continue
		}
		fmt.Fprintf(stdout, "==== %s ====\n", name)
		if err := report(ctx, stdout, name, cfg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func report(ctx context.Context, w io.Writer, name string, cfg experiments.Config) (err error) {
	both := []machines.Machine{machines.AMD(), machines.Intel()}
	switch name {
	case "table1":
		err = experiments.Table1(ctx, w)
	case "counts":
		_, err = experiments.PlacementCounts(ctx, w)
	case "fig1":
		_, err = experiments.Figure1(ctx, w)
	case "fig3":
		_, err = experiments.Figure3(ctx, w, cfg)
	case "fig4":
		for i := 0; err == nil && i < len(both); i++ {
			_, err = experiments.Figure4(ctx, w, both[i], cfg)
		}
	case "fig5":
		for i := 0; err == nil && i < len(both); i++ {
			_, err = experiments.Figure5(ctx, w, both[i], cfg)
		}
	case "table2":
		_, err = experiments.Table2(ctx, w)
	}
	return err
}

// placements enumerates the important placements of a machine for one
// container size through the Engine, printing the score vectors as the
// paper reports them (§4: 13 for AMD/16 vCPUs, 7 for Intel/24 vCPUs);
// -packings adds the packings that survive the filter.
func placements(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("placements", flag.ContinueOnError)
	m := nameFlag(fs, "machine", "amd", numaplace.MachineByName)
	vcpus := fs.Int("vcpus", 16, "container vCPU count")
	showPackings := fs.Bool("packings", false, "also print surviving packings")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	eng := numaplace.New(*m)
	spec := eng.Spec()
	fmt.Fprintf(stdout, "machine: %s\nconcerns: %v\n", m.Topo, spec.ConcernNames())
	imps, err := eng.Placements(ctx, *vcpus)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "important placements for %d vCPUs: %d\n", *vcpus, len(imps))
	for _, p := range imps {
		fmt.Fprintf(stdout, "  %s\n", p)
	}
	if *showPackings {
		packs := placement.FilterPackings(spec, placement.GenPackings(spec.Node.FeasibleScores(*vcpus), placement.AllNodes(spec)))
		fmt.Fprintf(stdout, "surviving packings: %d\n", len(packs))
		for _, p := range packs {
			fmt.Fprintf(stdout, "  %s\n", p)
		}
	}
	return nil
}

// trainedEngine returns an Engine for m with a forest of trees trained on
// workloads.TrainingSet(50, 42) at v vCPUs, and that dataset and predictor.
func trainedEngine(ctx context.Context, m numaplace.Machine, v, trees int) (*numaplace.Engine, *numaplace.Dataset, *numaplace.Predictor, error) {
	eng := numaplace.New(m,
		numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: 3}),
		numaplace.WithTrainConfig(numaplace.TrainConfig{Seed: 1, Forest: mlearn.ForestConfig{Trees: trees}}),
	)
	ds, err := eng.Collect(ctx, workloads.TrainingSet(50, 42), v)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("collect: %w", err)
	}
	pred, err := eng.Train(ctx, ds)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("train: %w", err)
	}
	return eng, ds, pred, nil
}

// train trains a predictor for a machine and container size and prints
// its training-set accuracy (a one-machine slice of Figure 4); -out saves
// it as JSON.
func train(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	m := nameFlag(fs, "machine", "intel", numaplace.MachineByName)
	vcpus := fs.Int("vcpus", 0, "container vCPU count (default: paper value for the machine)")
	out := fs.String("out", "", "write the trained predictor JSON here")
	trees := fs.Int("trees", 100, "random forest size")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	v := *vcpus
	if v == 0 {
		v = experiments.VCPUsFor(*m)
	}
	_, ds, pred, err := trainedEngine(ctx, *m, v, *trees)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s, %d vCPUs: observe placements #%d and #%d\n", m.Topo.Name, v, pred.Base+1, pred.Probe+1)
	// Scored in one flat batch against the dataset's cached relative matrix.
	n := len(ds.Workloads)
	predAll := make([]float64, n*pred.NumPlacements)
	if err := pred.PredictDatasetInto(predAll, make([]float64, n*pred.InDim()), ds, nil); err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	fmt.Fprintf(stdout, "training-set MAPE: %.2f%%\n", mlearn.MAPEFlat(predAll, ds.RelMatrix(pred.Base), nil))
	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := errors.Join(pred.Save(f), f.Close()); err != nil {
		return fmt.Errorf("save %s: %w", *out, err)
	}
	fmt.Fprintln(stdout, "model written to", *out)
	return nil
}

// pack runs Figure 5's packing comparison for one workload on one machine
// through the Engine.
func pack(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pack", flag.ContinueOnError)
	m := nameFlag(fs, "machine", "amd", numaplace.MachineByName)
	w := nameFlag(fs, "workload", "WTbtree", numaplace.WorkloadByName)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	v := experiments.VCPUsFor(*m)
	eng, _, pred, err := trainedEngine(ctx, *m, v, 100)
	if err != nil {
		return err
	}
	exp, err := eng.NewPackingExperiment(ctx, *w, v, pred)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s containers (%d vCPUs) on %s\n", w.Name, v, m.Topo.Name)
	_, err = experiments.PackingTable(ctx, stdout, exp)
	return err
}

// paperTable2 is the paper's Table 2 in seconds: fast mechanism, default
// Linux.
var paperTable2 = map[string][2]float64{
	"BLAST": {3.0, 5.9}, "canneal": {0.3, 3.9}, "fluidanimate": {0.3, 2.3},
	"freqmine": {0.3, 4.2}, "gcc": {0.3, 2.8}, "kmeans": {1.5, 6.5},
	"pca": {2.8, 10.0}, "postgres-tpch": {5.8, 117.1}, "postgres-tpcc": {14.9, 431.0},
	"spark-cc": {3.7, 139.9}, "spark-pr-lj": {3.8, 137.0}, "streamcluster": {0.1, 0.4},
	"swaptions": {0.1, 0.0}, "ft.C": {1.3, 19.4}, "dc.B": {5.4, 51.7},
	"wc": {3.4, 19.5}, "wr": {3.6, 18.9}, "WTbtree": {6.3, 43.8},
}

// migrateCmd simulates the memory migration of one container (Table 2)
// under the three mechanisms; -paper instead prints the fast and default
// Linux times of every paper workload beside the paper's, for calibrating
// the migration constants.
func migrateCmd(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("migrate", flag.ContinueOnError)
	w := nameFlag(fs, "workload", "WTbtree", numaplace.WorkloadByName)
	workers := fs.Int("workers", 0, "fast-migration worker threads (0 = default)")
	vcpus := fs.Int("vcpus", 16, "vCPUs per migrated container")
	paper := fs.Bool("paper", false, "every paper workload beside the paper's values")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *vcpus <= 0 {
		return usagef("-vcpus must be positive")
	}
	cfg := migrate.Config{Workers: *workers}
	run := func(w numaplace.Workload, mech migrate.Mechanism) (*migrate.Result, error) {
		r, err := migrate.Run(ctx, migrate.ProfileFor(w, *vcpus), mech, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s migration of %s: %w", mech, w.Name, err)
		}
		return r, nil
	}
	if !*paper {
		p := migrate.ProfileFor(*w, *vcpus)
		fmt.Fprintf(stdout, "%s: %.1f GB (%.1f GB page cache), %d tasks\n", w.Name, w.MemoryGB, p.PageCacheGB, p.Tasks)
		for _, mech := range []migrate.Mechanism{migrate.Fast, migrate.DefaultLinux, migrate.Throttled} {
			r, err := run(*w, mech)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "  %-14s %7.1f s, moved %5.1f GB (%.1f GB page cache), overhead %.0f%%\n",
				mech, r.Seconds, r.MovedGB, r.PageCacheGB, r.OverheadPct)
		}
		return nil
	}
	fmt.Fprintf(stdout, "%-14s %8s %8s | %8s %8s | %8s\n", "workload", "fast", "paper", "linux", "paper", "ratio")
	for _, w := range workloads.Paper() {
		fast, err := run(w, migrate.Fast)
		if err != nil {
			return err
		}
		linux, err := run(w, migrate.DefaultLinux)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-14s %8.1f %8.1f | %8.1f %8.1f | %8.1f\n", w.Name, fast.Seconds, paperTable2[w.Name][0],
			linux.Seconds, paperTable2[w.Name][1], linux.Seconds/fast.Seconds)
	}
	wt, _ := workloads.ByName("WTbtree")
	th, err := run(wt, migrate.Throttled)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "throttled WTbtree: %.1fs overhead %.1f%% (paper: 60s, 3-6%%)\n", th.Seconds, th.OverheadPct)
	return nil
}

// calibrate searches for AMD link bandwidths that reproduce the placement
// facts of §4: 13 important placements for 16 vCPUs (two 8-node, eight
// 4-node, three 2-node); {2,3,4,5} the best 4-node set; {0,2,4,6}+{1,3,5,7}
// surviving and {0,1,4,5}+{2,3,6,7} filtered; an 8-node aggregate of 35000
// MB/s. The link structure is fixed: a twisted ladder of intra-package links
// in three bandwidth classes (hence three 2-node placements) plus an
// even-die and an odd-die clique, so every even-odd cross-package pair is
// two hops, as in the paper's 0-5 and 3-6 examples. The search derived the
// constants in internal/machines; "calibrate debug" reports the checked-in
// parameter set instead.
func calibrate(ctx context.Context, args []string, stdout io.Writer) error {
	debug := len(args) == 1 && args[0] == "debug"
	if debug {
		args = nil
	}
	if err := parseFlags(flag.NewFlagSet("calibrate", flag.ContinueOnError), args); err != nil {
		return err
	}
	if debug {
		p := params{wa: 4200, wb: 3400, wc: 3700,
			e02: 3000, e04: 2500, e06: 1200, e24: 3200, e26: 2600, e46: 2900,
			o13: 2800, o15: 2400, o17: 1000, o35: 3100, o37: 2300, o57: 3000}
		spec := p.spec()
		ok, why := check(spec)
		fmt.Fprintln(stdout, "check:", ok, why)
		packs := placement.FilterPackings(spec, placement.GenPackings(spec.Node.FeasibleScores(16), placement.AllNodes(spec)))
		fmt.Fprintln(stdout, "surviving packings:")
		for _, pk := range packs {
			fmt.Fprint(stdout, "  ", pk, " ICs:")
			for _, part := range pk {
				fmt.Fprint(stdout, " ", spec.Machine.IC.Measure(part))
			}
			fmt.Fprintln(stdout)
		}
		listPlacements(stdout, spec)
		return nil
	}
	rng := xrand.New(2)
	grid := func(lo, hi int64) int64 { return lo + 50*rng.Int63n((hi-lo)/50+1) }
	miss := map[string]int{}
	for iter := 0; iter < 500_000; iter++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cancelled after %d iters; failure histogram: %v: %w", iter, miss, err)
		}
		var p params
		p.wa = 2400
		p.wb = grid(1950, 2350)
		p.wc = grid(1950, 2350)
		if p.wb == p.wc || p.wb == p.wa || p.wc == p.wa {
			continue // three distinct 2-node scores needed
		}
		// All inter-package links stay below the weakest intra link so the
		// all-intra pairing dominates every other (2,2,2,2) packing.
		capBW := min(p.wb, p.wc) - 100
		g := func(lo, hi int64) int64 { hi = min(hi, capBW); return grid(min(lo, hi), hi) }
		p.e24 = g(1700, 2100) // feeds the best 4-node set {2,3,4,5}
		p.o35 = g(1700, 2100)
		p.e02, p.e46 = g(1350, 1900), g(1350, 1900)
		p.e04, p.e26 = g(1350, 1900), g(1350, 1900)
		p.e06 = g(450, 900)
		p.o13, p.o57 = g(1350, 1900), g(1350, 1900)
		p.o15, p.o37 = g(1350, 1900), g(1350, 1900)
		p.o17 = g(450, 900)
		ok, why := check(p.spec())
		if !ok {
			miss[why]++
			if iter%100_000 == 99_999 {
				fmt.Fprintf(stdout, "iter %d, failures so far: %v\n", iter+1, miss)
			}
			continue
		}
		tuned, exact := tuneTotal(p)
		if !exact {
			miss["total-stuck"]++
			fmt.Fprintf(stdout, "stuck at total %d: %+v\n", tuned.graph().Measure(topology.FullNodeSet(8)), tuned)
			continue
		}
		fmt.Fprintf(stdout, "FOUND after %d iters: %+v\n", iter, tuned)
		listPlacements(stdout, tuned.spec())
		return nil
	}
	return fmt.Errorf("no candidate found; failure histogram: %v", miss)
}

type params struct {
	wa int64 // intra-package links 0-1 and 6-7 (fastest class)
	wb int64 // intra-package link 2-3
	wc int64 // intra-package link 4-5
	// Even-die clique.
	e02, e04, e06, e24, e26, e46 int64
	// Odd-die clique.
	o13, o15, o17, o35, o37, o57 int64
}

func (p params) graph() *interconnect.Graph {
	g := interconnect.NewGraph(8)
	type link struct {
		a, b topology.NodeID
		bw   int64
	}
	for _, l := range []link{
		{0, 1, p.wa}, {6, 7, p.wa}, {2, 3, p.wb}, {4, 5, p.wc},
		{0, 2, p.e02}, {0, 4, p.e04}, {0, 6, p.e06},
		{2, 4, p.e24}, {2, 6, p.e26}, {4, 6, p.e46},
		{1, 3, p.o13}, {1, 5, p.o15}, {1, 7, p.o17},
		{3, 5, p.o35}, {3, 7, p.o37}, {5, 7, p.o57},
	} {
		g.AddLink(l.a, l.b, l.bw)
	}
	return g
}

// spec returns the concern specification of the AMD machine with p's links.
func (p params) spec() *concern.Spec {
	m := machines.AMD()
	m.IC = p.graph()
	return concern.FromMachine(m)
}

// check runs the placement pipeline for the candidate machine and reports
// whether all paper facts hold; the second return is a failure reason.
func check(spec *concern.Spec) (bool, string) {
	imps, err := placement.Enumerate(context.Background(), spec, 16)
	if err != nil {
		return false, err.Error()
	}
	byNodes := map[int]int{}
	for _, p := range imps {
		byNodes[p.Vec.Node]++
	}
	if n := byNodes[2]; n != 3 {
		return false, fmt.Sprintf("2-node count %d", n)
	}
	if n := byNodes[4]; n != 8 {
		return false, fmt.Sprintf("4-node count %d", n)
	}
	if len(imps) != 13 {
		return false, fmt.Sprintf("count %d composition %v", len(imps), byNodes)
	}
	best4 := topology.NewNodeSet(2, 3, 4, 5)
	sets := map[topology.NodeSet]bool{}
	var maxIC int64
	for _, p := range imps {
		if p.Vec.Node == 4 {
			sets[p.Nodes] = true
			maxIC = max(maxIC, p.Vec.Pareto[0])
		}
	}
	if !sets[best4] {
		return false, "missing {2,3,4,5}"
	}
	if !sets[topology.NewNodeSet(0, 2, 4, 6)] || !sets[topology.NewNodeSet(1, 3, 5, 7)] {
		return false, "missing evens/odds"
	}
	if !sets[topology.NewNodeSet(0, 1, 6, 7)] {
		return false, "missing {0,1,6,7}"
	}
	if sets[topology.NewNodeSet(0, 1, 4, 5)] || sets[topology.NewNodeSet(2, 3, 6, 7)] {
		return false, "{0,1,4,5} or {2,3,6,7} survived"
	}
	if spec.Machine.IC.Measure(best4) != maxIC {
		return false, "best 4-node set is not {2,3,4,5}"
	}
	return true, ""
}

// fields returns pointers to every tunable parameter, for local search.
func (p *params) fields() []*int64 {
	return []*int64{
		&p.wa, &p.wb, &p.wc,
		&p.e02, &p.e04, &p.e06, &p.e24, &p.e26, &p.e46,
		&p.o13, &p.o15, &p.o17, &p.o35, &p.o37, &p.o57,
	}
}

// tuneTotal hill-climbs single-parameter adjustments until the 8-node
// aggregate is exactly 35000 MB/s while every structural fact still holds.
func tuneTotal(p params) (params, bool) {
	// First try a global rescale toward the target: structural facts are
	// (approximately) scale-invariant, so this usually lands close without
	// breaking them.
	if total := p.graph().Measure(topology.FullNodeSet(8)); total != 35000 {
		q := p
		for _, f := range q.fields() {
			*f = (*f*35000/total + 12) / 25 * 25
		}
		if ok, _ := check(q.spec()); ok {
			p = q
		}
	}
	abs := func(x int64) int64 { return max(x, -x) }
	deltas := []int64{-1000, -500, -200, -100, -50, -25, -10, -5, -2, -1, 1, 2, 5, 10, 25, 50, 100, 200, 500, 1000}
	for round := 0; round < 12; round++ {
		total := p.graph().Measure(topology.FullNodeSet(8))
		if total == 35000 {
			return p, true
		}
		improved := false
		for _, f := range p.fields() {
			orig := *f
			for _, delta := range deltas {
				*f = orig + delta
				if *f <= 0 {
					continue
				}
				spec := p.spec()
				if ok, _ := check(spec); !ok {
					continue
				}
				t := spec.Machine.IC.Measure(topology.FullNodeSet(8))
				if abs(t-35000) < abs(total-35000) {
					total = t
					improved = true
					orig = *f
				}
			}
			*f = orig
		}
		if !improved {
			return p, false
		}
	}
	return p, p.graph().Measure(topology.FullNodeSet(8)) == 35000
}

func listPlacements(w io.Writer, spec *concern.Spec) {
	imps, _ := placement.Enumerate(context.Background(), spec, 16)
	for _, ip := range imps {
		fmt.Fprintln(w, " ", ip)
	}
}
