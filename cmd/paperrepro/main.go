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
	"repro/internal/experiments"
	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/placement"
	"repro/internal/workloads"
)

// Each subcommand parses its flags from args and reports on stdout.
var commands = map[string]func(ctx context.Context, args []string, stdout io.Writer) error{
	"placements": placements,
	"train":      train,
	"pack":       pack,
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
	if *trees < 1 {
		return usagef("-trees %d: a forest needs at least one tree", *trees)
	}
	if *vcpus < 0 {
		return usagef("-vcpus %d: a container needs a positive vCPU count (0 takes the paper's)", *vcpus)
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
