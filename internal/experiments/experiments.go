// Package experiments contains one runner per table and figure in the
// paper's evaluation, regenerating each result on the simulated machines.
// Every runner is deterministic for a given Config and writes a plain-text
// report mirroring the published presentation; structured results are
// returned for programmatic checks (tests, benches, EXPERIMENTS.md).
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/concern"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/internal/xparallel"
)

// Config scales the experiment fidelity; the zero value selects the full
// paper-fidelity settings, Quick() a fast smoke-test variant for benches.
type Config struct {
	ForestTrees    int // final model size (default 100)
	SelectionTrees int // ensemble used in pair search / SFS (default 15)
	CorpusSize     int // synthetic training corpus size (default 50)
	Trials         int // noisy measurement repetitions (default 3)
	Seed           uint64
}

func (c Config) withDefaults() Config {
	if c.ForestTrees <= 0 {
		c.ForestTrees = 100
	}
	if c.SelectionTrees <= 0 {
		c.SelectionTrees = 15
	}
	if c.CorpusSize <= 0 {
		c.CorpusSize = 50
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Quick returns a low-fidelity configuration for smoke tests and benches.
func Quick() Config {
	return Config{ForestTrees: 25, SelectionTrees: 6, CorpusSize: 20, Trials: 2, Seed: 42}
}

// dataset collects the ground-truth matrix for one machine.
func dataset(ctx context.Context, m machines.Machine, v int, cfg Config, withHPE bool) (*core.Dataset, error) {
	return core.CollectCtx(ctx, m, workloads.TrainingSet(cfg.CorpusSize, cfg.Seed), v, core.CollectConfig{
		Trials: cfg.Trials, WithHPEs: withHPE,
	})
}

func trainCfg(cfg Config, variant core.Variant) core.TrainConfig {
	return core.TrainConfig{
		Variant:        variant,
		Forest:         mlearn.ForestConfig{Trees: cfg.ForestTrees},
		SelectionTrees: cfg.SelectionTrees,
		SelectionFolds: 5,
		Seed:           cfg.Seed,
	}
}

// VCPUsFor returns the container size the paper uses on each machine:
// 16 vCPUs on the 8-node AMD system, 24 on the 4-node Intel system.
func VCPUsFor(m machines.Machine) int {
	if m.Topo.NumNodes == 8 {
		return 16
	}
	return 24
}

// Table1 prints the AMD scheduling-concern table (paper Table 1) derived
// automatically from the machine description.
func Table1(ctx context.Context, w io.Writer) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	spec := concern.FromMachine(machines.AMD())
	fmt.Fprintln(w, "Table 1: scheduling concerns for the AMD system")
	tbl := stats.NewTable("Concern", "Count", "Capacity", "Cost?", "Inverse Perf Possible?")
	for _, c := range spec.PerNode {
		tbl.Row(c.Name, c.Count, c.Capacity, yn(c.AffectsCost), yn(c.InversePossible))
	}
	tbl.Row(spec.Node.Name, spec.Node.Count, spec.Node.Capacity,
		yn(spec.Node.AffectsCost), yn(spec.Node.InversePossible))
	for _, c := range spec.Pareto {
		tbl.Row(c.Name, "-", "-", "N", "N")
	}
	tbl.Render(w)
	full := placement.AllNodes(spec)
	fmt.Fprintf(w, "  8-node aggregate interconnect score: %d MB/s (paper: 35000)\n",
		spec.Machine.IC.Measure(full))
	return nil
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

// PlacementCounts reproduces the §4 headline: the number and composition
// of important placements on both systems.
type PlacementResult struct {
	Machine string
	VCPUs   int
	Total   int
	ByNodes map[int]int
}

// PlacementCounts enumerates important placements for both machines. The
// machines run concurrently; reports are emitted in machine order.
func PlacementCounts(ctx context.Context, w io.Writer) ([]PlacementResult, error) {
	ms := []machines.Machine{machines.AMD(), machines.Intel()}
	type res struct {
		r      PlacementResult
		report bytes.Buffer
	}
	outs, err := xparallel.MapErrCtx(ctx, len(ms), 0, func(i int) (*res, error) {
		m := ms[i]
		v := VCPUsFor(m)
		spec := concern.FromMachine(m)
		imps, err := placement.EnumerateCtx(ctx, spec, v)
		if err != nil {
			return nil, err
		}
		o := &res{r: PlacementResult{Machine: m.Topo.Name, VCPUs: v, Total: len(imps), ByNodes: map[int]int{}}}
		for _, p := range imps {
			o.r.ByNodes[p.Vec.Node]++
		}
		fmt.Fprintf(&o.report, "%s, %d vCPUs: %d important placements\n", m.Topo.Name, v, len(imps))
		for _, p := range imps {
			fmt.Fprintf(&o.report, "  %s\n", p)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	var out []PlacementResult
	for _, o := range outs {
		out = append(out, o.r)
		if _, err := w.Write(o.report.Bytes()); err != nil {
			return nil, err
		}
	}
	return out, nil
}
