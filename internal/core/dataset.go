// Package core implements the paper's primary contribution: the pipeline
// that turns a machine's concern specification into a trained performance
// predictor for virtual containers (§5).
//
// Workflow, mirroring the paper's four steps:
//
//  1. The concern specification comes from concern.FromMachine (Step 1).
//  2. placement.Enumerate yields the important placements (Step 2).
//  3. Collect gathers training executions and Train fits a multi-output
//     Random Forest, automatically choosing the two input placements that
//     generalize best (Step 3).
//  4. At runtime the scheduler observes the container in those two
//     placements and Predict returns the full performance vector (Step 4;
//     package sched implements the policy around it).
//
// A separate model is trained per machine and per vCPU count, exactly as
// the paper prescribes.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/concern"
	"repro/internal/machines"
	"repro/internal/mlearn"
	"repro/internal/perfsim"
	"repro/internal/placement"
)

// Dataset holds ground-truth executions of a workload set in every
// important placement of one machine at one vCPU count.
type Dataset struct {
	Machine    machines.Machine
	Spec       *concern.Spec
	V          int
	Placements []placement.Important

	Workloads []perfsim.Workload
	// Groups labels related workloads for cross-validation: the paper
	// excludes both Spark jobs together when predicting either (§6).
	Groups []string

	// Perf[w][p] is the measured throughput of workload w in placement p
	// (mean of Trials noisy runs).
	Perf [][]float64

	// HPE[w][p] are the hardware-performance-event readings of workload w
	// observed in placement p (for the single-placement HPE model variant).
	HPE [][][]float64

	// relMu guards relByBase, the per-baseline relative-target matrices
	// memoized by RelMatrix. Every training candidate that shares a
	// baseline placement reuses the same flat target block, so the O(n²)
	// input-pair search stops re-materializing identical RelVector rows.
	relMu     sync.Mutex
	relByBase map[int]mlearn.Matrix
}

// CollectConfig controls ground-truth collection.
type CollectConfig struct {
	// Trials is the number of noisy measurements averaged per cell
	// (default 3).
	Trials int
	// WithHPEs also gathers counter readings (needed for the HPE variant).
	WithHPEs bool
}

func (c CollectConfig) trials() int {
	if c.Trials <= 0 {
		return 3
	}
	return c.Trials
}

// Collect runs every workload in every important placement of machine m.
// This is the reproduction's stand-in for the paper's training runs on the
// physical testbeds. The context is checked before every (workload,
// placement) measurement cell, so a cancelled collection returns ctx.Err()
// promptly.
func Collect(ctx context.Context, m machines.Machine, ws []perfsim.Workload, v int, cfg CollectConfig) (*Dataset, error) {
	spec := concern.FromMachine(m)
	imps, err := placement.Enumerate(ctx, spec, v)
	if err != nil {
		return nil, err
	}
	return CollectPrepared(ctx, spec, imps, ws, v, cfg)
}

// CollectPrepared is Collect for callers that already hold the concern
// spec and important placements (e.g. a serving engine with memoized
// enumerations); it skips re-deriving them. spec and imps must belong
// together and to the machine being measured.
func CollectPrepared(ctx context.Context, spec *concern.Spec, imps []placement.Important, ws []perfsim.Workload, v int, cfg CollectConfig) (*Dataset, error) {
	m := spec.Machine
	if len(ws) == 0 {
		return nil, fmt.Errorf("core: no workloads")
	}
	ds := &Dataset{
		Machine: m, Spec: spec, V: v, Placements: imps,
		Workloads: ws,
	}
	for _, w := range ws {
		ds.Groups = append(ds.Groups, GroupOf(w.Name))
	}
	for _, w := range ws {
		perfRow := make([]float64, len(imps))
		var hpeRow [][]float64
		for pi, p := range imps {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			threads, err := placement.Pin(spec, p.Placement, v)
			if err != nil {
				return nil, fmt.Errorf("core: pinning %s: %w", p, err)
			}
			var sum float64
			for trial := 0; trial < cfg.trials(); trial++ {
				perf, err := perfsim.Run(m, w, threads, trial)
				if err != nil {
					return nil, err
				}
				sum += perf
			}
			perfRow[pi] = sum / float64(cfg.trials())
			if cfg.WithHPEs {
				h, err := perfsim.HPEs(m, w, threads, 0)
				if err != nil {
					return nil, err
				}
				hpeRow = append(hpeRow, h)
			}
		}
		ds.Perf = append(ds.Perf, perfRow)
		if cfg.WithHPEs {
			ds.HPE = append(ds.HPE, hpeRow)
		}
	}
	return ds, nil
}

// GroupOf maps a workload name to its cross-validation group. Related
// workloads (the two Spark jobs, the two Postgres benchmarks) share a
// group so neither leaks into the other's training set.
func GroupOf(name string) string {
	for _, prefix := range []string{"spark", "postgres"} {
		if strings.HasPrefix(name, prefix+"-") {
			return prefix
		}
	}
	return name
}

// RelVector returns workload w's ground-truth performance vector relative
// to baseline placement index base, in the paper's convention: entry p is
// perf(base)/perf(p), so an entry of 0.8 means placement p runs 20% faster
// than the baseline.
func (ds *Dataset) RelVector(w, base int) []float64 {
	out := make([]float64, len(ds.Placements))
	for p := range out {
		out[p] = ds.Perf[w][base] / ds.Perf[w][p]
	}
	return out
}

// RelMatrix returns the dataset's flat relative-performance target matrix
// for baseline placement base: row w is RelVector(w, base), laid out
// row-major in one contiguous block. The matrix is computed once per base
// and cached on the dataset (concurrent candidate evaluations share it),
// so callers must treat it as read-only.
func (ds *Dataset) RelMatrix(base int) mlearn.Matrix {
	ds.relMu.Lock()
	defer ds.relMu.Unlock()
	if m, ok := ds.relByBase[base]; ok {
		return m
	}
	if ds.relByBase == nil {
		ds.relByBase = map[int]mlearn.Matrix{}
	}
	m := mlearn.NewMatrix(len(ds.Workloads), len(ds.Placements))
	for w := range ds.Workloads {
		row := m.Row(w)
		pw := ds.Perf[w]
		b := pw[base]
		for p := range row {
			row[p] = b / pw[p]
		}
	}
	ds.relByBase[base] = m
	return m
}

// WorkloadIndex returns the row of the named workload, or -1.
func (ds *Dataset) WorkloadIndex(name string) int {
	for i, w := range ds.Workloads {
		if w.Name == name {
			return i
		}
	}
	return -1
}

// Subset returns a dataset view containing only the given workload rows.
func (ds *Dataset) Subset(rows []int) *Dataset {
	sub := &Dataset{
		Machine: ds.Machine, Spec: ds.Spec, V: ds.V, Placements: ds.Placements,
	}
	for _, r := range rows {
		sub.Workloads = append(sub.Workloads, ds.Workloads[r])
		sub.Groups = append(sub.Groups, ds.Groups[r])
		sub.Perf = append(sub.Perf, ds.Perf[r])
		if ds.HPE != nil {
			sub.HPE = append(sub.HPE, ds.HPE[r])
		}
	}
	return sub
}
