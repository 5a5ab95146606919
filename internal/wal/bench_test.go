//go:build unix

package wal

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/machines"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/sched"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// benchBackend is a minimal fleet.Backend for recovery benchmarks (the
// fleet and wire packages keep their own copies of this stub; real-engine
// replay is covered by clustersim's restart scenario).
type benchBackend struct {
	m    machines.Machine
	mu   sync.Mutex
	next int
	free topology.NodeSet
	tens map[int]sched.Assignment
}

func newBenchBackend(m machines.Machine) *benchBackend {
	return &benchBackend{m: m, free: topology.FullNodeSet(m.Topo.NumNodes), tens: map[int]sched.Assignment{}}
}

func (s *benchBackend) Machine() machines.Machine { return s.m }

func (s *benchBackend) Preview(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Preview, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free.Empty() {
		return nil, nperr.ErrMachineFull
	}
	return &sched.Preview{PredictedPerf: 1, BasePerf: 1}, nil
}

func (s *benchBackend) Place(ctx context.Context, w perfsim.Workload, vcpus int) (*sched.Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free.Empty() {
		return nil, nperr.ErrMachineFull
	}
	node := s.free.Lowest()
	s.free = s.free.Remove(node)
	a := sched.Assignment{ID: s.next, Workload: w.Name, VCPUs: vcpus, Nodes: topology.NewNodeSet(node)}
	s.next++
	s.tens[a.ID] = a
	return &a, nil
}

func (s *benchBackend) Release(ctx context.Context, id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tens[id]
	if !ok {
		return nperr.ErrUnknownContainer
	}
	s.free = s.free.Union(a.Nodes)
	delete(s.tens, id)
	return nil
}

func (s *benchBackend) Rebalance(ctx context.Context) (*sched.RebalanceReport, error) {
	return &sched.RebalanceReport{}, nil
}

func (s *benchBackend) Assignments() []sched.Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]sched.Assignment, 0, len(s.tens))
	for _, a := range s.tens {
		out = append(out, a)
	}
	return out
}

func (s *benchBackend) Assignment(id int) (sched.Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tens[id]
	return a, ok
}

func (s *benchBackend) FreeNodes() topology.NodeSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free
}

func (s *benchBackend) Adopt(ctx context.Context, r sched.Restore) (*sched.Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tens[r.ID]; dup {
		return nil, fmt.Errorf("bench: duplicate ID %d: %w", r.ID, nperr.ErrLogCorrupt)
	}
	if r.Nodes.Minus(s.free) != 0 {
		return nil, fmt.Errorf("bench: nodes not free: %w", nperr.ErrLogCorrupt)
	}
	s.free = s.free.Minus(r.Nodes)
	a := sched.Assignment{ID: r.ID, Workload: r.Workload.Name, VCPUs: r.VCPUs,
		Class: r.ClassID, Nodes: r.Nodes, BasePerf: r.BasePerf, ProbePerf: r.ProbePerf}
	s.tens[r.ID] = a
	if r.ID >= s.next {
		s.next = r.ID + 1
	}
	return &a, nil
}

func (s *benchBackend) ApplyMove(ctx context.Context, id, classID int, nodes topology.NodeSet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.tens[id]
	if !ok {
		return nperr.ErrUnknownContainer
	}
	s.free = s.free.Union(a.Nodes).Minus(nodes)
	a.Class, a.Nodes = classID, nodes
	s.tens[id] = a
	return nil
}

func benchFleet(b *testing.B) *fleet.Fleet {
	b.Helper()
	f := fleet.New(fleet.Config{Policy: fleet.FirstFit})
	for i := 0; i < 4; i++ {
		if err := f.Add(fmt.Sprintf("m%d", i), newBenchBackend(machines.AMD())); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// BenchmarkWALAppend measures the Persister hot path — Append (under the
// fleet lock in production) plus the group-commit Commit — at fsync=none.
// TestAppendAllocFree holds it to zero allocations per operation.
func BenchmarkWALAppend(b *testing.B) {
	l, _, _, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := fleet.Record{
		Type: fleet.RecPlace, ID: 1, Backend: "m0", Workload: "swaptions",
		VCPUs: 16, EngineID: 1, ClassID: 3, Nodes: topology.NodeSet(0b1111),
		BasePerf: 1.25, ProbePerf: 0.75,
	}
	// Warm the encode buffers so steady state is what gets measured.
	r.Seq = 1
	l.Append(r)
	if err := l.Commit(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seq = uint64(i + 2)
		l.Append(r)
		if err := l.Commit(r.Seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures a full boot-time recovery — Open (scan +
// decode + torn-tail check) plus fleet.Restore replay — over a 10k-event
// log. Recovery time is downtime; numabench's restart_replay is the
// measurement of record.
func BenchmarkRecovery(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	l, _, _, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	f := benchFleet(b)
	f.SetPersister(l)
	w, _ := workloads.ByName("swaptions")
	// ~5k admit+release pairs = >10k records; the first 24 admissions stay
	// resident (so replay adopts live tenants, not just counts), the rest
	// release immediately so occupancy stays bounded while fleet IDs (and
	// the log) keep growing.
	for i := 0; i < 5050; i++ {
		adm, err := f.Place(ctx, w, 4)
		if err != nil {
			b.Fatal(err)
		}
		if f.Len() > 24 {
			if err := f.Release(ctx, adm.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}

	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl, st, recs, err := Open(Options{Dir: dir, Fsync: FsyncNone})
		if err != nil {
			b.Fatal(err)
		}
		rf := benchFleet(b)
		if err := rf.Restore(ctx, st, recs, workloads.ByName); err != nil {
			b.Fatal(err)
		}
		if rl.Head().RecoveredSeq < 10000 {
			b.Fatalf("recovered seq %d, want >= 10000", rl.Head().RecoveredSeq)
		}
		records += len(recs)
		rl.Close()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}
