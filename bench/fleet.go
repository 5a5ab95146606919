package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"reflect"

	numaplace "repro"
	"repro/internal/fleet"
	"repro/internal/mlearn"
	"repro/internal/nperr"
	"repro/internal/perfsim"
	"repro/internal/topology"
	"repro/internal/workloads"
	"repro/internal/xrand"
)

// fleetSizes are the container sizes the 64-machine workloads draw from;
// wire_churn uses the daemon's default 16 alone.
var fleetSizes = []int{8, 16, 24, 32}

var machineModels = []string{"amd", "intel"}

// models holds one trained predictor per (machine model, container size),
// shared by every engine of a fleet through numaplace.WithPredictor: a
// 64-machine fleet trains twice, not 64 times, and identical predictors
// are what a homogeneous rack would load from disk.
type models map[string]map[int]*numaplace.Predictor

// trainModels trains at the daemon's full fidelity (cmd/numaplaced.run:
// Trials 3, Trees 60, corpus 30, seed 1) for every size.
func trainModels(ctx context.Context, sizes []int) (models, error) {
	ws := append(workloads.Paper(),
		workloads.CorpusFrom(30, 42, []string{"flat", "bw", "lat", "smt-averse", "cache"})...)
	out := models{}
	for _, name := range machineModels {
		m, _ := numaplace.MachineByName(name)
		eng := numaplace.New(m,
			numaplace.WithCollectConfig(numaplace.CollectConfig{Trials: 3}),
			numaplace.WithTrainConfig(numaplace.TrainConfig{
				Seed: 1, Forest: mlearn.ForestConfig{Trees: 60},
				SelectionTrees: 4, SelectionFolds: 3,
			}))
		out[name] = map[int]*numaplace.Predictor{}
		for _, v := range sizes {
			ds, err := eng.Collect(ctx, ws, v)
			if err != nil {
				return nil, fmt.Errorf("collecting %d vCPUs on %s: %w", v, name, err)
			}
			p, err := eng.Train(ctx, ds)
			if err != nil {
				return nil, fmt.Errorf("training %d vCPUs on %s: %w", v, name, err)
			}
			out[name][v] = p
		}
	}
	return out, nil
}

// fleetSpec describes one fleet under test.
type fleetSpec struct {
	machines int // amd/intel alternating, named like numaplaced: amd-0, intel-1, ...
	racks    int
	policy   fleet.Policy
	spread   bool
	sizes    []int
}

var (
	daemonFleet   = fleetSpec{machines: 2, racks: 2, policy: fleet.BestPredicted, sizes: []int{16}}
	residentFleet = fleetSpec{machines: 64, racks: 8, policy: fleet.BestPredicted, spread: true, sizes: fleetSizes}
	manageFleet   = fleetSpec{machines: 64, racks: 8, policy: fleet.LeastLoaded, spread: true, sizes: fleetSizes}
)

// testFleet is a cluster plus the engines behind it, which the output
// checks read directly (the fleet only exposes them as Backends).
type testFleet struct {
	spec    fleetSpec
	cl      *numaplace.Cluster
	names   []string
	engines []*numaplace.Engine
}

// buildFleet assembles spec's cluster over fresh engines. wrap, when
// non-nil, interposes on each engine (the traced pass's Backend seam).
// Enumerations are warmed so a restored fleet starts where a booted daemon
// does — after training, which enumerates every trained size.
func buildFleet(ctx context.Context, spec fleetSpec, mods models, wrap func(fleet.Backend) fleet.Backend) (*testFleet, error) {
	tf := &testFleet{spec: spec, cl: numaplace.NewCluster(numaplace.ClusterConfig{
		Policy: spec.policy, DrainBelow: 0.5, SpreadDomains: spec.spread,
	})}
	for i := 0; i < spec.machines; i++ {
		model := machineModels[i%len(machineModels)]
		m, _ := numaplace.MachineByName(model)
		var opts []numaplace.Option
		for _, v := range spec.sizes {
			opts = append(opts, numaplace.WithPredictor(v, mods[model][v]))
		}
		eng := numaplace.New(m, opts...)
		for _, v := range spec.sizes {
			if _, err := eng.Placements(ctx, v); err != nil {
				return nil, fmt.Errorf("enumerating %d vCPUs on %s: %w", v, model, err)
			}
		}
		var b fleet.Backend = eng
		if wrap != nil {
			b = wrap(eng)
		}
		name := fmt.Sprintf("%s-%d", model, i)
		if err := tf.cl.Fleet().Add(name, b, fleet.InDomain(fmt.Sprintf("rack-%d", i%spec.racks))); err != nil {
			return nil, err
		}
		tf.names = append(tf.names, name)
		tf.engines = append(tf.engines, eng)
	}
	return tf, nil
}

// request is one generated admission.
type request struct {
	w     perfsim.Workload
	vcpus int
}

// requests is a seeded request stream: workload uniform over the paper
// catalog, size uniform over the fleet's size set.
type requests struct {
	rng   *xrand.SplitMix64
	paper []perfsim.Workload
	sizes []int
}

func newRequests(seed uint64, stream int, sizes []int) *requests {
	return &requests{rng: xrand.New(xrand.Mix(seed, uint64(stream))), paper: workloads.Paper(), sizes: sizes}
}

func (r *requests) next() request {
	return request{w: r.paper[r.rng.Intn(len(r.paper))], vcpus: r.sizes[r.rng.Intn(len(r.sizes))]}
}

// digest is the running SHA-256 over a decision stream's (id, backend,
// class, nodes) tuples: two runs of one seed must print the same value.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(id int, backend string, class int, nodes topology.NodeSet) {
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(id))
	binary.LittleEndian.PutUint64(buf[8:], uint64(class))
	binary.LittleEndian.PutUint64(buf[16:], uint64(nodes))
	d.h.Write(buf[:])
	d.h.Write([]byte(backend))
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// rejected reports whether err is the fleet declining an admission — a
// verdict, not a failure.
func rejected(err error) bool {
	return errors.Is(err, nperr.ErrFleetFull) || errors.Is(err, nperr.ErrNoHealthyBackend)
}

// placer is the admission surface a pack drives: the cluster in process,
// the typed client over the wire.
type placer interface {
	place(ctx context.Context, rq request) (id int, backend string, class int, nodes topology.NodeSet, err error)
	release(ctx context.Context, id int) error
}

type clusterPlacer struct{ cl *numaplace.Cluster }

func (p clusterPlacer) place(ctx context.Context, rq request) (int, string, int, topology.NodeSet, error) {
	a, err := p.cl.Place(ctx, rq.w, rq.vcpus)
	if err != nil {
		return 0, "", 0, 0, err
	}
	return a.ID, a.Backend, a.Assignment.Class, a.Assignment.Nodes, nil
}

func (p clusterPlacer) release(ctx context.Context, id int) error { return p.cl.Release(ctx, id) }

// packed is one admission of a serial pack.
type packed struct {
	id      int
	backend string
}

// pack admits serially until the first rejection. It returns every
// admission in order and the pack's decision digest; len(adms) is the
// workload's fill_tenants.
func pack(ctx context.Context, p placer, reqs *requests) (adms []packed, dig string, err error) {
	d := newDigest()
	for {
		id, backend, class, nodes, perr := p.place(ctx, reqs.next())
		if rejected(perr) {
			return adms, d.String(), nil
		}
		if perr != nil {
			return nil, "", fmt.Errorf("packing: %w", perr)
		}
		d.add(id, backend, class, nodes)
		adms = append(adms, packed{id, backend})
	}
}

// thin releases every packed tenant keep rejects and returns the IDs that
// stay resident.
func thin(ctx context.Context, p placer, adms []packed, keep func(i int) bool) ([]int, error) {
	var ids []int
	for i, a := range adms {
		if keep(i) {
			ids = append(ids, a.id)
		} else if err := p.release(ctx, a.id); err != nil {
			return nil, fmt.Errorf("thinning the pack: %w", err)
		}
	}
	return ids, nil
}

// keepShare keeps a random share of a full pack resident.
func keepShare(rng *xrand.SplitMix64, n int, share float64) func(int) bool {
	kept := map[int]bool{}
	for _, i := range rng.Perm(n)[:int(share*float64(n))] {
		kept[i] = true
	}
	return func(i int) bool { return kept[i] }
}

// keepFirstPerBackend keeps the first tenant admitted to each machine.
func keepFirstPerBackend(adms []packed) func(int) bool {
	first := map[string]int{}
	for i, a := range adms {
		if _, ok := first[a.backend]; !ok {
			first[a.backend] = i
		}
	}
	return func(i int) bool { return first[adms[i].backend] == i }
}

// checkBooks verifies, at a quiescent point, the promises a placement
// service makes: no NUMA node double-booked on any machine, the fleet's
// tenant map and the engines' books in bijection, and every admission
// accounted for (resident == admitted − released).
func (tf *testFleet) checkBooks() error {
	adms := tf.cl.Assignments()
	type key struct {
		backend string
		id      int
	}
	mapped := make(map[key]bool, len(adms))
	used := map[string]topology.NodeSet{}
	for _, a := range adms {
		if !used[a.Backend].Intersect(a.Assignment.Nodes).Empty() {
			return fmt.Errorf("container %d on %s shares nodes %s with another tenant", a.ID, a.Backend, a.Assignment.Nodes)
		}
		used[a.Backend] = used[a.Backend].Union(a.Assignment.Nodes)
		mapped[key{a.Backend, a.Assignment.ID}] = true
	}
	engineSide := 0
	for i, eng := range tf.engines {
		for _, a := range eng.Assignments() {
			engineSide++
			if !mapped[key{tf.names[i], a.ID}] {
				return fmt.Errorf("%s serves container %d the fleet does not map there", tf.names[i], a.ID)
			}
		}
	}
	if engineSide != len(adms) {
		return fmt.Errorf("fleet maps %d tenants, engines serve %d", len(adms), engineSide)
	}
	st := tf.cl.Stats()
	if int64(st.Tenants) != st.Admitted-st.Released || st.Tenants != len(adms) {
		return fmt.Errorf("resident %d (listed %d) != admitted %d - released %d", st.Tenants, len(adms), st.Admitted, st.Released)
	}
	return nil
}

// sameState reports how a restored fleet differs from the live one that
// wrote its log ("" when identical).
func sameState(live, restored *numaplace.Cluster) string {
	if !reflect.DeepEqual(live.Assignments(), restored.Assignments()) {
		return "assignments differ"
	}
	if !reflect.DeepEqual(live.Stats(), restored.Stats()) {
		return "stats differ"
	}
	return ""
}
