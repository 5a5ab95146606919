package bench

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/xrand"
)

// caller is the closed-loop orchestrator: it waits for each verdict before
// sending the next request. Every cycle places one container and releases
// a random one of its own, so the resident population holds steady.
type caller struct {
	p    placer
	reqs *requests
	pick *xrand.SplitMix64 // which of its own tenants to release
	own  []int

	// Per-cycle samples in nanoseconds, pre-sized for the window.
	place, release []uint32
	rejects, fails int
	firstErr       error

	// onCycle, when set, runs after each completed cycle with the caller's
	// running count (fleet_manage's admitter paces the operator with it).
	onCycle func(n int)
	cycles  int

	// Set by the traced pass only: the tracer, the layer its caller-side
	// spans belong to ("client" over the wire, "fleet" in process), and a
	// digest of every decision the pass receives.
	t     *tracer
	layer string
	dig   *digest
}

func newCaller(p placer, seed uint64, stream int, sizes []int, own []int) *caller {
	return &caller{p: p, reqs: newRequests(seed, stream, sizes),
		pick: xrand.New(xrand.Mix(seed, uint64(stream), 0x9e37)), own: own}
}

func clampNS(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// cycle runs one place+release and returns the two latencies; ok is false
// when the admission was refused or failed (nothing is released then, so
// the population does not drift).
func (c *caller) cycle(ctx context.Context) (place, release time.Duration, ok bool) {
	rq := c.reqs.next()
	c.t.nextOp()
	sp := c.t.begin(c.layer+".place", -1)
	t0 := time.Now()
	id, backend, class, nodes, err := c.p.place(ctx, rq)
	t1 := time.Now()
	c.t.end(sp, "")
	place = t1.Sub(t0)
	if err != nil {
		if rejected(err) {
			c.rejects++
		} else if ctx.Err() == nil {
			c.fail(err)
		}
		return place, 0, false
	}
	if c.dig != nil {
		c.dig.add(id, backend, class, nodes)
	}
	c.own = append(c.own, id)
	i := c.pick.Intn(len(c.own))
	victim := c.own[i]
	c.own[i] = c.own[len(c.own)-1]
	c.own = c.own[:len(c.own)-1]
	c.t.nextOp()
	sp = c.t.begin(c.layer+".release", -1)
	t2 := time.Now()
	err = c.p.release(ctx, victim)
	release = time.Since(t2)
	c.t.end(sp, "")
	if err != nil && ctx.Err() == nil {
		c.fail(err)
	}
	c.cycles++
	if c.onCycle != nil {
		c.onCycle(c.cycles)
	}
	return place, release, true
}

func (c *caller) fail(err error) {
	c.fails++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// runUntil loops cycles until stop, keeping their latencies when record is
// set.
func (c *caller) runUntil(ctx context.Context, stop time.Time, record bool) {
	for ctx.Err() == nil && time.Now().Before(stop) {
		p, r, ok := c.cycle(ctx)
		if !record {
			continue
		}
		c.place = append(c.place, clampNS(p))
		if ok {
			c.release = append(c.release, clampNS(r))
		} else {
			c.release = append(c.release, 0)
		}
	}
}

// window is what a measured serving window yields. The window is cut into
// slices of about a second, each followed by a reference measurement
// (reference.go); a slice's rate and latencies are scaled by the machine
// speed measured on either side of it, and the window reports medians over
// its slices: a stall moves one slice, a slow minute scales out.
type window struct {
	cycles, attempts, rejects, fails int
	firstErr                         error
	perSecond                        float64 // cycles/s at speed 1
	placeP50, placeP90               float64 // µs at speed 1
	cpuPerCycle                      float64 // µs at speed 1
	allocPerCycle                    float64 // bytes
	speed                            float64 // median machine speed over the slices
	rawPerSecond, rawPlaceP50        float64 // as the clock read them
	rawPlaceP99, rawReleaseP50       float64
	samplesPerSlice                  int
}

// serve runs the caller through an untimed warm-up and a measured window
// of the given length, reference gaps included. quiesce, when set, runs
// after the caller has stopped for a gap and returns once nothing else of
// the workload is running, so the reference has the processor to itself.
func serve(ctx context.Context, c *caller, ref *reference, warmup, length time.Duration, quiesce func()) window {
	slices := int(length / time.Second)
	if slices < 1 {
		slices = 1
	}
	period := length / time.Duration(slices)
	gap := time.Duration(float64(period) * refGapShare)
	// Room for well over the fastest workload's rate; append grows it if a
	// future change outruns the guess.
	c.place = make([]uint32, 0, int(length.Seconds()*80e3)+1024)
	c.release = make([]uint32, 0, cap(c.place))
	phase := func(d time.Duration, record bool) time.Duration {
		t0 := time.Now()
		c.runUntil(ctx, t0.Add(d), record)
		elapsed := time.Since(t0)
		if quiesce != nil {
			quiesce()
		}
		return elapsed
	}

	phase(warmup, false)
	var w window
	var rates, p50s, p90s, cpus, speeds, rawRates, rawP50s, rawP99s, rawR50s []float64
	alloc0 := totalAlloc()
	before := ref.speed(gap)
	for s := 0; s < slices && ctx.Err() == nil; s++ {
		lo := len(c.place)
		cpu0 := cpuTime()
		elapsed := phase(period-gap, true)
		cpu := cpuTime() - cpu0
		after := ref.speed(gap)
		speed := (before + after) / 2
		before = after

		var pl, rl []float64
		for j := lo; j < len(c.place); j++ {
			pl = append(pl, float64(c.place[j])/1e3)
			if c.release[j] != 0 {
				rl = append(rl, float64(c.release[j])/1e3)
			}
		}
		if len(rl) == 0 {
			continue // a slice that completed nothing has no rate to scale
		}
		sort.Float64s(pl)
		sort.Float64s(rl)
		w.attempts += len(pl)
		w.cycles += len(rl)
		rate := float64(len(rl)) / elapsed.Seconds()
		speeds = append(speeds, speed)
		rates = append(rates, rate/speed)
		p50s = append(p50s, quantile(pl, 0.5)*speed)
		p90s = append(p90s, quantile(pl, 0.9)*speed)
		cpus = append(cpus, float64(cpu.Microseconds())/float64(len(rl))*speed)
		rawRates = append(rawRates, rate)
		rawP50s = append(rawP50s, quantile(pl, 0.5))
		rawP99s = append(rawP99s, quantile(pl, 0.99))
		rawR50s = append(rawR50s, quantile(rl, 0.5))
	}
	alloc1 := totalAlloc()

	w.rejects, w.fails, w.firstErr = c.rejects, c.fails, c.firstErr
	w.perSecond, w.placeP50, w.placeP90, w.cpuPerCycle = median(rates), median(p50s), median(p90s), median(cpus)
	w.speed = median(speeds)
	w.rawPerSecond, w.rawPlaceP50, w.rawPlaceP99, w.rawReleaseP50 = median(rawRates), median(rawP50s), median(rawP99s), median(rawR50s)
	w.samplesPerSlice = w.attempts / slices
	if w.cycles > 0 {
		w.allocPerCycle = float64(alloc1-alloc0) / float64(w.cycles)
	}
	return w
}
