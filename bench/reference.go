package bench

import (
	"fmt"
	"syscall"
	"time"
)

// reference measures how fast the machine is right now, so that a timing
// can be reported at one fixed machine speed instead of at whatever speed
// the shared host allowed during the run.
//
// The sandbox this benchmark is recorded on is a few cores of a shared
// host. The same binary on the same inputs runs 30–45 % slower for seconds
// to minutes at a time, and no window a run can afford averages that out
// (bench/README.md, "Why timings are scaled"). What does hold is the ratio
// between the program and a fixed piece of work measured in the same
// seconds. One reference round is that fixed work: a dependent pointer
// chase through 1 MB (cache and memory latency) followed by write+read
// pairs on a pipe (kernel entry and copy, on caches the chase has just
// displaced). It touches neither the program under test nor the allocator
// or the collector. The mix, about a quarter of the time in the chase, is
// the one whose time tracked all four workloads' with a slope nearest 1
// over 48 runs (bench/README.md has the fit).
type reference struct {
	chase []uint32
	pipe  [2]int
	buf   []byte
	err   error // the first failed pipe call; Run reports it
}

const (
	chaseWords = 1 << 18 // 1 MB of uint32
	chaseSteps = 1000
	pipePairs  = 48

	// refNominal is the reference rounds per second that count as speed 1:
	// what this sandbox reaches in its fast state, so that scaled timings
	// read like the raw ones of a good run. Changing it rescales every
	// timing metric; treat it like a change of unit.
	refNominal = 22000.0

	// refGapShare is the part of each slice period spent on the reference.
	refGapShare = 0.1
)

func newReference() (*reference, error) {
	r := &reference{chase: make([]uint32, chaseWords), buf: make([]byte, 256)}
	for i := range r.chase {
		r.chase[i] = uint32(i)
	}
	// Sattolo's shuffle: the permutation is one cycle, so a chase never
	// settles into a short, cache-resident loop.
	x := uint64(0x9e3779b97f4a7c15)
	for i := chaseWords - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		r.chase[i], r.chase[j] = r.chase[j], r.chase[i]
	}
	if err := syscall.Pipe(r.pipe[:]); err != nil {
		return nil, fmt.Errorf("reference pipe: %w", err)
	}
	return r, nil
}

func (r *reference) close() {
	syscall.Close(r.pipe[0])
	syscall.Close(r.pipe[1])
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// round does one unit of the fixed work and returns where the chase ended,
// which the next round starts from.
func (r *reference) round(at uint32) uint32 {
	for k := 0; k < chaseSteps; k++ {
		at = r.chase[at]
	}
	for p := 0; p < pipePairs; p++ {
		_, err := syscall.Write(r.pipe[1], r.buf)
		if err == nil {
			_, err = syscall.Read(r.pipe[0], r.buf)
		}
		if err != nil && r.err == nil {
			r.err = fmt.Errorf("reference pipe: %w", err)
		}
	}
	return at
}

// speed runs reference rounds for about d and returns the machine's speed:
// rounds per second over refNominal. The caller makes sure nothing else of
// the benchmark is running.
func (r *reference) speed(d time.Duration) float64 {
	var at uint32
	t0 := time.Now()
	rounds := 0
	for elapsed := time.Duration(0); elapsed < d || rounds < 8; elapsed = time.Since(t0) {
		at = r.round(at)
		rounds++
	}
	return float64(rounds) / time.Since(t0).Seconds() / refNominal
}
