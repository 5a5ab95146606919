// Package xrand provides small, fast, explicitly seeded pseudo-random
// generators used across the reproduction. Every stochastic component
// (measurement noise, random forest bootstrapping, k-means initialisation,
// simulated OS scheduling) derives its stream from an explicit seed so that
// all experiments are exactly reproducible.
package xrand

import "math"

// SplitMix64 is the splitmix64 generator: tiny state, excellent mixing,
// ideal for deriving independent streams from hashed seeds.
type SplitMix64 struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Mix hashes a sequence of values into a single seed, for deriving
// independent deterministic streams (e.g. per workload, placement, trial).
func Mix(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = Mix2(h, p)
	}
	return h
}

// Mix2 folds x into the running hash h: the non-variadic, allocation-free
// combining step underlying Mix, for hot paths that hash incrementally.
func Mix2(h, x uint64) uint64 {
	h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	return mix64(h)
}

// HashString hashes a string into a seed component (FNV-1a).
func HashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *SplitMix64) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *SplitMix64) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate (Box-Muller).
func (r *SplitMix64) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Perm returns a random permutation of [0, n).
func (r *SplitMix64) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements via swap (Fisher-Yates).
func (r *SplitMix64) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
