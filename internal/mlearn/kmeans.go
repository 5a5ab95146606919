package mlearn

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// KMeansResult holds a clustering of points into k clusters.
type KMeansResult struct {
	K         int
	Centroids [][]float64
	// Assign maps each input point to its cluster index.
	Assign []int
	// Inertia is the total squared distance of points to their centroids.
	Inertia float64
}

// KMeans clusters points into k clusters using Lloyd's algorithm with
// k-means++ seeding, deterministic for a given seed. It panics on k <= 0
// and returns an error when there are fewer points than clusters.
func KMeans(points [][]float64, k int, seed uint64) (*KMeansResult, error) {
	if k <= 0 {
		panic("mlearn: k must be positive")
	}
	if len(points) < k {
		return nil, fmt.Errorf("mlearn: %d points for %d clusters", len(points), k)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("mlearn: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	rng := xrand.New(xrand.Mix(seed, 0x4B4D454E))

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := rng.Intn(len(points))
	centroids = append(centroids, clone(points[first]))
	dist := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			d := math.Inf(1)
			for _, c := range centroids {
				if v := sqDist(p, c); v < d {
					d = v
				}
			}
			dist[i] = d
			total += d
		}
		var next int
		if total == 0 {
			next = rng.Intn(len(points))
		} else {
			r := rng.Float64() * total
			acc := 0.0
			for i, d := range dist {
				acc += d
				if acc >= r {
					next = i
					break
				}
			}
		}
		centroids = append(centroids, clone(points[next]))
	}

	assign := make([]int, len(points))
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := sqDist(p, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Update centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			counts[assign[i]]++
			for d := range p {
				sums[assign[i]][d] += p[d]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster with the farthest point.
				far, farD := 0, -1.0
				for i, p := range points {
					if d := sqDist(p, centroids[assign[i]]); d > farD {
						far, farD = i, d
					}
				}
				centroids[c] = clone(points[far])
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}

	res := &KMeansResult{K: k, Centroids: centroids, Assign: assign}
	for i, p := range points {
		res.Inertia += sqDist(p, centroids[assign[i]])
	}
	return res, nil
}

// Silhouette returns the mean silhouette coefficient of a clustering
// (Rousseeuw 1987), the criterion the paper uses to pick k. Values close
// to 1 indicate tight, well-separated clusters. Singleton clusters
// contribute 0, matching the standard convention.
func Silhouette(points [][]float64, assign []int, k int) float64 {
	n := len(points)
	if n == 0 || n != len(assign) {
		return 0
	}
	counts := make([]int, k)
	for _, a := range assign {
		counts[a]++
	}
	var total float64
	for i, p := range points {
		// Mean distance to each cluster.
		meanDist := make([]float64, k)
		for j, q := range points {
			if i == j {
				continue
			}
			meanDist[assign[j]] += math.Sqrt(sqDist(p, q))
		}
		own := assign[i]
		if counts[own] <= 1 {
			continue // silhouette of a singleton is 0
		}
		a := meanDist[own] / float64(counts[own]-1)
		b := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == own || counts[c] == 0 {
				continue
			}
			if v := meanDist[c] / float64(counts[c]); v < b {
				b = v
			}
		}
		if math.IsInf(b, 1) {
			continue // only one non-empty cluster
		}
		if m := math.Max(a, b); m > 0 {
			total += (b - a) / m
		}
	}
	return total / float64(n)
}

// ChooseK clusters points for every k in [2, kMax] and returns the result
// with the highest mean silhouette coefficient — "the standard practice in
// the field" the paper cites for determining the number of workload
// categories.
func ChooseK(points [][]float64, kMax int, seed uint64) (*KMeansResult, float64, error) {
	if kMax < 2 {
		return nil, 0, fmt.Errorf("mlearn: kMax %d < 2", kMax)
	}
	var best *KMeansResult
	bestSil := math.Inf(-1)
	for k := 2; k <= kMax && k <= len(points); k++ {
		res, err := KMeans(points, k, xrand.Mix(seed, uint64(k)))
		if err != nil {
			return nil, 0, err
		}
		sil := Silhouette(points, res.Assign, k)
		if sil > bestSil {
			best, bestSil = res, sil
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("mlearn: not enough points to cluster")
	}
	return best, bestSil, nil
}

func clone(p []float64) []float64 {
	q := make([]float64, len(p))
	copy(q, p)
	return q
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
