package mlearn

// SFS runs Sequential Forward Selection (Draper & Smith; John, Kohavi &
// Pfleger) over the feature indices [0, numFeatures): starting from the
// empty set, it greedily adds the feature that most improves eval's score
// and stops when no addition improves it or maxFeatures is reached. This is
// the procedure the paper used to pick predictive HPEs for the baseline
// model variant (§5).
//
// eval receives a candidate feature subset (ascending order) and returns a
// score where higher is better (e.g. negative cross-validated error).
func SFS(numFeatures, maxFeatures int, eval func(subset []int) float64) []int {
	if maxFeatures <= 0 || maxFeatures > numFeatures {
		maxFeatures = numFeatures
	}
	selected := []int{}
	inSet := make([]bool, numFeatures)
	var bestScore float64
	first := true
	for len(selected) < maxFeatures {
		bestFeat := -1
		bestFeatScore := 0.0
		for f := 0; f < numFeatures; f++ {
			if inSet[f] {
				continue
			}
			candidate := insertSorted(selected, f)
			score := eval(candidate)
			if bestFeat == -1 || score > bestFeatScore {
				bestFeat, bestFeatScore = f, score
			}
		}
		if bestFeat == -1 {
			break
		}
		if !first && bestFeatScore <= bestScore {
			break // no improvement: stop
		}
		selected = insertSorted(selected, bestFeat)
		inSet[bestFeat] = true
		bestScore = bestFeatScore
		first = false
	}
	return selected
}

func insertSorted(s []int, v int) []int {
	out := make([]int, 0, len(s)+1)
	added := false
	for _, x := range s {
		if !added && v < x {
			out = append(out, v)
			added = true
		}
		out = append(out, x)
	}
	if !added {
		out = append(out, v)
	}
	return out
}
