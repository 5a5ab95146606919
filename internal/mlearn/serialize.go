package mlearn

import (
	"fmt"
	"math"
)

// NodeDump is the serializable form of a tree node. Value is the leaf
// prediction vector; interior nodes carry none (the grower materializes
// means only for leaves — older dumps that include interior means still
// load, the values are simply never read).
type NodeDump struct {
	Feature   int       `json:"f"`
	Threshold float64   `json:"t,omitempty"`
	Left      int32     `json:"l,omitempty"`
	Right     int32     `json:"r,omitempty"`
	Value     []float64 `json:"v,omitempty"`
}

// TreeDump is the serializable form of one tree. Child ids are local to
// the tree (its root is node 0).
type TreeDump struct {
	Nodes  []NodeDump `json:"nodes"`
	InDim  int        `json:"in"`
	OutDim int        `json:"out"`
}

// ForestDump is the serializable form of a Forest, for persisting trained
// predictors (the paper trains one model per machine and vCPU count, so
// deployments ship models alongside the machine specification).
type ForestDump struct {
	Trees  []TreeDump `json:"trees"`
	InDim  int        `json:"in"`
	OutDim int        `json:"out"`
}

// Dump exports the forest for serialization, one tree at a time in tree
// order: child ids become tree-local again, and a leaf carries its vector
// instead of its offset (l and r stay 0).
func (f *Forest) Dump() *ForestDump {
	d := &ForestDump{InDim: f.inDim, OutDim: f.outDim}
	for ti := range f.NumTrees() {
		root, end := f.roots[ti], int32(len(f.feat))
		if ti+1 < len(f.roots) {
			end = f.roots[ti+1]
		}
		td := TreeDump{InDim: f.inDim, OutDim: f.outDim, Nodes: make([]NodeDump, 0, end-root)}
		for g := root; g < end; g++ {
			n := NodeDump{Feature: int(f.feat[g]), Threshold: f.thr[g]}
			if o := int(f.left[g]); n.Feature < 0 {
				n.Value = f.leaves[o : o+f.outDim : o+f.outDim]
			} else {
				n.Left, n.Right = f.left[g]-root, f.right[g]-root
			}
			td.Nodes = append(td.Nodes, n)
		}
		d.Trees = append(d.Trees, td)
	}
	return d
}

// LoadForest builds a Forest from its dump, validating structure: every
// child id lies after its parent and inside its tree (so every walk ends
// at a leaf), every split feature is an input, every leaf vector has the
// output width. A negative feature marks a leaf.
func LoadForest(d *ForestDump) (*Forest, error) {
	if d == nil || len(d.Trees) == 0 {
		return nil, fmt.Errorf("mlearn: empty forest dump")
	}
	if d.InDim < 0 || d.OutDim < 0 || d.InDim > math.MaxInt32 {
		return nil, fmt.Errorf("mlearn: forest is %dx%d", d.InDim, d.OutDim)
	}
	s := &flat{}
	for ti, td := range d.Trees {
		if len(td.Nodes) == 0 {
			return nil, fmt.Errorf("mlearn: tree %d has no nodes", ti)
		}
		if td.InDim != d.InDim || td.OutDim != d.OutDim {
			return nil, fmt.Errorf("mlearn: tree %d is %dx%d, forest is %dx%d",
				ti, td.InDim, td.OutDim, d.InDim, d.OutDim)
		}
		root := int32(len(s.feat))
		s.roots = append(s.roots, root)
		for ni, n := range td.Nodes {
			if n.Feature >= td.InDim {
				return nil, fmt.Errorf("mlearn: tree %d node %d: feature %d out of range", ti, ni, n.Feature)
			}
			g := s.addNode()
			s.thr[g] = n.Threshold
			if n.Feature < 0 {
				if len(n.Value) != td.OutDim {
					return nil, fmt.Errorf("mlearn: tree %d node %d: leaf dim %d, want %d", ti, ni, len(n.Value), td.OutDim)
				}
				s.left[g] = int32(len(s.leaves))
				s.leaves = append(s.leaves, n.Value...)
				continue
			}
			if int(n.Left) >= len(td.Nodes) || int(n.Right) >= len(td.Nodes) ||
				int(n.Left) <= ni || int(n.Right) <= ni {
				return nil, fmt.Errorf("mlearn: tree %d node %d: bad children", ti, ni)
			}
			s.feat[g] = int32(n.Feature)
			s.left[g], s.right[g] = root+n.Left, root+n.Right
		}
	}
	return &Forest{flat: s, inDim: d.InDim, outDim: d.OutDim}, nil
}

// GroupKFold assigns each distinct group to one of k folds round-robin
// (in first-appearance order) and returns the resulting train/test splits.
// Used where full leave-one-group-out is too slow (input-pair search, SFS).
func GroupKFold(groups []string, k int) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("mlearn: k %d < 2", k)
	}
	order := []string{}
	seen := map[string]int{}
	for _, g := range groups {
		if _, ok := seen[g]; !ok {
			seen[g] = len(order)
			order = append(order, g)
		}
	}
	if len(order) < k {
		k = len(order)
		if k < 2 {
			return nil, fmt.Errorf("mlearn: need at least 2 groups")
		}
	}
	folds := make([]Fold, k)
	for i, g := range groups {
		f := seen[g] % k
		for j := range folds {
			if j == f {
				folds[j].Test = append(folds[j].Test, i)
			} else {
				folds[j].Train = append(folds[j].Train, i)
			}
		}
	}
	return folds, nil
}
