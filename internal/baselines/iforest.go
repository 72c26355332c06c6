package baselines

import (
	"math"

	"repro/internal/flowbench"
	"repro/internal/tensor"
)

// IsolationForest is the unsupervised anomaly detector of Liu et al. (2008),
// the "IF" row of Table IV: an ensemble of random isolation trees whose
// average path length scores how easily a point is isolated.
type IsolationForest struct {
	std       *standardizer
	trees     []*iNode
	subsample int
}

// iNode is one node of an isolation tree.
type iNode struct {
	feature     int
	split       float32
	left, right *iNode
	size        int // leaf size for path-length correction
}

// IForestConfig controls forest construction.
type IForestConfig struct {
	Trees     int
	Subsample int
	Seed      uint64
}

// DefaultIForestConfig matches the standard 100-tree, 256-sample setting.
func DefaultIForestConfig() IForestConfig { return IForestConfig{Trees: 100, Subsample: 256, Seed: 3} }

// FitIsolationForest builds the forest on (unlabeled) training jobs.
func FitIsolationForest(train []flowbench.Job, cfg IForestConfig) *IsolationForest {
	f := &IsolationForest{std: fitStandardizer(train), subsample: cfg.Subsample}
	rng := tensor.NewRNG(cfg.Seed)
	x := f.std.Matrix(train)
	maxDepth := int(math.Ceil(math.Log2(float64(max(2, cfg.Subsample)))))
	for t := 0; t < cfg.Trees; t++ {
		idx := make([]int, min(cfg.Subsample, x.Rows))
		for i := range idx {
			idx[i] = rng.Intn(x.Rows)
		}
		f.trees = append(f.trees, buildITree(x, idx, 0, maxDepth, rng))
	}
	return f
}

func buildITree(x *tensor.Matrix, idx []int, depth, maxDepth int, rng *tensor.RNG) *iNode {
	if len(idx) <= 1 || depth >= maxDepth {
		return &iNode{size: len(idx)}
	}
	feat := rng.Intn(x.Cols)
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, i := range idx {
		v := x.At(i, feat)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		return &iNode{size: len(idx)}
	}
	split := lo + rng.Float32()*(hi-lo)
	var left, right []int
	for _, i := range idx {
		if x.At(i, feat) < split {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &iNode{
		feature: feat,
		split:   split,
		left:    buildITree(x, left, depth+1, maxDepth, rng),
		right:   buildITree(x, right, depth+1, maxDepth, rng),
		size:    len(idx),
	}
}

// avgPathLength is c(n), the expected path length of an unsuccessful BST
// search, used to normalize isolation depths.
func avgPathLength(n int) float64 {
	if n <= 1 {
		return 0
	}
	h := math.Log(float64(n-1)) + 0.5772156649
	return 2*h - 2*float64(n-1)/float64(n)
}

func (f *IsolationForest) pathLength(node *iNode, row []float32, depth float64) float64 {
	if node.left == nil {
		return depth + avgPathLength(node.size)
	}
	if row[node.feature] < node.split {
		return f.pathLength(node.left, row, depth+1)
	}
	return f.pathLength(node.right, row, depth+1)
}

// Score returns anomaly scores in (0,1); higher means more anomalous
// (shorter average isolation path).
func (f *IsolationForest) Score(jobs []flowbench.Job) []float64 {
	x := f.std.Matrix(jobs)
	c := avgPathLength(f.subsample)
	out := make([]float64, len(jobs))
	for i := range out {
		var sum float64
		for _, tr := range f.trees {
			sum += f.pathLength(tr, x.Row(i), 0)
		}
		mean := sum / float64(len(f.trees))
		out[i] = math.Pow(2, -mean/c)
	}
	return out
}
