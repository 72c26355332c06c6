// Package baselines implements the classical comparators the paper evaluates
// against:
//
//   - supervised: an MLP and a graph neural network (GCN) over the workflow
//     DAG, following Jin et al. (the paper's reference [30]) — the "MLP" and
//     "GNN" bars of Figure 4;
//   - unsupervised: Isolation Forest, PCA reconstruction, MLP autoencoder,
//     GCN autoencoder, and AnomalyDAE — the Table IV rows, including
//     AnomalyDAE's out-of-memory failure, which is reproduced faithfully by
//     a memory guard on its n×n structure reconstruction.
package baselines

import (
	"math"

	"repro/internal/flowbench"
	"repro/internal/tensor"
)

// standardizer transforms raw job features into z-scored log-space values.
// Workflow features are heavy-tailed (lognormal durations, byte counts), so
// features are log1p-transformed before centering — the preprocessing used
// by the Flow-Bench reference pipelines.
type standardizer struct {
	Mean [flowbench.NumFeatures]float64
	Std  [flowbench.NumFeatures]float64
}

// fitStandardizer estimates per-feature statistics from jobs.
func fitStandardizer(jobs []flowbench.Job) *standardizer {
	s := &standardizer{}
	if len(jobs) == 0 {
		for i := range s.Std {
			s.Std[i] = 1
		}
		return s
	}
	n := float64(len(jobs))
	for _, j := range jobs {
		for i, v := range j.Features {
			s.Mean[i] += math.Log1p(v)
		}
	}
	for i := range s.Mean {
		s.Mean[i] /= n
	}
	for _, j := range jobs {
		for i, v := range j.Features {
			d := math.Log1p(v) - s.Mean[i]
			s.Std[i] += d * d
		}
	}
	for i := range s.Std {
		s.Std[i] = math.Sqrt(s.Std[i] / n)
		if s.Std[i] < 1e-9 {
			s.Std[i] = 1
		}
	}
	return s
}

// transform returns the standardized feature vector of one job.
func (s *standardizer) transform(j flowbench.Job) [flowbench.NumFeatures]float32 {
	var out [flowbench.NumFeatures]float32
	for i, v := range j.Features {
		out[i] = float32((math.Log1p(v) - s.Mean[i]) / s.Std[i])
	}
	return out
}

// Matrix stacks the standardized features of jobs into an n×NumFeatures
// matrix.
func (s *standardizer) Matrix(jobs []flowbench.Job) *tensor.Matrix {
	m := tensor.New(len(jobs), flowbench.NumFeatures)
	for r, j := range jobs {
		f := s.transform(j)
		copy(m.Row(r), f[:])
	}
	return m
}

// Labels extracts the 0/1 labels of jobs.
func Labels(jobs []flowbench.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.Label
	}
	return out
}
