package baselines

import (
	"repro/internal/flowbench"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// MLP is the supervised multi-layer-perceptron baseline of Figure 4: two
// hidden ReLU layers over standardized job features with a softmax output.
type MLP struct {
	std *standardizer
	net *nn.Sequential
}

// MLPConfig controls MLP training.
type MLPConfig struct {
	Hidden int
	Epochs int
	LR     float64
	Batch  int
	Seed   uint64
}

// DefaultMLPConfig is the baseline recipe.
func DefaultMLPConfig() MLPConfig {
	return MLPConfig{Hidden: 32, Epochs: 20, LR: 1e-3, Batch: 32, Seed: 1}
}

// TrainMLP fits an MLP on labeled jobs.
func TrainMLP(train []flowbench.Job, cfg MLPConfig) *MLP {
	rng := tensor.NewRNG(cfg.Seed)
	m := &MLP{
		std: fitStandardizer(train),
		net: nn.NewSequential(
			nn.NewLinear("mlp.l1", flowbench.NumFeatures, cfg.Hidden, rng),
			nn.NewReLU(),
			nn.NewLinear("mlp.l2", cfg.Hidden, cfg.Hidden, rng),
			nn.NewReLU(),
			nn.NewLinear("mlp.out", cfg.Hidden, 2, rng),
		),
	}
	x := m.std.Matrix(train)
	y := Labels(train)
	opt := nn.NewAdamW(cfg.LR, 1e-4)
	ce := nn.NewSoftmaxCrossEntropy()
	order := rng.Perm(len(train))
	tape := nn.NewTape()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(order)
		for lo := 0; lo < len(order); lo += cfg.Batch {
			hi := lo + cfg.Batch
			if hi > len(order) {
				hi = len(order)
			}
			xb := tensor.New(hi-lo, flowbench.NumFeatures)
			yb := make([]int, hi-lo)
			for k, idx := range order[lo:hi] {
				copy(xb.Row(k), x.Row(idx))
				yb[k] = y[idx]
			}
			logits := m.net.Forward(xb, tape.WS(), tape)
			_, grad := ce.Loss(logits, yb, nil)
			m.net.Backward(tape, grad)
			tape.Reset()
			opt.Step(m.net.Params())
		}
	}
	return m
}

// predict classifies jobs, returning 0/1 labels.
func (m *MLP) predict(jobs []flowbench.Job) []int {
	x := m.std.Matrix(jobs)
	logits := m.net.Forward(x, nil, nil)
	out := make([]int, len(jobs))
	for i := range out {
		out[i] = tensor.ArgMax(logits.Row(i))
	}
	return out
}

// Evaluate scores the MLP on jobs.
func (m *MLP) Evaluate(jobs []flowbench.Job) metrics.Confusion {
	return metrics.NewConfusion(Labels(jobs), m.predict(jobs))
}
