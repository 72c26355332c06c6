package nn

import (
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy between row-wise
// softmax(logits) and integer targets, returning the loss and the gradient
// ∂loss/∂logits (already divided by the batch size). Rows whose target is
// IgnoreIndex contribute neither loss nor gradient — this is how padding
// positions are masked during language-model pre-training.
type SoftmaxCrossEntropy struct {
	// IgnoreIndex marks targets to skip (default -1).
	IgnoreIndex int
}

// NewSoftmaxCrossEntropy returns a loss with IgnoreIndex -1.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy {
	return &SoftmaxCrossEntropy{IgnoreIndex: -1}
}

// Loss returns (mean loss, dlogits). logits is [n, classes]; targets has
// length n. The probabilities and the gradient are drawn from ws (a
// trainer passes its tape's, so the gradient lives until the tape's Reset);
// nil allocates them.
func (s *SoftmaxCrossEntropy) Loss(logits *tensor.Matrix, targets []int, ws *tensor.Workspace) (float64, *tensor.Matrix) {
	if len(targets) != logits.Rows {
		panic("nn: cross-entropy targets length mismatch")
	}
	probs := ws.Get(logits.Rows, logits.Cols)
	copy(probs.Data, logits.Data)
	tensor.RowSoftmax(probs)
	// Zeroed: an ignored row's gradient is 0.
	grad := ws.GetZeroed(logits.Rows, logits.Cols)
	var total float64
	count := 0
	for i, t := range targets {
		if t == s.IgnoreIndex {
			continue
		}
		count++
		p := probs.At(i, t)
		if p < 1e-12 {
			p = 1e-12
		}
		total += -math.Log(float64(p))
		gr := grad.Row(i)
		pr := probs.Row(i)
		copy(gr, pr)
		gr[t] -= 1
	}
	if count == 0 {
		return 0, grad
	}
	inv := float32(1.0 / float64(count))
	for i := range grad.Data {
		grad.Data[i] *= inv
	}
	return total / float64(count), grad
}

// MSE computes the mean squared error between pred and target and the
// gradient ∂loss/∂pred. Used by the autoencoder baselines.
func MSE(pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSE shape mismatch")
	}
	grad := tensor.New(pred.Rows, pred.Cols)
	var total float64
	n := float64(len(pred.Data))
	if n == 0 {
		return 0, grad
	}
	for i, v := range pred.Data {
		d := v - target.Data[i]
		total += float64(d) * float64(d)
		grad.Data[i] = 2 * d / float32(n)
	}
	return total / n, grad
}
