package transformer

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// isFinite checks every element of a matrix.
func isFinite(m *tensor.Matrix) bool {
	for _, v := range m.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// TestModelFiniteUnderExtremeEmbeddings injects huge values into the
// embedding table and checks layer norm keeps the forward pass finite —
// failure-injection for numerical robustness.
func TestModelFiniteUnderExtremeEmbeddings(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(71))
	for i := range m.TokEmb.Table.W.Data {
		m.TokEmb.Table.W.Data[i] *= 1e6
	}
	logits := m.ForwardClsBatchWS([][]int{{1, 2, 3, 4}}, nil)
	if !isFinite(logits) {
		t.Fatal("extreme embeddings produced non-finite logits")
	}
}

// TestTrainingSurvivesOutlierGradients drives a training step with an
// extreme loss gradient through clipping and checks weights stay finite.
func TestTrainingSurvivesOutlierGradients(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(72))
	opt := nn.NewAdamW(1e-3, 0.01)
	params := m.Params()
	tape := nn.NewTape()
	logits := m.forwardClsTape([][]int{{1, 2, 3}}, tape)
	grad := tensor.New(logits.Rows, logits.Cols)
	grad.Fill(1e8) // absurd upstream gradient
	m.backward(tape, grad)
	nn.ClipGradNorm(params, 1.0)
	opt.Step(params)
	for _, p := range params {
		if !isFinite(p.W) {
			t.Fatalf("param %s became non-finite", p.Name)
		}
	}
	// The model must still produce finite outputs afterwards.
	if !isFinite(m.ForwardClsBatchWS([][]int{{1, 2, 3}}, nil)) {
		t.Fatal("model broken after outlier gradient step")
	}
}

// Property: classification probabilities are a valid distribution for
// arbitrary token sequences.
func TestClsLogitsFiniteProperty(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(73))
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(m.Config.MaxSeqLen+10) // may exceed MaxSeqLen (truncation path)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(m.Config.VocabSize)
		}
		return isFinite(m.ForwardClsBatchWS([][]int{ids}, nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizerZeroGradientNoop: stepping AdamW without weight decay on zero
// gradients must not move the weights, and zero gradients have zero norm.
func TestOptimizerZeroGradientNoop(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(75))
	params := m.Params()
	before := m.TokEmb.Table.W.Clone()
	nn.NewAdamW(0.1, 0).Step(params)
	if !m.TokEmb.Table.W.Equal(before) {
		t.Fatal("AdamW (no weight decay) moved weights with zero gradients")
	}
	if nn.ClipGradNorm(params, 1.0) != 0 {
		t.Fatal("zero gradients have nonzero norm")
	}
}
