package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// numericalGrad estimates ∂loss/∂θ for one scalar of a parameter by central
// differences, where loss is computed by lossFn (which must re-run the full
// forward pass).
func numericalGrad(theta *float32, lossFn func() float64) float64 {
	const h = 1e-3
	orig := *theta
	*theta = orig + h
	lp := lossFn()
	*theta = orig - h
	lm := lossFn()
	*theta = orig
	return (lp - lm) / (2 * h)
}

// checkLayerGradients runs a scalar loss L = Σ dout⊙layer(x) through the
// layer and compares analytic parameter and input gradients to finite
// differences. A frozen parameter must get no gradient at all, and the taped
// forward must return the inference forward's output, bit for bit.
func checkLayerGradients(t *testing.T, layer Layer, x *tensor.Matrix, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(99)
	// Fixed random upstream gradient defines the scalar loss.
	y0 := layer.Forward(x, nil, nil)
	dout := tensor.New(y0.Rows, y0.Cols)
	tensor.Gaussian(dout, 1, rng)
	lossFn := func() float64 {
		y := layer.Forward(x, nil, nil)
		var s float64
		for i, v := range y.Data {
			s += float64(v) * float64(dout.Data[i])
		}
		return s
	}
	// Analytic pass.
	ZeroGrads(layer.Params())
	tape := NewTape()
	if y := layer.Forward(x, tape.WS(), tape); !y.Equal(y0) {
		t.Error("taped forward differs from the inference forward")
	}
	dx := layer.Backward(tape, dout)

	for _, p := range layer.Params() {
		if p.Frozen {
			for i, g := range p.Grad.Data {
				if g != 0 {
					t.Errorf("frozen %s grad[%d] = %v, want 0", p.Name, i, g)
					break
				}
			}
			continue
		}
		// Check a few scattered entries per parameter to keep tests fast.
		for k := 0; k < 5 && k < len(p.W.Data); k++ {
			idx := (k * 7919) % len(p.W.Data)
			want := numericalGrad(&p.W.Data[idx], lossFn)
			got := float64(p.Grad.Data[idx])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("%s grad[%d] = %v, want %v", p.Name, idx, got, want)
			}
		}
	}
	for k := 0; k < 5 && k < len(x.Data); k++ {
		idx := (k * 104729) % len(x.Data)
		want := numericalGrad(&x.Data[idx], lossFn)
		got := float64(dx.Data[idx])
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Errorf("dx[%d] = %v, want %v", idx, got, want)
		}
	}
}

func randomInput(rows, cols int, seed uint64) *tensor.Matrix {
	x := tensor.New(rows, cols)
	tensor.Gaussian(x, 1, tensor.NewRNG(seed))
	return x
}

func TestLinearGradcheck(t *testing.T) {
	rng := tensor.NewRNG(1)
	checkLayerGradients(t, NewLinear("lin", 6, 4, rng), randomInput(3, 6, 2), 1e-2)
}

func TestLayerNormGradcheck(t *testing.T) {
	checkLayerGradients(t, NewLayerNorm("ln", 8), randomInput(3, 8, 4), 2e-2)
}

func TestGELUGradcheck(t *testing.T) {
	checkLayerGradients(t, NewGELU(), randomInput(3, 5, 5), 1e-2)
}

func TestReLUGradcheck(t *testing.T) {
	checkLayerGradients(t, NewReLU(), randomInput(3, 5, 6), 1e-2)
}

func TestTanhGradcheck(t *testing.T) {
	checkLayerGradients(t, NewTanh(), randomInput(3, 5, 7), 1e-2)
}

func TestSequentialGradcheck(t *testing.T) {
	rng := tensor.NewRNG(8)
	seq := NewSequential(
		NewLinear("l1", 6, 10, rng),
		NewGELU(),
		NewLinear("l2", 10, 4, rng),
	)
	checkLayerGradients(t, seq, randomInput(3, 6, 9), 1e-2)
}

// TestLoRAGradcheck checks A, B and the input gradient against finite
// differences, and that the frozen base weight and bias get no gradient.
func TestLoRAGradcheck(t *testing.T) {
	rng := tensor.NewRNG(10)
	base := NewLinear("base", 6, 4, rng)
	lora := NewLoRA(base, 2, 4, 0, rng)
	if !base.Weight.Frozen || !base.Bias.Frozen {
		t.Fatal("NewLoRA left the base trainable")
	}
	// Make B nonzero so its gradient path is exercised meaningfully.
	tensor.Gaussian(lora.B.W, 0.5, rng)
	checkLayerGradients(t, lora, randomInput(3, 6, 11), 1e-2)
}

// TestFrozenLayerNormGradcheck: with γ and β frozen, the input gradient still
// matches finite differences and neither parameter gets a gradient.
func TestFrozenLayerNormGradcheck(t *testing.T) {
	ln := NewLayerNorm("ln", 8)
	FreezeAll(ln.Params(), true)
	checkLayerGradients(t, ln, randomInput(3, 8, 4), 2e-2)
}

func TestCrossEntropyGradcheck(t *testing.T) {
	logits := randomInput(4, 3, 12)
	targets := []int{0, 2, 1, 1}
	ce := NewSoftmaxCrossEntropy()
	_, grad := ce.Loss(logits, targets, nil)
	for k := 0; k < 6; k++ {
		idx := (k * 5) % len(logits.Data)
		want := numericalGrad(&logits.Data[idx], func() float64 {
			l, _ := ce.Loss(logits, targets, nil)
			return l
		})
		got := float64(grad.Data[idx])
		if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
			t.Errorf("CE grad[%d] = %v, want %v", idx, got, want)
		}
	}
}

func TestMSEGradcheck(t *testing.T) {
	pred := randomInput(3, 4, 13)
	target := randomInput(3, 4, 14)
	_, grad := MSE(pred, target)
	for k := 0; k < 6; k++ {
		idx := (k * 5) % len(pred.Data)
		want := numericalGrad(&pred.Data[idx], func() float64 {
			l, _ := MSE(pred, target)
			return l
		})
		got := float64(grad.Data[idx])
		if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
			t.Errorf("MSE grad[%d] = %v, want %v", idx, got, want)
		}
	}
}
