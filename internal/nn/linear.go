package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Linear is a fully connected layer computing y = xW + b.
type Linear struct {
	Weight *Param // [in, out]
	Bias   *Param // [1, out]; nil when the layer has no bias

	x *tensor.Matrix // cached input for Backward
}

// NewLinear returns an in→out linear layer with Xavier-initialized weights
// and zero bias.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		Weight: NewParam(name+".weight", in, out),
		Bias:   NewParam(name+".bias", 1, out),
	}
	tensor.XavierInit(l.Weight.W, in, out, rng)
	return l
}

// NewLinearNoBias returns an in→out linear layer without a bias term.
func NewLinearNoBias(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{Weight: NewParam(name+".weight", in, out)}
	tensor.XavierInit(l.Weight.W, in, out, rng)
	return l
}

// In returns the input dimension.
func (l *Linear) In() int { return l.Weight.W.Rows }

// Out returns the output dimension.
func (l *Linear) Out() int { return l.Weight.W.Cols }

// Forward computes xW + b, caching x for the backward pass.
func (l *Linear) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != l.In() {
		panic(fmt.Sprintf("nn: %s forward input dim %d, want %d", l.Weight.Name, x.Cols, l.In()))
	}
	l.x = x
	y := tensor.MatMul(nil, x, l.Weight.W)
	if l.Bias != nil {
		y = tensor.AddRowVec(y, y, l.Bias.W.Data)
	}
	return y
}

// Backward accumulates dW = xᵀ·dout and db = colsum(dout) into the gradients
// of whichever of W and b are not frozen, returning dx = dout·Wᵀ either way.
func (l *Linear) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if l.x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	if !l.Weight.Frozen {
		tensor.AddScaled(l.Weight.Grad, tensor.TMatMul(nil, l.x, dout), 1)
	}
	if l.Bias != nil && !l.Bias.Frozen {
		db := tensor.ColSums(dout)
		for j, v := range db {
			l.Bias.Grad.Data[j] += v
		}
	}
	dx := tensor.MatMulT(nil, dout, l.Weight.W)
	l.x = nil
	return dx
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}

// LoRALinear wraps a base linear transformation with a Low-Rank Adaptation:
// y = xW + b + (alpha/r)·(xA)B, where W (and b) are frozen and only the rank-r
// factors A [in,r] and B [r,out] are trained. This mirrors Hu et al. (2021)
// exactly and is what Table III's "LoRA param %" column measures.
type LoRALinear struct {
	Base  *Linear
	A     *Param // [in, r]
	B     *Param // [r, out]
	Rank  int
	Scale float32 // alpha / rank

	dropout float32
	rng     *tensor.RNG

	x  *tensor.Matrix // cached input
	xa *tensor.Matrix // cached xA (post-dropout) for B's gradient
	dm *tensor.Matrix // cached dropout mask applied to x rows (nil when p=0)
}

// NewLoRA wraps base with a rank-r adapter using scaling factor alpha/r and
// the given adapter dropout probability. The base layer's parameters are
// frozen; A is Gaussian-initialized and B starts at zero so the adapted model
// initially matches the base model (the standard LoRA initialization).
func NewLoRA(base *Linear, rank int, alpha float64, dropout float32, rng *tensor.RNG) *LoRALinear {
	in, out := base.In(), base.Out()
	FreezeAll(base.Params(), true)
	l := &LoRALinear{
		Base:    base,
		A:       NewParam(base.Weight.Name+".lora_A", in, rank),
		B:       NewParam(base.Weight.Name+".lora_B", rank, out),
		Rank:    rank,
		Scale:   float32(alpha / float64(rank)),
		dropout: dropout,
		rng:     rng,
	}
	tensor.Gaussian(l.A.W, 1.0/float64(rank), rng)
	return l
}

// Forward computes the base output plus the scaled low-rank correction.
func (l *LoRALinear) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	y := l.Base.Forward(x, train)
	xin := x
	l.dm = nil
	if train && l.dropout > 0 {
		// LoRA-style dropout applies to the adapter branch input only.
		mask := tensor.New(x.Rows, x.Cols)
		keep := 1 - l.dropout
		inv := 1 / keep
		for i := range mask.Data {
			if l.rng.Float32() < keep {
				mask.Data[i] = inv
			}
		}
		xin = tensor.Mul(nil, x, mask)
		l.dm = mask
	}
	l.x = xin
	l.xa = tensor.MatMul(nil, xin, l.A.W)
	delta := tensor.MatMul(nil, l.xa, l.B.W)
	tensor.AddScaled(y, delta, l.Scale)
	return y
}

// Backward routes gradients to A and B and returns dx combining the base path
// and the adapter path. The frozen base parameters get no gradient; dx still
// flows through W.
func (l *LoRALinear) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if l.x == nil {
		panic("nn: LoRALinear.Backward before Forward")
	}
	dx := l.Base.Backward(dout) // dx through frozen base path
	// Adapter path: delta = scale·(xA)B.
	dDelta := tensor.Scale(nil, dout, l.Scale)
	dB := tensor.TMatMul(nil, l.xa, dDelta)
	tensor.AddScaled(l.B.Grad, dB, 1)
	dXA := tensor.MatMulT(nil, dDelta, l.B.W)
	dA := tensor.TMatMul(nil, l.x, dXA)
	tensor.AddScaled(l.A.Grad, dA, 1)
	dxAdapter := tensor.MatMulT(nil, dXA, l.A.W)
	if l.dm != nil {
		dxAdapter = tensor.Mul(dxAdapter, dxAdapter, l.dm)
	}
	tensor.AddScaled(dx, dxAdapter, 1)
	l.x, l.xa, l.dm = nil, nil, nil
	return dx
}

// Params returns the frozen base parameters followed by the trainable A and
// B factors.
func (l *LoRALinear) Params() []*Param {
	return append(l.Base.Params(), l.A, l.B)
}

// Merge folds the adapter into the base weights (W += scale·AB) and returns
// the base layer, as done when deploying a LoRA-tuned model.
func (l *LoRALinear) Merge() *Linear {
	delta := tensor.MatMul(nil, l.A.W, l.B.W)
	tensor.AddScaled(l.Base.Weight.W, delta, l.Scale)
	return l.Base
}
