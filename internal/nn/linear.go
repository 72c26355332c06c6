package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Linear is a fully connected layer computing y = xW + b.
type Linear struct {
	Weight *Param // [in, out]
	Bias   *Param // [1, out]
}

// NewLinear returns an in→out linear layer with Xavier-initialized weights
// and zero bias.
func NewLinear(name string, in, out int, rng *tensor.RNG) *Linear {
	l := &Linear{
		Weight: newParam(name+".weight", in, out),
		Bias:   newParam(name+".bias", 1, out),
	}
	tensor.XavierInit(l.Weight.W, in, out, rng)
	return l
}

// In returns the input dimension.
func (l *Linear) In() int { return l.Weight.W.Rows }

// Out returns the output dimension.
func (l *Linear) Out() int { return l.Weight.W.Cols }

// Forward computes xW + b, recording x for Backward.
func (l *Linear) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	if x.Cols != l.In() {
		panic(fmt.Sprintf("nn: %s forward input dim %d, want %d", l.Weight.Name, x.Cols, l.In()))
	}
	tape.Push(l.Weight.Name, nil, x)
	y := tensor.MatMul(ws.Get(x.Rows, l.Out()), x, l.Weight.W)
	return tensor.AddRowVec(y, y, l.Bias.W.Data)
}

// Backward accumulates dW = xᵀ·dout and db = colsum(dout) into the gradients
// of whichever of W and b are not frozen, returning dx = dout·Wᵀ either way.
func (l *Linear) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	_, rec := tape.Pop(l.Weight.Name)
	ws := tape.WS()
	if !l.Weight.Frozen {
		tensor.AddScaled(l.Weight.Grad, tensor.TMatMul(ws.Get(l.In(), l.Out()), rec[0], dout), 1)
	}
	if !l.Bias.Frozen {
		for j, v := range tensor.ColSums(dout) {
			l.Bias.Grad.Data[j] += v
		}
	}
	return tensor.MatMulT(ws.Get(dout.Rows, l.In()), dout, l.Weight.W)
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param {
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
		A:       newParam(base.Weight.Name+".lora_A", in, rank),
		B:       newParam(base.Weight.Name+".lora_B", rank, out),
		Rank:    rank,
		Scale:   float32(alpha / float64(rank)),
		dropout: dropout,
		rng:     rng,
	}
	tensor.Gaussian(l.A.W, 1.0/float64(rank), rng)
	return l
}

// Forward computes the base output plus the scaled low-rank correction. Under
// a tape, dropout masks the adapter branch's input, and it records that
// input, xA and the mask.
func (l *LoRALinear) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	y := l.Base.Forward(x, ws, tape)
	xin := x
	var mask *tensor.Matrix
	if tape != nil && l.dropout > 0 {
		mask = dropoutMask(ws, x.Rows, x.Cols, l.dropout, l.rng)
		xin = tensor.Mul(ws.Get(x.Rows, x.Cols), x, mask)
	}
	xa := tensor.MatMul(ws.Get(x.Rows, l.Rank), xin, l.A.W)
	tensor.AddScaled(y, tensor.MatMul(ws.Get(x.Rows, l.Base.Out()), xa, l.B.W), l.Scale)
	tape.Push(l.A.Name, nil, xin, xa, mask)
	return y
}

// Backward routes gradients to A and B and returns dx combining the base path
// and the adapter path. The frozen base parameters get no gradient; dx still
// flows through W.
func (l *LoRALinear) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	_, rec := tape.Pop(l.A.Name)
	xin, xa, mask := rec[0], rec[1], rec[2]
	dx := l.Base.Backward(tape, dout) // dx through frozen base path
	ws := tape.WS()
	// Adapter path: delta = scale·(xA)B.
	dDelta := tensor.Scale(ws.Get(dout.Rows, dout.Cols), dout, l.Scale)
	tensor.AddScaled(l.B.Grad, tensor.TMatMul(ws.Get(l.Rank, l.Base.Out()), xa, dDelta), 1)
	dXA := tensor.MatMulT(ws.Get(dout.Rows, l.Rank), dDelta, l.B.W)
	tensor.AddScaled(l.A.Grad, tensor.TMatMul(ws.Get(l.Base.In(), l.Rank), xin, dXA), 1)
	dxAdapter := tensor.MatMulT(ws.Get(dout.Rows, l.Base.In()), dXA, l.A.W)
	if mask != nil {
		dxAdapter = tensor.Mul(dxAdapter, dxAdapter, mask)
	}
	tensor.AddScaled(dx, dxAdapter, 1)
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
