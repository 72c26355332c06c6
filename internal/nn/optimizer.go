package nn

import (
	"math"

	"repro/internal/tensor"
)

// AdamW is Adam with decoupled weight decay (Loshchilov & Hutter), the
// optimizer used for all transformer fine-tuning in this repository.
type AdamW struct {
	lr          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdamW returns an AdamW optimizer with standard betas (0.9, 0.999).
func NewAdamW(lr, weightDecay float64) *AdamW {
	return &AdamW{
		lr: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		m: make(map[*Param]*tensor.Matrix), v: make(map[*Param]*tensor.Matrix),
	}
}

// Step applies one AdamW update with bias correction.
func (a *AdamW) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.Frozen {
			p.zeroGrad()
			continue
		}
		m := a.m[p]
		if m == nil {
			m = tensor.New(p.W.Rows, p.W.Cols)
			a.m[p] = m
			a.v[p] = tensor.New(p.W.Rows, p.W.Cols)
		}
		v := a.v[p]
		b1, b2 := float32(a.Beta1), float32(a.Beta2)
		lr := float32(a.lr)
		wd := float32(a.WeightDecay)
		eps := float32(a.Eps)
		ibc1, ibc2 := float32(1/bc1), float32(1/bc2)
		for i := range p.W.Data {
			g := p.Grad.Data[i]
			m.Data[i] = b1*m.Data[i] + (1-b1)*g
			v.Data[i] = b2*v.Data[i] + (1-b2)*g*g
			mhat := m.Data[i] * ibc1
			vhat := v.Data[i] * ibc2
			p.W.Data[i] -= lr * (mhat/(float32(math.Sqrt(float64(vhat)))+eps) + wd*p.W.Data[i])
		}
		p.zeroGrad()
	}
}

// ClipGradNorm rescales all non-frozen gradients so their global L2 norm is
// at most maxNorm, returning the pre-clip norm.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		if p.Frozen {
			continue
		}
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := float32(maxNorm / norm)
	for _, p := range params {
		if p.Frozen {
			continue
		}
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= scale
		}
	}
	return norm
}
