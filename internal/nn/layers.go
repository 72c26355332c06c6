package nn

import (
	"math"

	"repro/internal/tensor"
)

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// a learned affine transform gamma·x̂ + beta.
type LayerNorm struct {
	Gamma *Param // [1, dim]
	Beta  *Param // [1, dim]
	Eps   float32

	xhat   *tensor.Matrix // cached normalized input
	invStd []float32      // cached per-row 1/σ
}

// NewLayerNorm returns a LayerNorm over dim features with gamma=1, beta=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Gamma: NewParam(name+".gamma", 1, dim),
		Beta:  NewParam(name+".beta", 1, dim),
		Eps:   1e-5,
	}
	ln.Gamma.W.Fill(1)
	return ln
}

// Forward normalizes each row of x.
func (ln *LayerNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	n, d := x.Rows, x.Cols
	out := tensor.New(n, d)
	ln.xhat = tensor.New(n, d)
	ln.invStd = make([]float32, n)
	g, b := ln.Gamma.W.Data, ln.Beta.W.Data
	for i := 0; i < n; i++ {
		row := x.Row(i)
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= float32(d)
		var varsum float32
		for _, v := range row {
			dv := v - mean
			varsum += dv * dv
		}
		inv := 1 / float32(math.Sqrt(float64(varsum/float32(d)+ln.Eps)))
		ln.invStd[i] = inv
		xr := ln.xhat.Row(i)
		or := out.Row(i)
		for j, v := range row {
			xh := (v - mean) * inv
			xr[j] = xh
			or[j] = g[j]*xh + b[j]
		}
	}
	return out
}

// Backward implements the standard layer-norm gradient.
func (ln *LayerNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if ln.xhat == nil {
		panic("nn: LayerNorm.Backward before Forward")
	}
	n, d := dout.Rows, dout.Cols
	dx := tensor.New(n, d)
	g := ln.Gamma.W.Data
	gGrad := ln.Gamma.Grad.Data
	bGrad := ln.Beta.Grad.Data
	for i := 0; i < n; i++ {
		dr := dout.Row(i)
		xr := ln.xhat.Row(i)
		// dγ, dβ accumulate across rows.
		var sumDxhat, sumDxhatXhat float32
		dxhat := make([]float32, d)
		for j := 0; j < d; j++ {
			gGrad[j] += dr[j] * xr[j]
			bGrad[j] += dr[j]
			dh := dr[j] * g[j]
			dxhat[j] = dh
			sumDxhat += dh
			sumDxhatXhat += dh * xr[j]
		}
		inv := ln.invStd[i]
		dxr := dx.Row(i)
		nd := float32(d)
		for j := 0; j < d; j++ {
			dxr[j] = inv / nd * (nd*dxhat[j] - sumDxhat - xr[j]*sumDxhatXhat)
		}
	}
	ln.xhat = nil
	return dx
}

// Params returns gamma and beta.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// GELU is the Gaussian Error Linear Unit activation (tanh approximation),
// the standard feed-forward nonlinearity in BERT/GPT-style transformers.
type GELU struct {
	x *tensor.Matrix
}

// NewGELU returns a GELU activation layer.
func NewGELU() *GELU { return &GELU{} }

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward applies GELU element-wise.
func (g *GELU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	g.x = x
	out := tensor.New(x.Rows, x.Cols)
	tensor.GELU(out.Data, x.Data)
	return out
}

// geluScalar is the activation one element at a time: the tanh approximation
// in pure float32 on the fast tanh (float64 math.Tanh plus the conversion
// round trip was ~15% of a whole encoder forward). Forward and Infer compute
// it through tensor.GELU, whole matrices at a time; this copy is the function
// geluGradScalar differentiates, and the reference TestGELUMatchesScalarBits
// holds tensor.GELU to.
func geluScalar(v float32) float32 {
	t := tensor.TanhFast32(float32(geluC) * (v + 0.044715*v*v*v))
	return 0.5 * v * (1 + t)
}

func geluGradScalar(v float32) float32 {
	t := tensor.TanhFast32(float32(geluC) * (v + 0.044715*v*v*v))
	sech2 := 1 - t*t
	return 0.5*(1+t) + 0.5*v*sech2*float32(geluC)*(1+3*0.044715*v*v)
}

// Backward multiplies by the GELU derivative at the cached input.
func (g *GELU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if g.x == nil {
		panic("nn: GELU.Backward before Forward")
	}
	dx := tensor.New(dout.Rows, dout.Cols)
	for i, v := range g.x.Data {
		dx.Data[i] = dout.Data[i] * geluGradScalar(v)
	}
	g.x = nil
	return dx
}

// Params returns nil; GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }

// ReLU is the rectified linear activation, used by the MLP baselines.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative entries.
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	r.mask = make([]bool, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
			r.mask[i] = true
		}
	}
	return out
}

// Backward passes gradient only where the input was positive.
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if r.mask == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	dx := tensor.New(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		if r.mask[i] {
			dx.Data[i] = v
		}
	}
	r.mask = nil
	return dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation, used by the autoencoder
// baselines and pooler heads.
type Tanh struct {
	y *tensor.Matrix
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	t.y = out
	return out
}

// Backward multiplies by 1 - tanh².
func (t *Tanh) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if t.y == nil {
		panic("nn: Tanh.Backward before Forward")
	}
	dx := tensor.New(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		y := t.y.Data[i]
		dx.Data[i] = v * (1 - y*y)
	}
	t.y = nil
	return dx
}

// Params returns nil; Tanh has no parameters.
func (t *Tanh) Params() []*Param { return nil }

// Dropout randomly zeroes activations during training with probability P,
// scaling survivors by 1/(1-P) (inverted dropout). At inference it is the
// identity.
type Dropout struct {
	P   float32
	rng *tensor.RNG

	mask *tensor.Matrix
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(p float32, rng *tensor.RNG) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward applies inverted dropout when train is true.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.P <= 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.P
	inv := 1 / keep
	d.mask = tensor.New(x.Rows, x.Cols)
	out := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if d.rng.Float32() < keep {
			d.mask.Data[i] = inv
			out.Data[i] = v * inv
		}
	}
	return out
}

// Backward applies the cached mask (identity if Forward ran in eval mode).
func (d *Dropout) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if d.mask == nil {
		return dout
	}
	dx := tensor.Mul(nil, dout, d.mask)
	d.mask = nil
	return dx
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Embedding maps integer token ids to dense vectors. It is not a Layer (its
// input is ids, not a matrix); the transformer models call it directly.
type Embedding struct {
	Table *Param // [vocab, dim]

	ids []int // cached ids for Backward
}

// NewEmbedding returns a vocab×dim embedding table with N(0, 0.02²) init
// (the BERT/GPT convention).
func NewEmbedding(name string, vocab, dim int, rng *tensor.RNG) *Embedding {
	e := &Embedding{Table: NewParam(name, vocab, dim)}
	tensor.Gaussian(e.Table.W, 0.02, rng)
	return e
}

// Forward gathers rows of the table for each id.
func (e *Embedding) Forward(ids []int) *tensor.Matrix {
	dim := e.Table.W.Cols
	out := tensor.New(len(ids), dim)
	for i, id := range ids {
		copy(out.Row(i), e.Table.W.Row(id))
	}
	e.ids = ids
	return out
}

// Backward scatters dout rows into the table gradient.
func (e *Embedding) Backward(dout *tensor.Matrix) {
	if e.ids == nil {
		panic("nn: Embedding.Backward before Forward")
	}
	for i, id := range e.ids {
		gr := e.Table.Grad.Row(id)
		dr := dout.Row(i)
		for j, v := range dr {
			gr[j] += v
		}
	}
	e.ids = nil
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }
