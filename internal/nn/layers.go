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
}

// NewLayerNorm returns a LayerNorm over dim features with gamma=1, beta=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Gamma: newParam(name+".gamma", 1, dim),
		Beta:  newParam(name+".beta", 1, dim),
		Eps:   1e-5,
	}
	ln.Gamma.W.Fill(1)
	return ln
}

// Forward normalizes each row, x̂ = (x−mean)·(1/σ), to γ·x̂ + β, recording x̂
// and the per-row 1/σ.
func (ln *LayerNorm) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	n, d := x.Rows, x.Cols
	out := ws.Get(n, d)
	var xhat, invStd *tensor.Matrix
	if tape != nil {
		xhat, invStd = ws.Get(n, d), ws.Get(n, 1)
	}
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
		ln.affine(out.Row(i), row, mean, inv)
		if tape != nil {
			invStd.Data[i] = inv
			xr := xhat.Row(i)
			for j, v := range row {
				xr[j] = (v - mean) * inv
			}
		}
	}
	tape.Push(ln.Gamma.Name, nil, xhat, invStd)
	return out
}

// affine writes γ·((v−mean)·inv) + β for each v of row into out. On its own
// the loop has no bounds checks: 71 µs, 91 inline, for [384, 96] on a Xeon core.
func (ln *LayerNorm) affine(out, row []float32, mean, inv float32) {
	g, b := ln.Gamma.W.Data[:len(row)], ln.Beta.W.Data[:len(row)]
	out = out[:len(row)]
	for j, v := range row {
		out[j] = g[j]*((v-mean)*inv) + b[j]
	}
}

// Backward implements the standard layer-norm gradient. dγ and dβ accumulate
// only into parameters that are not frozen; dx is computed either way.
func (ln *LayerNorm) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	_, rec := tape.Pop(ln.Gamma.Name)
	xhat, invStd := rec[0], rec[1]
	ws := tape.WS()
	n, d := dout.Rows, dout.Cols
	dx := ws.Get(n, d)
	g := ln.Gamma.W.Data
	gGrad := ln.Gamma.Grad.Data
	bGrad := ln.Beta.Grad.Data
	dxhat := ws.Get(1, d).Data
	for i := 0; i < n; i++ {
		dr := dout.Row(i)
		xr := xhat.Row(i)
		// dγ, dβ accumulate across rows.
		if !ln.Gamma.Frozen {
			for j, v := range dr {
				gGrad[j] += v * xr[j]
			}
		}
		if !ln.Beta.Frozen {
			for j, v := range dr {
				bGrad[j] += v
			}
		}
		var sumDxhat, sumDxhatXhat float32
		for j := 0; j < d; j++ {
			dh := dr[j] * g[j]
			dxhat[j] = dh
			sumDxhat += dh
			sumDxhatXhat += dh * xr[j]
		}
		inv := invStd.Data[i]
		dxr := dx.Row(i)
		nd := float32(d)
		for j := 0; j < d; j++ {
			dxr[j] = inv / nd * (nd*dxhat[j] - sumDxhat - xr[j]*sumDxhatXhat)
		}
	}
	return dx
}

// Params returns gamma and beta.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// GELU is the Gaussian Error Linear Unit activation (tanh approximation),
// the standard feed-forward nonlinearity in BERT/GPT-style transformers.
type GELU struct{}

// NewGELU returns a GELU activation layer.
func NewGELU() *GELU { return &GELU{} }

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward applies GELU element-wise, recording the input.
func (g *GELU) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	out := ws.Get(x.Rows, x.Cols)
	tensor.GELU(out.Data, x.Data)
	tape.Push("GELU", nil, x)
	return out
}

// geluScalar is the activation one element at a time: the tanh approximation
// in pure float32 on the fast tanh (float64 math.Tanh plus the conversion
// round trip was ~15% of a whole encoder forward). Forward computes it
// through tensor.GELU, whole matrices at a time; this copy is the function
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

// Backward multiplies by the GELU derivative at the recorded input.
func (g *GELU) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	_, rec := tape.Pop("GELU")
	dx := tape.WS().Get(dout.Rows, dout.Cols)
	for i, v := range rec[0].Data {
		dx.Data[i] = dout.Data[i] * geluGradScalar(v)
	}
	return dx
}

// Params returns nil; GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }

// ReLU is the rectified linear activation, used by the MLP baselines.
type ReLU struct{}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative entries, recording the input.
func (r *ReLU) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	out := ws.GetZeroed(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	tape.Push("ReLU", nil, x)
	return out
}

// Backward passes gradient only where the input was positive.
func (r *ReLU) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	_, rec := tape.Pop("ReLU")
	dx := tape.WS().GetZeroed(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		if rec[0].Data[i] > 0 {
			dx.Data[i] = v
		}
	}
	return dx
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation, used by the autoencoder
// baselines and pooler heads.
type Tanh struct{}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise, recording the output.
func (t *Tanh) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	out := ws.Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = float32(math.Tanh(float64(v)))
	}
	tape.Push("Tanh", nil, out)
	return out
}

// Backward multiplies by 1 - tanh².
func (t *Tanh) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	_, rec := tape.Pop("Tanh")
	dx := tape.WS().Get(dout.Rows, dout.Cols)
	for i, v := range dout.Data {
		y := rec[0].Data[i]
		dx.Data[i] = v * (1 - y*y)
	}
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
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(p float32, rng *tensor.RNG) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward applies inverted dropout under a tape, recording the mask (nil
// when P is 0); without a tape it returns x.
func (d *Dropout) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	if tape == nil || d.P <= 0 {
		tape.Push("Dropout", nil, nil)
		return x
	}
	mask := dropoutMask(ws, x.Rows, x.Cols, d.P, d.rng)
	out := ws.GetZeroed(x.Rows, x.Cols)
	for i, v := range x.Data {
		if m := mask.Data[i]; m != 0 {
			out.Data[i] = v * m
		}
	}
	tape.Push("Dropout", nil, mask)
	return out
}

// Backward applies the recorded mask.
func (d *Dropout) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	_, rec := tape.Pop("Dropout")
	if rec[0] == nil {
		return dout
	}
	return tensor.Mul(tape.WS().Get(dout.Rows, dout.Cols), dout, rec[0])
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// dropoutMask draws an inverted-dropout mask from rng, one draw per element
// in row-major order: 1/(1-p) where the element is kept, 0 where dropped.
func dropoutMask(ws *tensor.Workspace, rows, cols int, p float32, rng *tensor.RNG) *tensor.Matrix {
	keep := 1 - p
	inv := 1 / keep
	mask := ws.GetZeroed(rows, cols)
	for i := range mask.Data {
		if rng.Float32() < keep {
			mask.Data[i] = inv
		}
	}
	return mask
}

// Embedding maps integer token ids to dense vectors. It is not a Layer (its
// input is ids, not a matrix); the transformer models call it directly.
type Embedding struct {
	Table *Param // [vocab, dim]
}

// NewEmbedding returns a vocab×dim embedding table with N(0, 0.02²) init
// (the BERT/GPT convention).
func NewEmbedding(name string, vocab, dim int, rng *tensor.RNG) *Embedding {
	e := &Embedding{Table: newParam(name, vocab, dim)}
	tensor.Gaussian(e.Table.W, 0.02, rng)
	return e
}

// Forward gathers table row ids[i] into row i of the result, recording the
// ids.
func (e *Embedding) Forward(ids []int, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	out := ws.Get(len(ids), e.Table.W.Cols)
	for i, id := range ids {
		copy(out.Row(i), e.Table.W.Row(id))
	}
	tape.Push(e.Table.Name, ids)
	return out
}

// Backward scatters dout rows into the table gradient, unless the table is
// frozen.
func (e *Embedding) Backward(tape *Tape, dout *tensor.Matrix) {
	ids, _ := tape.Pop(e.Table.Name)
	if e.Table.Frozen {
		return
	}
	for i, id := range ids {
		gr := e.Table.Grad.Row(id)
		for j, v := range dout.Row(i) {
			gr[j] += v
		}
	}
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }
