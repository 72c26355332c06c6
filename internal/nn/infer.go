package nn

import (
	"math"

	"repro/internal/tensor"
)

// Read-only inference forward passes.
//
// Layer.Forward caches activations on the layer for the backward pass, which
// makes a model unsafe to share across goroutines even in eval mode. The
// Infer methods below compute the same eval-mode outputs while reading only
// the layer's parameters, so a trained model can serve concurrent batched
// requests (core.Server workers, parallel trace detection) without cloning.
//
// Every Infer takes a *tensor.Workspace and draws its output (and any
// intermediates) from it, so steady-state inference reuses one arena of
// buffers instead of allocating per layer per call. A nil workspace is valid
// and falls back to plain allocation. Outputs are arena-backed when ws is
// non-nil: they are invalidated by the workspace's next Reset, and callers
// returning results past that point must copy them out first.

// Inferer is a layer that supports a read-only inference forward pass.
type Inferer interface {
	// Infer computes the eval-mode forward pass without mutating the layer,
	// drawing scratch and output buffers from ws (nil ws allocates).
	Infer(x *tensor.Matrix, ws *tensor.Workspace) *tensor.Matrix
}

// Infer dispatches to l's read-only path, falling back to the caching
// eval-mode Forward for layers that do not implement Inferer (the fallback is
// not safe for concurrent use and ignores the workspace).
func Infer(l Layer, x *tensor.Matrix, ws *tensor.Workspace) *tensor.Matrix {
	if il, ok := l.(Inferer); ok {
		return il.Infer(x, ws)
	}
	return l.Forward(x, false)
}

// Infer computes xW + b without caching x, into workspace scratch.
func (l *Linear) Infer(x *tensor.Matrix, ws *tensor.Workspace) *tensor.Matrix {
	y := tensor.MatMulBlocked(ws.Get(x.Rows, l.Out()), x, l.Weight.W)
	if l.Bias != nil {
		y = tensor.AddRowVec(y, y, l.Bias.W.Data)
	}
	return y
}

// Infer computes the base output plus the scaled low-rank correction without
// caching. Adapter dropout is inference-disabled, matching Forward in eval
// mode.
func (l *LoRALinear) Infer(x *tensor.Matrix, ws *tensor.Workspace) *tensor.Matrix {
	y := l.Base.Infer(x, ws)
	xa := tensor.MatMulBlocked(ws.Get(x.Rows, l.Rank), x, l.A.W)
	delta := tensor.MatMulBlocked(ws.Get(x.Rows, l.Base.Out()), xa, l.B.W)
	tensor.AddScaled(y, delta, l.Scale)
	return y
}

// Infer normalizes each row of x without caching normalization state.
func (ln *LayerNorm) Infer(x *tensor.Matrix, ws *tensor.Workspace) *tensor.Matrix {
	n, d := x.Rows, x.Cols
	out := ws.Get(n, d)
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
		or := out.Row(i)
		for j, v := range row {
			or[j] = g[j]*(v-mean)*inv + b[j]
		}
	}
	return out
}

// Infer applies GELU element-wise without caching the input.
func (g *GELU) Infer(x *tensor.Matrix, ws *tensor.Workspace) *tensor.Matrix {
	out := ws.Get(x.Rows, x.Cols)
	tensor.GELU(out.Data, x.Data)
	return out
}

// Infer is the identity: dropout is disabled at inference.
func (d *Dropout) Infer(x *tensor.Matrix, ws *tensor.Workspace) *tensor.Matrix { return x }

// Infer gathers embedding rows for ids without caching them for a backward
// pass. The gather is the one-hot specialization of tensor.MatMulOneHotRows:
// row i of the result is table row ids[i].
func (e *Embedding) Infer(ids []int, ws *tensor.Workspace) *tensor.Matrix {
	dim := e.Table.W.Cols
	out := ws.Get(len(ids), dim)
	for i, id := range ids {
		copy(out.Row(i), e.Table.W.Row(id))
	}
	return out
}
