// Package nn implements the neural-network building blocks used by the
// transformer models and classical baselines in this repository: layers with
// hand-written forward/backward passes, losses, optimizers, LoRA adapters,
// and block-wise weight quantization.
//
// The design is a classic "tape-free" layer graph: each Layer caches whatever
// it needs during Forward and consumes it in Backward. Parameters carry their
// own gradient buffers and a Frozen flag, which is how both Table II
// (parameter freezing) and LoRA (frozen base weights) are implemented.
package nn

import "repro/internal/tensor"

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	// Name identifies the parameter in checkpoints and debugging output.
	Name string
	// W holds the parameter values.
	W *tensor.Matrix
	// Grad accumulates ∂loss/∂W across a mini-batch; optimizers consume and
	// zero it.
	Grad *tensor.Matrix
	// Frozen excludes the parameter from optimizer updates and from
	// gradient accumulation: a frozen parameter gets no gradient, while the
	// layer still passes the gradient with respect to its input (dx) through
	// it to the layers below.
	Frozen bool
}

// NewParam allocates a named rows×cols parameter with a zeroed gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// Size returns the number of scalar elements in the parameter.
func (p *Param) Size() int { return len(p.W.Data) }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable matrix-to-matrix transformation.
//
// Forward consumes an input of shape [n, in] and produces [n, out]; train
// selects training-time behaviour (e.g. dropout). Backward consumes
// ∂loss/∂output and returns ∂loss/∂input, accumulating parameter gradients
// as a side effect. Backward must be called at most once per Forward, with
// the gradient corresponding to the most recent Forward.
type Layer interface {
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	Backward(dout *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// ParamCount sums the scalar sizes of params.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Size()
	}
	return n
}

// TrainableCount sums the scalar sizes of non-frozen params.
func TrainableCount(params []*Param) int {
	n := 0
	for _, p := range params {
		if !p.Frozen {
			n += p.Size()
		}
	}
	return n
}

// ZeroGrads clears every gradient in params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// FreezeAll marks every parameter in params as frozen (or unfrozen).
func FreezeAll(params []*Param, frozen bool) {
	for _, p := range params {
		p.Frozen = frozen
	}
}

// Sequential chains layers into one Layer.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward applies each layer in order.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the gradient through the layers in reverse order.
func (s *Sequential) Backward(dout *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(dout)
	}
	return dout
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}
