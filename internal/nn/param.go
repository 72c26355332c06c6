// Package nn implements the neural-network building blocks used by the
// transformer models and classical baselines in this repository: layers with
// hand-written forward/backward passes, losses, optimizers, LoRA adapters,
// and block-wise weight quantization.
//
// Layers are stateless: a layer holds its parameters and nothing a forward
// computed. Forward(x, ws, tape) reads only the parameters and, given a
// Tape, records what Backward(tape, dout) needs; with a nil tape the same
// call is the inference forward, safe for concurrent use on one model.
// Parameters carry their own gradient buffers and a Frozen flag, which is
// how both Table II (parameter freezing) and LoRA (frozen base weights) are
// implemented.
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

// newParam allocates a named rows×cols parameter with a zeroed gradient.
func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), Grad: tensor.New(rows, cols)}
}

// zeroGrad clears the accumulated gradient.
func (p *Param) zeroGrad() { p.Grad.Zero() }

// Layer is a differentiable matrix-to-matrix transformation.
//
// Forward maps [n, in] to [n, out], drawing its output and scratch from ws
// (nil allocates). With a tape it is the training forward: dropout is live
// and the layer records what Backward needs, so ws must be Tape.WS, which
// lives until Backward. Backward pops that record, accumulates parameter
// gradients, and returns ∂loss/∂input.
type Layer interface {
	Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix
	Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix
	Params() []*Param
}

// ParamCount sums the scalar sizes of params.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.W.Data)
	}
	return n
}

// TrainableCount sums the scalar sizes of non-frozen params.
func TrainableCount(params []*Param) int {
	n := 0
	for _, p := range params {
		if !p.Frozen {
			n += len(p.W.Data)
		}
	}
	return n
}

// ZeroGrads clears every gradient in params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.zeroGrad()
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
func (s *Sequential) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x, ws, tape)
	}
	return x
}

// Backward propagates the gradient through the layers in reverse order.
func (s *Sequential) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dout = s.Layers[i].Backward(tape, dout)
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
