package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// QuantizedLinear is an inference-only linear layer whose weights live in
// blockwise symmetric int8 (tensor.QInt8Matrix) and whose forward pass
// computes in integers end-to-end (tensor.MatMulQ8) — the real quantized
// compute path, as opposed to QuantizedTensor's storage-only 4-bit fake-quant
// which dequantizes back to fp32 before every matmul.
//
// The bias stays a fp32 Param: it is O(Out) data applied once per row, so
// quantizing it saves nothing and costs accuracy. Params() returns only the
// bias — the int8 weights are not trainable (as with 4-bit bases, which is
// why quantization pairs with LoRA for adaptation), and checkpoint
// round-trips carry them through the dedicated quantized-weights section
// instead of the fp32 parameter stream.
//
// QuantizedLinear implements Layer so it can sit in any projection slot a
// *Linear occupies (attention Wq/Wk/Wv/Wo, FFN, LM head), but a taped
// Forward and Backward panic: quantize for serving, not for training.
type QuantizedLinear struct {
	// Name is the wrapped layer's weight name (used by checkpoints to match
	// sections to layers).
	Name string
	// W holds the packed int8 weights.
	W *tensor.QInt8Matrix
	// Bias is the fp32 bias Param.
	Bias *Param
}

// QuantizeLinearInt8 converts l to an int8 inference layer with the given
// scale-block length (≤ 0 selects the default 64-code block). The returned
// layer shares l's bias Param; l's fp32 weight matrix is left untouched for
// the caller to drop.
func QuantizeLinearInt8(l *Linear, block int) *QuantizedLinear {
	return &QuantizedLinear{
		Name: l.Weight.Name,
		W:    tensor.QuantizeInt8(l.Weight.W, block),
		Bias: l.Bias,
	}
}

// In returns the input dimension.
func (l *QuantizedLinear) In() int { return l.W.In }

// Out returns the output dimension.
func (l *QuantizedLinear) Out() int { return l.W.Out }

// Forward computes xW + b in int8: activations are quantized per row on the
// fly, the matmul accumulates in integers, and the bias is added in fp32.
func (l *QuantizedLinear) Forward(x *tensor.Matrix, ws *tensor.Workspace, tape *Tape) *tensor.Matrix {
	if tape != nil {
		panic(fmt.Sprintf("nn: %s is int8-quantized and inference-only; it cannot record a training forward", l.Name))
	}
	if x.Cols != l.In() {
		panic(fmt.Sprintf("nn: %s forward input dim %d, want %d", l.Name, x.Cols, l.In()))
	}
	y := tensor.MatMulQ8(ws.Get(x.Rows, l.Out()), x, l.W, ws)
	return tensor.AddRowVec(y, y, l.Bias.W.Data)
}

// InferQuantized computes xW + b from activations quantized once by the
// caller (tensor.QuantizeRowsQ8) — how the attention layer shares one
// quantization pass across its Q, K, and V projections. Output buffers come
// from wsOut (nil allocates; the KV-capture path passes nil so cached keys
// and values outlive the workspace). Results are bitwise identical to
// Forward on the original rows.
func (l *QuantizedLinear) InferQuantized(qa tensor.QuantizedRows, wsOut *tensor.Workspace) *tensor.Matrix {
	y := tensor.MatMulQ8Pre(wsOut.Get(qa.Rows, l.Out()), qa, l.W)
	return tensor.AddRowVec(y, y, l.Bias.W.Data)
}

// Backward panics: int8 weights are not trainable.
func (l *QuantizedLinear) Backward(tape *Tape, dout *tensor.Matrix) *tensor.Matrix {
	panic(fmt.Sprintf("nn: %s is int8-quantized and inference-only; Backward is not supported", l.Name))
}

// Params returns the fp32 bias (frozen or not, the optimizer has nothing else
// to update here); the int8 weights are deliberately not Params.
func (l *QuantizedLinear) Params() []*Param {
	return []*Param{l.Bias}
}

// String summarizes the layer.
func (l *QuantizedLinear) String() string {
	return fmt.Sprintf("QuantizedLinear(%s, %s)", l.Name, l.W)
}
