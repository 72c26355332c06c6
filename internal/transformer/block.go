package transformer

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Block is one pre-norm transformer layer:
//
//	x = x + Dropout(Attn(LN1(x)))
//	x = x + Dropout(FFN(LN2(x)))
//
// Pre-norm is used (rather than the original post-norm) because it trains
// stably without a warmup-sensitive schedule at the small scales of this
// reproduction; the paper's claims do not depend on norm placement.
type Block struct {
	LN1  *nn.LayerNorm
	Attn *MultiHeadAttention
	LN2  *nn.LayerNorm
	// FF1 and FF2 are nn.Layer (constructed as *nn.Linear) so the feed-forward
	// projections can be swapped for inference-only nn.QuantizedLinear layers
	// by Model.QuantizeInt8, mirroring the Wq/Wv slots LoRA already swaps.
	FF1   nn.Layer
	Act   *nn.GELU
	FF2   nn.Layer
	dropA *nn.Dropout
	dropF *nn.Dropout
}

// newBlock builds a transformer block with the given dimensions.
func newBlock(name string, dModel, numHeads, ffnDim int, causal bool, dropout float32, rng *tensor.RNG) *Block {
	return &Block{
		LN1:   nn.NewLayerNorm(name+".ln1", dModel),
		Attn:  newMultiHeadAttention(name+".attn", dModel, numHeads, causal, rng),
		LN2:   nn.NewLayerNorm(name+".ln2", dModel),
		FF1:   nn.NewLinear(name+".ff1", dModel, ffnDim, rng),
		Act:   nn.NewGELU(),
		FF2:   nn.NewLinear(name+".ff2", ffnDim, dModel, rng),
		dropA: nn.NewDropout(dropout, rng.Split()),
		dropF: nn.NewDropout(dropout, rng.Split()),
	}
}

// forward runs the block over a packed batch (see MultiHeadAttention.forward
// for tree, past, last and capture). With last set, everything after attention
// runs on each sequence's last row alone, gathered into ws, and so does the
// output. Untaped, x is the residual stream, which both sums update in place,
// and each sublayer draws its intermediates from scratch, rewound before it.
// A taped forward passes its tape's arena as both, and its sums overwrite the
// branch outputs instead, since a record holds x.
func (b *Block) forward(x *tensor.Matrix, offsets []int, tree prefixTree, past LayerKV, last bool, ws, scratch *tensor.Workspace, tape *nn.Tape, capture bool) (*tensor.Matrix, LayerKV) {
	if tape == nil {
		scratch.Reset()
	}
	h := b.LN1.Forward(x, scratch, tape)
	h, kv := b.Attn.forward(h, offsets, tree, past, last, scratch, tape, capture)
	h = b.dropA.Forward(h, scratch, tape)
	if last {
		x = lastRows(x, offsets, tree, ws)
	}
	x = residual(x, h, tape)

	if tape == nil {
		scratch.Reset()
	}
	h = b.LN2.Forward(x, scratch, tape)
	h = b.FF1.Forward(h, scratch, tape)
	h = b.Act.Forward(h, scratch, tape)
	h = b.FF2.Forward(h, scratch, tape)
	h = b.dropF.Forward(h, scratch, tape)
	return residual(x, h, tape), kv
}

// residual returns x + h, into x untaped and into h on a tape.
func residual(x, h *tensor.Matrix, tape *nn.Tape) *tensor.Matrix {
	if tape == nil {
		return tensor.Add(x, x, h)
	}
	return tensor.Add(h, x, h)
}

// backward propagates dout through the block recorded last on tape and
// returns dx.
func (b *Block) backward(tape *nn.Tape, dout *tensor.Matrix) *tensor.Matrix {
	// Residual 2: out = x1 + drop(FF(LN2(x1))).
	dh2 := b.dropF.Backward(tape, dout)
	dh2 = b.FF2.Backward(tape, dh2)
	dh2 = b.Act.Backward(tape, dh2)
	dh2 = b.FF1.Backward(tape, dh2)
	dx1 := b.LN2.Backward(tape, dh2)
	tensor.AddScaled(dx1, dout, 1)

	// Residual 1: x1 = x + drop(Attn(LN1(x))).
	dh := b.dropA.Backward(tape, dx1)
	dh = b.Attn.backward(tape, dh)
	dx := b.LN1.Backward(tape, dh)
	tensor.AddScaled(dx, dx1, 1)
	return dx
}

// Params returns all block parameters.
func (b *Block) Params() []*nn.Param {
	var out []*nn.Param
	out = append(out, b.LN1.Params()...)
	out = append(out, b.Attn.Params()...)
	out = append(out, b.LN2.Params()...)
	out = append(out, b.FF1.Params()...)
	out = append(out, b.FF2.Params()...)
	return out
}
