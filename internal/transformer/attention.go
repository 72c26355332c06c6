// Package transformer implements the encoder-only (BERT-style) and
// decoder-only (GPT-style) transformer models used for supervised fine-tuning
// and in-context learning, with hand-written backpropagation on top of
// internal/nn.
//
// There is one forward (batch.go): B token sequences packed into one
// [ΣTᵢ, d_model] matrix plus offsets, the position-wise layers run once over
// the packed matrix and attention per sequence — no padding. It reads only
// the model's parameters, so serving calls share one model across
// goroutines. Training runs the same forward on an nn.Tape, which records
// what the backward pass needs, inside Trainer (train.go): one sequence
// per forward, a mini-batch's gradients accumulated across a window, one
// optimizer step per window.
package transformer

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// MultiHeadAttention is scaled dot-product self-attention with NumHeads heads
// over a DModel-wide residual stream. When Causal is true, position i may
// only attend to positions ≤ i (decoder-style).
type MultiHeadAttention struct {
	NumHeads int
	DModel   int
	Causal   bool

	// The projections are nn.Layer so that Wq/Wv can be swapped for
	// nn.LoRALinear adapters by Model.ApplyLoRA; they are *nn.Linear as
	// constructed.
	Wq, Wk, Wv, Wo nn.Layer
}

// Attention's tape records: each head's probabilities per sequence, then
// the offsets and the q/k/v projections.
const probsRecord, attentionRecord = "MultiHeadAttention.probs", "MultiHeadAttention"

// newMultiHeadAttention constructs an attention layer. dModel must be
// divisible by numHeads.
func newMultiHeadAttention(name string, dModel, numHeads int, causal bool, rng *tensor.RNG) *MultiHeadAttention {
	if dModel%numHeads != 0 {
		panic("transformer: dModel must be divisible by numHeads")
	}
	return &MultiHeadAttention{
		NumHeads: numHeads,
		DModel:   dModel,
		Causal:   causal,
		Wq:       nn.NewLinear(name+".wq", dModel, dModel, rng),
		Wk:       nn.NewLinear(name+".wk", dModel, dModel, rng),
		Wv:       nn.NewLinear(name+".wv", dModel, dModel, rng),
		Wo:       nn.NewLinear(name+".wo", dModel, dModel, rng),
	}
}

// forward computes self-attention over a packed batch: the four projections
// run on the whole packed matrix; attention heads are column windows of the
// packed projections addressed by the strided kernels, so no per-head (or
// per-sequence) data is copied and no scores cross a sequence boundary. With
// a non-empty past (causal, untaped), every sequence attends the shared
// cached prefix before its own positions. The fused ScaledMaskedRowSoftmax
// applies scaling, causal masking, and softmax in one pass over each score
// row. With capture set, the packed K/V projections are heap-allocated and
// returned for cache construction (one sequence); otherwise the returned
// LayerKV is empty.
//
// With last set (causal, untaped), each sequence's query window is its last
// position alone: K and V still cover every row, since that position attends
// all of them, but Q, the scores, the softmax and Wo run on one row per
// sequence, and the output is [B, DModel]. Every kernel computes a row from
// that row alone, so those rows carry the bits a full forward gives them.
//
// A non-zero tree (causal, untaped; see pack) shares rows: the projections
// run on the rows sequences own, and a sequence that borrows a head gathers
// its keys and values — head rows, then its own — into one max-shaped K/V
// pair drawn once per layer, so the kernels see the operands the sequence
// run alone gives them. Its queries are its own rows, after the Tp+dep
// positions the softmax mask lets them see; a sequence that owns no rows
// queries nothing, except in the last block, where its query is the row of
// its last position.
func (a *MultiHeadAttention) forward(x *tensor.Matrix, offsets []int, tree prefixTree, past LayerKV, last bool, ws *tensor.Workspace, tape *nn.Tape, capture bool) (*tensor.Matrix, LayerKV) {
	Tp := 0
	if past.K != nil {
		if !a.Causal {
			panic("transformer: past keys require causal attention")
		}
		Tp = past.K.Rows
	}
	dh := a.DModel / a.NumHeads
	kvws := ws
	if capture {
		kvws = nil // captured K/V must outlive the workspace
	}
	xq := x // the rows that query
	if last {
		xq = lastRows(x, offsets, tree, ws)
	}
	var q, k, v *tensor.Matrix
	wq, qok := a.Wq.(*nn.QuantizedLinear)
	wk, kok := a.Wk.(*nn.QuantizedLinear)
	wv, vok := a.Wv.(*nn.QuantizedLinear)
	if tape == nil && qok && kok && vok && wq.W.Block == wk.W.Block && wq.W.Block == wv.W.Block {
		// Int8 path: the three projections read the same input, so quantize
		// it once and run all three from the shared codes. Gathered query
		// rows quantize on their own: the scale is per row, so they get the
		// codes they have in qa.
		qa := tensor.QuantizeRowsQ8(x, wq.W.Block, ws)
		if last {
			q = wq.InferQuantized(tensor.QuantizeRowsQ8(xq, wq.W.Block, ws), ws)
		} else {
			q = wq.InferQuantized(qa, ws)
		}
		k = wk.InferQuantized(qa, kvws)
		v = wv.InferQuantized(qa, kvws)
	} else {
		q = a.Wq.Forward(xq, ws, tape)
		k = a.Wk.Forward(x, kvws, tape)
		v = a.Wv.Forward(x, kvws, tape)
	}
	tree.keep(k, v)
	concat := ws.Get(xq.Rows, a.DModel)
	scale := float32(1 / math.Sqrt(float64(dh)))
	// Inference runs the sequences serially through one max-shaped score
	// buffer: without this, a 32-sequence chunk through a 6-layer model
	// would pin ~200 distinct score buffers in the arena, and rebuilding that
	// arena dominated the streaming monitor's allocations. A taped forward
	// keeps every head's probabilities for backward instead.
	var scoresBuf, scores, kBuf, vBuf *tensor.Matrix
	if tape == nil {
		maxT, maxTq := 0, 0
		for s := 0; s+1 < len(offsets); s++ {
			maxT = max(maxT, tree.depth(s)+offsets[s+1]-offsets[s])
			maxTq = max(maxTq, offsets[s+1]-offsets[s])
		}
		if last {
			maxTq = 1
		}
		scoresBuf = ws.Get(maxTq, Tp+maxT)
		if tree.dep != nil {
			kBuf, vBuf = ws.Get(maxT, a.DModel), ws.Get(maxT, a.DModel)
		}
	}
	for s := 0; s+1 < len(offsets); s++ {
		lo, hi := offsets[s], offsets[s+1]
		dep := tree.depth(s)
		T := dep + hi - lo
		// The sequence's queries are its last Tq positions, rows [qlo,
		// qlo+Tq) of q and concat.
		Tq, qlo := hi-lo, lo
		if last {
			Tq, qlo = 1, s
		}
		if Tq == 0 {
			continue
		}
		qs := ws.RowView(q, qlo, qlo+Tq)
		ks := ws.RowView(k, lo, hi)
		vs := ws.RowView(v, lo, hi)
		if dep > 0 {
			ks, vs = ws.ShapedView(kBuf, T, a.DModel), ws.ShapedView(vBuf, T, a.DModel)
			tree.gather(ks, k, offsets, s, 0)
			tree.gather(vs, v, offsets, s, 1)
		}
		cs := ws.RowView(concat, qlo, qlo+Tq)
		if tape == nil {
			// scores over [past | current] keys: [Tq, Tp+T], reused across heads.
			scores = ws.ShapedView(scoresBuf, Tq, Tp+T)
		}
		for h := 0; h < a.NumHeads; h++ {
			off := h * dh
			if tape != nil {
				scores = ws.Get(Tq, Tp+T)
			}
			if Tp > 0 {
				tensor.MatMulTStrided(scores, 0, qs, off, past.K, off, dh)
			}
			tensor.MatMulTStrided(scores, Tp, qs, off, ks, off, dh)
			// Query row i sits at position T−Tq+i, so Tp+T−Tq keys precede
			// the first.
			tensor.ScaledMaskedRowSoftmax(scores, scale, Tp+T-Tq, a.Causal)
			tape.Push(probsRecord, nil, scores)
			// out = probs_past·pastV + probs_cur·curV, straight into the
			// head's column window of concat.
			if Tp > 0 {
				tensor.MatMulStrided(cs, off, scores, 0, Tp, past.V, off, dh)
				tensor.MatMulStridedAcc(cs, off, scores, Tp, T, vs, off, dh)
			} else {
				tensor.MatMulStrided(cs, off, scores, 0, T, vs, off, dh)
			}
		}
	}
	tape.Push(attentionRecord, offsets, q, k, v)
	out := a.Wo.Forward(concat, ws, tape)
	if capture {
		return out, LayerKV{K: k, V: v}
	}
	return out, LayerKV{}
}

// backward propagates dout through the attention recorded last on tape,
// accumulating parameter gradients and returning dx. It pops the heads'
// probabilities last head first; each head of each sequence writes its own
// window of dq, dk and dv, so the order moves no bit.
func (a *MultiHeadAttention) backward(tape *nn.Tape, dout *tensor.Matrix) *tensor.Matrix {
	ws := tape.WS()
	dConcat := a.Wo.Backward(tape, dout)
	offsets, rec := tape.Pop(attentionRecord)
	q, k, v := rec[0], rec[1], rec[2]
	dh := a.DModel / a.NumHeads
	scale := float32(1 / math.Sqrt(float64(dh)))
	dq := ws.Get(dout.Rows, a.DModel)
	dk := ws.Get(dout.Rows, a.DModel)
	dv := ws.Get(dout.Rows, a.DModel)
	for s := len(offsets) - 2; s >= 0; s-- {
		lo, hi := offsets[s], offsets[s+1]
		T := hi - lo
		qs, ks, vs := ws.RowView(q, lo, hi), ws.RowView(k, lo, hi), ws.RowView(v, lo, hi)
		dqs, dks, dvs := ws.RowView(dq, lo, hi), ws.RowView(dk, lo, hi), ws.RowView(dv, lo, hi)
		dcs := ws.RowView(dConcat, lo, hi)
		dScores, dProbs := ws.Get(T, T), ws.Get(T, T)
		for h := a.NumHeads - 1; h >= 0; h-- {
			off := h * dh
			_, rec := tape.Pop(probsRecord)
			probs := rec[0]
			// out = probs · vh over the head's column window.
			tensor.MatMulTStrided(dProbs, 0, dcs, off, vs, off, dh)
			tensor.TMatMulStrided(dvs, off, probs, dcs, off, dh)
			// Softmax backward per row: dS = P ⊙ (dP - Σ dP⊙P).
			for i := 0; i < T; i++ {
				pr := probs.Row(i)
				dpr := dProbs.Row(i)
				var dot float32
				for j := range pr {
					dot += pr[j] * dpr[j]
				}
				dsr := dScores.Row(i)
				for j := range pr {
					dsr[j] = pr[j] * (dpr[j] - dot)
				}
			}
			tensor.Scale(dScores, dScores, scale)
			// scores = qh·khᵀ ⇒ dq = dS·kh, dk = dSᵀ·qh.
			tensor.MatMulStrided(dqs, off, dScores, 0, T, ks, off, dh)
			tensor.TMatMulStrided(dks, off, dScores, qs, off, dh)
		}
	}
	// The projections pop in reverse too; their input gradients still sum
	// q + k + v.
	dxv := a.Wv.Backward(tape, dv)
	dxk := a.Wk.Backward(tape, dk)
	dx := a.Wq.Backward(tape, dq)
	tensor.AddScaled(dx, dxk, 1)
	tensor.AddScaled(dx, dxv, 1)
	return dx
}

// Params returns the four projection matrices' parameters.
func (a *MultiHeadAttention) Params() []*nn.Param {
	var out []*nn.Param
	out = append(out, a.Wq.Params()...)
	out = append(out, a.Wk.Params()...)
	out = append(out, a.Wv.Params()...)
	out = append(out, a.Wo.Params()...)
	return out
}
