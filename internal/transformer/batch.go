package transformer

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Inference.
//
// A batch of B token sequences is packed into one [ΣTᵢ, dModel] matrix plus
// an offsets slice (tensor.Offsets layout). Position-wise layers — the six
// linear projections per block, layer norms, and activations — then run once
// over the packed matrix instead of B times, which is where the throughput
// win over per-sequence forwards comes from; only attention is computed per
// sequence, since softmax must not mix positions across sequences.
//
// The whole path is built on the nn.Inferer read-only forwards: it never
// touches the layers' backward caches, so one trained model can serve
// concurrent calls from many goroutines (the property core.Server's workers,
// core.DetectTraces and sft's evaluation fan-out rely on). The training forward (Encode,
// ForwardCls, ForwardLM) is for training, and is the tests' reference.
//
// Every temporary — packed activations, per-sequence attention scores, even
// the per-sequence view headers — is drawn from a tensor.Workspace arena.
// Each operation has one entry point, taking the workspace last: a long-lived
// owner such as a core.Server worker passes its own arena and resets it
// between batches; a one-shot caller passes nil and gets plain allocation
// (tensor.Workspace's nil contract). Results are always fresh heap
// allocations, never arena-backed, so callers may Reset the workspace freely
// afterwards.

// encodeBatch embeds each sequence and runs the packed batch through the
// block stack and final layer norm, returning the packed hidden states
// [ΣTᵢ, dModel] and the segment offsets, both arena-backed. Sequences longer
// than MaxSeqLen are truncated keeping the head (as Encode does); empty
// sequences panic.
func (m *Model) encodeBatch(seqs [][]int, ws *tensor.Workspace) (*tensor.Matrix, []int) {
	truncated := false
	for i, ids := range seqs {
		if len(ids) == 0 {
			panic("transformer: empty sequence in batch")
		}
		if len(ids) > m.Config.MaxSeqLen {
			if !truncated {
				// Truncation must not mutate the caller's batch.
				seqs = append([][]int(nil), seqs...)
				truncated = true
			}
			seqs[i] = ids[:m.Config.MaxSeqLen]
		}
	}
	offsets := ws.GetInts(len(seqs) + 1)
	offsets[0] = 0
	for i, ids := range seqs {
		offsets[i+1] = offsets[i] + len(ids)
	}
	h := m.embedBatch(seqs, offsets, 0, ws)
	return m.runBlocksBatch(h, offsets, nil, ws), offsets
}

// runBlocksBatch drives the packed batch through the block stack and the
// final layer norm, with double-buffered scratch: block intermediates
// alternate between two pooled workspaces, each reset once its layer's
// output has been consumed by the next layer. Only the normalized output
// (and whatever the caller placed there) lands in the caller's arena, so a
// worker's resident workspace holds ~2 layers of scratch instead of the
// whole stack's — the difference between the streaming monitor's chunk
// pipeline rebuilding ~5 MB versus ~2 MB of arena on a cold start. past is
// the per-layer KV cache (nil when uncached).
func (m *Model) runBlocksBatch(h *tensor.Matrix, offsets []int, past []LayerKV, ws *tensor.Workspace) *tensor.Matrix {
	var scratch [2]*tensor.Workspace
	scratch[0], scratch[1] = tensor.GetWorkspace(), tensor.GetWorkspace()
	defer tensor.PutWorkspace(scratch[0])
	defer tensor.PutWorkspace(scratch[1])
	for li, b := range m.Blocks {
		wsi := scratch[li%2]
		if li >= 2 {
			// This arena holds layer li-2's intermediates; layer li-1 has
			// already consumed that output, so the buffers are dead.
			wsi.Reset()
		}
		kv := LayerKV{}
		if past != nil {
			kv = past[li]
		}
		h, _ = b.inferBatch(h, offsets, kv, wsi, false)
	}
	// The final norm reads the last block's output from its scratch arena
	// (still alive here) and writes into the caller's workspace.
	return m.FinalLN.Infer(h, ws)
}

// embedBatch gathers token+position embeddings for the packed batch.
// Positions restart at posStart for every sequence (posStart is nonzero when
// the batch continues a cached shared prefix).
func (m *Model) embedBatch(seqs [][]int, offsets []int, posStart int, ws *tensor.Workspace) *tensor.Matrix {
	total := offsets[len(offsets)-1]
	flat := ws.GetInts(total)
	pos := ws.GetInts(total)
	n := 0
	for _, ids := range seqs {
		for p, id := range ids {
			flat[n] = id
			pos[n] = posStart + p
			n++
		}
	}
	h := m.TokEmb.Infer(flat, ws)
	pe := m.PosEmb.Infer(pos, ws)
	return tensor.Add(h, h, pe)
}

// inferBatch runs the block over a packed batch using read-only forwards on
// the workspace arena. When past holds cached keys/values, every sequence in
// the batch additionally attends over that shared prefix. With capture set,
// the attention layer's packed K/V projections are heap-allocated and
// returned for cache construction (meaningful when the batch is one
// sequence); otherwise the returned LayerKV is empty.
func (b *Block) inferBatch(x *tensor.Matrix, offsets []int, past LayerKV, ws *tensor.Workspace, capture bool) (*tensor.Matrix, LayerKV) {
	h := b.LN1.Infer(x, ws)
	h, kv := b.Attn.inferBatch(h, offsets, past, ws, capture)
	x1 := tensor.Add(h, x, h)

	h2 := b.LN2.Infer(x1, ws)
	h2 = nn.Infer(b.FF1, h2, ws)
	h2 = b.Act.Infer(h2, ws)
	h2 = nn.Infer(b.FF2, h2, ws)
	return tensor.Add(h2, x1, h2), kv
}

// inferBatch computes self-attention over a packed batch: the four
// projections run on the whole packed matrix; attention heads are column
// windows of the packed projections addressed by the strided kernels, so no
// per-head (or per-sequence) data is copied and no scores cross a sequence
// boundary. With a non-empty past (causal models only), every sequence
// attends the shared cached prefix before its own positions. The fused
// ScaledMaskedRowSoftmax applies scaling, causal masking, and softmax in one
// pass over each score row.
func (a *MultiHeadAttention) inferBatch(x *tensor.Matrix, offsets []int, past LayerKV, ws *tensor.Workspace, capture bool) (*tensor.Matrix, LayerKV) {
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
	var q, k, v *tensor.Matrix
	wq, qok := a.Wq.(*nn.QuantizedLinear)
	wk, kok := a.Wk.(*nn.QuantizedLinear)
	wv, vok := a.Wv.(*nn.QuantizedLinear)
	if qok && kok && vok && wq.W.Block == wk.W.Block && wq.W.Block == wv.W.Block {
		// Int8 path: the three projections read the same input, so quantize
		// it once and run all three from the shared codes.
		qa := tensor.QuantizeRowsQ8(x, wq.W.Block, ws)
		q = wq.InferQuantized(qa, ws)
		k = wk.InferQuantized(qa, kvws)
		v = wv.InferQuantized(qa, kvws)
	} else {
		q = nn.Infer(a.Wq, x, ws)
		k = nn.Infer(a.Wk, x, kvws)
		v = nn.Infer(a.Wv, x, kvws)
	}
	concat := ws.Get(x.Rows, a.DModel)
	scale := float32(1 / math.Sqrt(float64(dh)))
	// One max-shaped score buffer serves every sequence of the batch (the
	// sequences run serially): without this, a 32-sequence chunk through a
	// 6-layer model would pin ~200 distinct score buffers in the arena, and
	// rebuilding that arena dominated the streaming monitor's allocations.
	maxT := 0
	for s := 0; s+1 < len(offsets); s++ {
		if T := offsets[s+1] - offsets[s]; T > maxT {
			maxT = T
		}
	}
	scoresBuf := ws.Get(maxT, Tp+maxT)
	for s := 0; s+1 < len(offsets); s++ {
		lo, hi := offsets[s], offsets[s+1]
		T := hi - lo
		qs := ws.RowView(q, lo, hi)
		ks := ws.RowView(k, lo, hi)
		vs := ws.RowView(v, lo, hi)
		cs := ws.RowView(concat, lo, hi)
		// scores over [past | current] keys: [T, Tp+T], reused across heads.
		scores := ws.ShapedView(scoresBuf, T, Tp+T)
		for h := 0; h < a.NumHeads; h++ {
			off := h * dh
			if Tp > 0 {
				tensor.MatMulTStrided(scores, 0, qs, off, past.K, off, dh)
			}
			tensor.MatMulTStrided(scores, Tp, qs, off, ks, off, dh)
			tensor.ScaledMaskedRowSoftmax(scores, scale, Tp, a.Causal)
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
	out := nn.Infer(a.Wo, concat, ws)
	if capture {
		return out, LayerKV{K: k, V: v}
	}
	return out, LayerKV{}
}

// nextTokenLogits computes next-token logits [B, VocabSize] for a batch of
// sequences that all continue cache's prefix; a nil cache is no prefix, and
// the sequences are then whole prompts. Only the B final positions reach the
// LM head, so a shared few-shot prompt is encoded once per cache instead of
// once per query. Every sequence must be non-empty and fit in MaxSeqLen after
// the prefix. The output is drawn from out (nil allocates); the choice-scoring
// path passes the scratch workspace, since it reduces the logits to the few
// choice columns before returning and a full vocabulary row per sequence is
// the batch's largest single garbage producer otherwise.
func (m *Model) nextTokenLogits(cache *KVCache, seqs [][]int, ws, out *tensor.Workspace) *tensor.Matrix {
	if !m.Config.Causal {
		panic("transformer: next-token logits require a causal model")
	}
	if len(seqs) == 0 {
		return tensor.New(0, m.Config.VocabSize)
	}
	var past []LayerKV
	start := 0
	if cache != nil {
		past, start = cache.Layers, cache.Len
	}
	offsets := ws.GetInts(len(seqs) + 1)
	offsets[0] = 0
	for i, ids := range seqs {
		if len(ids) == 0 {
			panic("transformer: empty sequence in batch")
		}
		if start+len(ids) > m.Config.MaxSeqLen {
			panic("transformer: sequence exceeds MaxSeqLen")
		}
		offsets[i+1] = offsets[i] + len(ids)
	}
	h := m.embedBatch(seqs, offsets, start, ws)
	h = m.runBlocksBatch(h, offsets, past, ws)
	last := ws.Get(len(seqs), m.Config.DModel)
	for s := 0; s+1 < len(offsets); s++ {
		copy(last.Row(s), h.Row(offsets[s+1]-1))
	}
	return nn.Infer(m.LMHead, last, out)
}

// ScoreChoiceBatchWithCacheWS is the constrained decoding ICL classifies
// with: for each sequence continuing cache's prefix it returns the index of
// the highest-logit choice token (the choices are the label words' first
// tokens) and the softmax over just those choices. A nil cache is no prefix:
// each sequence is then a whole prompt, which the caller cuts to MaxSeqLen.
// The vocabulary logits stay in the workspace — only the per-choice
// probabilities are returned, freshly allocated.
func (m *Model) ScoreChoiceBatchWithCacheWS(cache *KVCache, seqs [][]int, choices []int, ws *tensor.Workspace) ([]int, [][]float32) {
	logits := m.nextTokenLogits(cache, seqs, ws, ws)
	return chooseFromLogits(logits, len(seqs), choices)
}

// ForwardClsBatchWS classifies a batch of sequences in one packed forward
// pass, returning logits [B, NumClasses]; row i matches ForwardCls(seqs[i],
// false) up to float rounding. Sequences longer than MaxSeqLen keep their
// head, as Encode does. The classification head runs only on the B pooled
// vectors, and the returned logits are heap-allocated.
func (m *Model) ForwardClsBatchWS(seqs [][]int, ws *tensor.Workspace) *tensor.Matrix {
	if len(seqs) == 0 {
		return tensor.New(0, m.Config.NumClasses)
	}
	h, offsets := m.encodeBatch(seqs, ws)
	pooled := ws.GetZeroed(len(seqs), m.Config.DModel)
	for s := 0; s+1 < len(offsets); s++ {
		lo, hi := offsets[s], offsets[s+1]
		pr := pooled.Row(s)
		if m.Config.Causal {
			copy(pr, h.Row(hi-1))
		} else {
			inv := 1 / float32(hi-lo)
			for i := lo; i < hi; i++ {
				for j, v := range h.Row(i) {
					pr[j] += v * inv
				}
			}
		}
	}
	return m.ClsHead.Infer(pooled, nil)
}

// chooseFromLogits reduces per-row vocabulary logits to the best index and
// softmax over the candidate choice tokens.
func chooseFromLogits(logits *tensor.Matrix, n int, choices []int) ([]int, [][]float32) {
	best := make([]int, n)
	probs := make([][]float32, n)
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		sub := make([]float32, len(choices))
		for c, id := range choices {
			sub[c] = row[id]
		}
		tensor.Softmax(sub)
		best[i] = tensor.ArgMax(sub)
		probs[i] = sub
	}
	return best, probs
}
