package transformer

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Trainer is the one training step of every trainer in this repository —
// MLM and CLM pre-training, SFT and LoRA fine-tuning: for each sequence of
// a window, the taped forward, softmax cross-entropy, and the backward pass
// of the loss gradient scaled by 1/window; then one gradient-norm clip and
// one AdamW step over the parameters the model had when the trainer was
// built. Build it after ApplyLoRA, whose adapters are new parameters.
type Trainer struct {
	m      *Model
	params []*nn.Param
	opt    *nn.AdamW
	ce     *nn.SoftmaxCrossEntropy
	tape   *nn.Tape
	clip   float64
	window int
}

// NewTrainer returns a trainer of m: AdamW at lr with decoupled weight
// decay, the global gradient norm clipped to clip (0 disables clipping), and
// up to window sequences per step.
func NewTrainer(m *Model, lr, weightDecay, clip float64, window int) *Trainer {
	return &Trainer{
		m: m, params: m.Params(), opt: nn.NewAdamW(lr, weightDecay),
		ce: nn.NewSoftmaxCrossEntropy(), tape: nn.NewTape(), clip: clip, window: window,
	}
}

// Cls takes one optimizer step on the classification loss of seqs against
// their class labels and returns the sum of the sequences' losses.
func (t *Trainer) Cls(seqs [][]int, labels []int) float64 {
	return t.step(len(seqs), func(i int) (float64, *tensor.Matrix) {
		return t.ce.Loss(t.m.forwardClsTape(seqs[i:i+1], t.tape), labels[i:i+1], t.tape.WS())
	})
}

// LM takes one optimizer step on the language-model loss of seqs, whose
// targets hold one token id per position (-1 for an unsupervised one), and
// returns the sum of the sequences' losses.
func (t *Trainer) LM(seqs, targets [][]int) float64 {
	return t.step(len(seqs), func(i int) (float64, *tensor.Matrix) {
		return t.ce.Loss(t.m.forwardLMTape(seqs[i:i+1], t.tape), targets[i], t.tape.WS())
	})
}

// step runs, for each of the window's n sequences, loss(i) — the taped
// forward and the loss — and the backward pass, then clips and steps. A
// short window is scaled by 1/window too, so each sequence weighs the same
// in every step.
func (t *Trainer) step(n int, loss func(i int) (float64, *tensor.Matrix)) float64 {
	if n <= 0 || n > t.window {
		panic(fmt.Sprintf("transformer: training step of %d sequences, window %d", n, t.window))
	}
	scale := 1 / float32(t.window)
	var total float64
	for i := 0; i < n; i++ {
		l, grad := loss(i)
		total += l
		tensor.Scale(grad, grad, scale)
		t.m.backward(t.tape, grad)
		t.tape.Reset()
	}
	if t.clip > 0 {
		nn.ClipGradNorm(t.params, t.clip)
	}
	t.opt.Step(t.params)
	return total
}

// modelRecord names the model's own tape record: the offsets after a
// classification forward, for unpool; none after a language-model forward.
const modelRecord = "Model"

// forwardClsTape is ForwardClsBatchWS recorded on tape for backward, with
// dropout live. The logits live in the tape's workspace, until its Reset.
func (m *Model) forwardClsTape(seqs [][]int, tape *nn.Tape) *tensor.Matrix {
	ws := tape.WS()
	pooled, offsets := m.pool(seqs, ws, tape)
	logits := m.ClsHead.Forward(pooled, ws, tape)
	tape.Push(modelRecord, offsets)
	return logits
}

// forwardLMTape returns language-model logits [ΣTᵢ, VocabSize] at every
// position of the packed batch (masked-token for encoders, next-token for
// decoders), recorded on tape like forwardClsTape.
func (m *Model) forwardLMTape(seqs [][]int, tape *nn.Tape) *tensor.Matrix {
	ws := tape.WS()
	h, _ := m.encodeBatch(seqs, false, ws, tape)
	logits := m.LMHead.Forward(h, ws, tape)
	tape.Push(modelRecord, nil)
	return logits
}

// backward propagates dlogits, the loss gradient for the logits the last
// forwardClsTape or forwardLMTape on tape returned, down to the embeddings,
// accumulating every unfrozen parameter's gradient. Reset the tape after.
func (m *Model) backward(tape *nn.Tape, dlogits *tensor.Matrix) {
	offsets, _ := tape.Pop(modelRecord)
	var dh *tensor.Matrix
	if offsets == nil {
		dh = m.LMHead.Backward(tape, dlogits)
	} else {
		dh = m.unpool(offsets, m.ClsHead.Backward(tape, dlogits), tape.WS())
	}
	dh = m.FinalLN.Backward(tape, dh)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		dh = m.Blocks[i].backward(tape, dh)
	}
	// Token and positional embeddings both received the same upstream grad.
	m.PosEmb.Backward(tape, dh)
	m.TokEmb.Backward(tape, dh)
}

// unpool spreads each pooled row's gradient back over its sequence's
// positions: evenly for an encoder's mean, onto the last position for a
// decoder.
func (m *Model) unpool(offsets []int, dPooled *tensor.Matrix, ws *tensor.Workspace) *tensor.Matrix {
	dh := ws.GetZeroed(offsets[len(offsets)-1], m.Config.DModel)
	for s := 0; s+1 < len(offsets); s++ {
		lo, hi := offsets[s], offsets[s+1]
		src := dPooled.Row(s)
		if m.Config.Causal {
			copy(dh.Row(hi-1), src)
			continue
		}
		inv := 1 / float32(hi-lo)
		for i := lo; i < hi; i++ {
			row := dh.Row(i)
			for j, v := range src {
				row[j] = v * inv
			}
		}
	}
	return dh
}
