package transformer

import (
	"math"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// attend runs a over x as one sequence.
func attend(a *MultiHeadAttention, x *tensor.Matrix, tape *nn.Tape) *tensor.Matrix {
	y, _ := a.forward(x, []int{0, x.Rows}, prefixTree{}, LayerKV{}, false, tape.WS(), tape, false)
	return y
}

func smallConfig(causal bool) Config {
	return Config{
		Name: "test", VocabSize: 20, MaxSeqLen: 16, DModel: 8,
		NumHeads: 2, NumLayers: 2, FFNDim: 16, Dropout: 0, Causal: causal,
		NumClasses: 2,
	}
}

func TestAttentionShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := newMultiHeadAttention("a", 8, 2, false, rng)
	x := tensor.New(5, 8)
	tensor.Gaussian(x, 1, rng)
	y := attend(a, x, nil)
	if y.Rows != 5 || y.Cols != 8 {
		t.Fatalf("attention output %dx%d, want 5x8", y.Rows, y.Cols)
	}
}

func TestAttentionBadHeadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dModel % heads != 0")
		}
	}()
	newMultiHeadAttention("a", 8, 3, false, tensor.NewRNG(1))
}

// TestCausalMaskBlocksFuture verifies that changing a future token does not
// affect earlier positions' outputs under causal attention, but does under
// bidirectional attention.
func TestCausalMaskBlocksFuture(t *testing.T) {
	rng := tensor.NewRNG(2)
	for _, causal := range []bool{true, false} {
		a := newMultiHeadAttention("a", 8, 2, causal, rng)
		x := tensor.New(4, 8)
		tensor.Gaussian(x, 1, tensor.NewRNG(3))
		y1 := attend(a, x, nil)
		x2 := x.Clone()
		for j := 0; j < 8; j++ {
			x2.Set(3, j, x2.At(3, j)+5) // perturb the last position
		}
		y2 := attend(a, x2, nil)
		changed := false
		for i := 0; i < 3; i++ { // earlier positions
			for j := 0; j < 8; j++ {
				if math.Abs(float64(y1.At(i, j)-y2.At(i, j))) > 1e-6 {
					changed = true
				}
			}
		}
		if causal && changed {
			t.Fatal("causal attention leaked future information")
		}
		if !causal && !changed {
			t.Fatal("bidirectional attention should see the perturbation")
		}
	}
}

// attnGradCheck compares attention's analytic gradients to finite
// differences through the scalar loss Σ dout⊙Attn(x).
func TestAttentionGradcheck(t *testing.T) {
	rng := tensor.NewRNG(4)
	for _, causal := range []bool{false, true} {
		a := newMultiHeadAttention("a", 8, 2, causal, rng)
		x := tensor.New(4, 8)
		tensor.Gaussian(x, 1, tensor.NewRNG(5))
		dout := tensor.New(4, 8)
		tensor.Gaussian(dout, 1, tensor.NewRNG(6))
		lossFn := func() float64 {
			y := attend(a, x, nil)
			var s float64
			for i, v := range y.Data {
				s += float64(v) * float64(dout.Data[i])
			}
			return s
		}
		nn.ZeroGrads(a.Params())
		tape := nn.NewTape()
		attend(a, x, tape)
		dx := a.backward(tape, dout)
		// Check input gradient entries.
		for k := 0; k < 8; k++ {
			idx := (k * 13) % len(x.Data)
			orig := x.Data[idx]
			const h = 1e-2
			x.Data[idx] = orig + h
			lp := lossFn()
			x.Data[idx] = orig - h
			lm := lossFn()
			x.Data[idx] = orig
			want := (lp - lm) / (2 * h)
			got := float64(dx.Data[idx])
			if math.Abs(got-want) > 5e-2*(1+math.Abs(want)) {
				t.Errorf("causal=%v dx[%d] = %v, want %v", causal, idx, got, want)
			}
		}
		// Check one weight gradient per projection.
		for _, p := range a.Params() {
			idx := 3 % len(p.W.Data)
			orig := p.W.Data[idx]
			const h = 1e-2
			p.W.Data[idx] = orig + h
			lp := lossFn()
			p.W.Data[idx] = orig - h
			lm := lossFn()
			p.W.Data[idx] = orig
			want := (lp - lm) / (2 * h)
			got := float64(p.Grad.Data[idx])
			if math.Abs(got-want) > 5e-2*(1+math.Abs(want)) {
				t.Errorf("causal=%v %s grad = %v, want %v", causal, p.Name, got, want)
			}
		}
	}
}

func TestBlockForwardBackwardShapes(t *testing.T) {
	rng := tensor.NewRNG(7)
	b := newBlock("b", 8, 2, 16, false, 0, rng)
	x := tensor.New(5, 8)
	tensor.Gaussian(x, 1, rng)
	tape := nn.NewTape()
	y, _ := b.forward(x, []int{0, x.Rows}, prefixTree{}, LayerKV{}, false, tape.WS(), tape.WS(), tape, false)
	if y.Rows != 5 || y.Cols != 8 {
		t.Fatalf("block output %dx%d", y.Rows, y.Cols)
	}
	dout := tensor.New(5, 8)
	tensor.Gaussian(dout, 1, rng)
	dx := b.backward(tape, dout)
	if dx.Rows != 5 || dx.Cols != 8 {
		t.Fatalf("block dx %dx%d", dx.Rows, dx.Cols)
	}
}

func TestModelForwardClsShape(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(8))
	logits := m.ForwardClsBatchWS([][]int{{1, 2, 3, 4}}, nil)
	if logits.Rows != 1 || logits.Cols != 2 {
		t.Fatalf("cls logits %dx%d, want 1x2", logits.Rows, logits.Cols)
	}
}

func TestModelForwardLMShape(t *testing.T) {
	m := New(smallConfig(true), tensor.NewRNG(9))
	logits := m.forwardLMTape([][]int{{1, 2, 3}}, nn.NewTape())
	if logits.Rows != 3 || logits.Cols != 20 {
		t.Fatalf("lm logits %dx%d, want 3x20", logits.Rows, logits.Cols)
	}
}

func TestModelTruncatesLongSequences(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(10))
	ids := make([]int, 100)
	h, _ := m.encodeBatch([][]int{ids}, false, nil, nil)
	if h.Rows != m.Config.MaxSeqLen {
		t.Fatalf("encoded %d positions, want truncation to %d", h.Rows, m.Config.MaxSeqLen)
	}
}

func TestModelEmptySequencePanics(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(10))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty sequence")
		}
	}()
	m.ForwardClsBatchWS([][]int{nil}, nil)
}

// TestModelLearnsTinyClassification trains a small encoder to separate two
// token patterns and checks it fits.
func TestModelLearnsTinyClassification(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(11))
	tr := NewTrainer(m, 3e-3, 0.01, 0, 1)
	// Class 0: sequences of token 5; class 1: sequences of token 9.
	examples := [][]int{{1, 5, 5, 5}, {1, 9, 9, 9}}
	labels := []int{0, 1}
	for epoch := 0; epoch < 60; epoch++ {
		for i := range examples {
			tr.Cls(examples[i:i+1], labels[i:i+1])
		}
	}
	correct := 0
	logits := m.ForwardClsBatchWS(examples, nil)
	for i := range examples {
		if tensor.ArgMax(logits.Row(i)) == labels[i] {
			correct++
		}
	}
	if correct != 2 {
		t.Fatalf("model failed to fit 2 trivial examples (%d/2)", correct)
	}
}

// TestDecoderLearnsNextToken trains a tiny causal LM on a fixed sequence and
// checks it memorizes the continuation.
func TestDecoderLearnsNextToken(t *testing.T) {
	cfg := smallConfig(true)
	m := New(cfg, tensor.NewRNG(12))
	tr := NewTrainer(m, 3e-3, 0.01, 0, 1)
	seq := []int{2, 7, 3, 11, 5, 13}
	for step := 0; step < 150; step++ {
		tr.LM([][]int{seq[:len(seq)-1]}, [][]int{seq[1:]})
	}
	// Greedy decoding from the first two tokens must replay the rest.
	got := append([]int(nil), seq[:2]...)
	for len(got) < len(seq) {
		got = append(got, tensor.ArgMax(refNextLogits(m, got)))
	}
	if !slices.Equal(got, seq) {
		t.Fatalf("decoded %v, want %v", got, seq)
	}
}

func TestNextTokenLogitsRequiresCausal(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(13))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for next-token scoring on an encoder")
		}
	}()
	m.ScoreChoiceBatchWithCacheWS(nil, [][]int{{1, 2}}, []int{4, 5}, nil)
}

func TestScoreChoice(t *testing.T) {
	m := New(smallConfig(true), tensor.NewRNG(15))
	best, probs := m.ScoreChoiceBatchWithCacheWS(nil, [][]int{{1, 2, 3}}, []int{4, 5}, nil)
	if best[0] != 0 && best[0] != 1 {
		t.Fatalf("best = %d", best[0])
	}
	if math.Abs(float64(probs[0][0]+probs[0][1])-1) > 1e-5 {
		t.Fatalf("choice probs sum to %v", probs[0][0]+probs[0][1])
	}
}

func TestSharedLayersParamCount(t *testing.T) {
	cfg := smallConfig(false)
	cfg.NumLayers = 4
	rng := tensor.NewRNG(16)
	dense := New(cfg, rng)
	cfg.ShareLayers = true
	shared := New(cfg, tensor.NewRNG(16))
	if shared.ParamCount() >= dense.ParamCount() {
		t.Fatalf("shared params %d !< dense params %d", shared.ParamCount(), dense.ParamCount())
	}
	// Shared model still runs and trains.
	tape := nn.NewTape()
	logits := shared.forwardClsTape([][]int{{1, 2, 3}}, tape)
	ce := nn.NewSoftmaxCrossEntropy()
	_, grad := ce.Loss(logits, []int{1}, nil)
	shared.backward(tape, grad)
	nn.NewAdamW(1e-3, 0).Step(shared.Params())
}

func TestSharedLayersGradientAccumulation(t *testing.T) {
	cfg := smallConfig(false)
	cfg.NumLayers = 3
	cfg.ShareLayers = true
	m := New(cfg, tensor.NewRNG(17))
	tape := nn.NewTape()
	logits := m.forwardClsTape([][]int{{1, 2, 3, 4}}, tape)
	ce := nn.NewSoftmaxCrossEntropy()
	_, grad := ce.Loss(logits, []int{0}, nil)
	m.backward(tape, grad)
	// The shared block's gradient accumulates contributions from all three
	// layer applications; it must be nonzero.
	var sum float64
	for _, p := range m.Blocks[0].Params() {
		for _, g := range p.Grad.Data {
			sum += math.Abs(float64(g))
		}
	}
	if sum == 0 {
		t.Fatal("shared block received no gradient")
	}
}

// TestFreezeBackboneTrainingLeavesBackboneGradsZero: a training step on a
// frozen backbone accumulates gradient into the classification head only —
// no embedding, block, LayerNorm or LM-head parameter gets any.
func TestFreezeBackboneTrainingLeavesBackboneGradsZero(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(19))
	m.FreezeBackbone()
	tape := nn.NewTape()
	_, grad := nn.NewSoftmaxCrossEntropy().Loss(m.forwardClsTape([][]int{{1, 2, 3, 4}}, tape), []int{1}, nil)
	m.backward(tape, grad)
	head := map[*nn.Param]bool{}
	for _, p := range m.ClsHead.Params() {
		head[p] = true
	}
	for _, p := range m.Params() {
		var sum float64
		for _, g := range p.Grad.Data {
			sum += math.Abs(float64(g))
		}
		if head[p] && sum == 0 {
			t.Errorf("trainable %s got no gradient", p.Name)
		}
		if !head[p] && sum != 0 {
			t.Errorf("frozen %s got gradient (|g|₁ = %v)", p.Name, sum)
		}
	}
}

func TestFreezeBackbone(t *testing.T) {
	m := New(smallConfig(false), tensor.NewRNG(18))
	m.FreezeBackbone()
	ps := m.Params()
	trainable := nn.TrainableCount(ps)
	want := nn.ParamCount(m.ClsHead.Params())
	if trainable != want {
		t.Fatalf("trainable = %d, want cls head only = %d", trainable, want)
	}
}

func TestApplyLoRAFraction(t *testing.T) {
	cfg := smallConfig(true)
	cfg.DModel, cfg.FFNDim, cfg.NumHeads = 32, 64, 4
	m := New(cfg, tensor.NewRNG(19))
	trainable, total := m.ApplyLoRA(4, 8, 0, tensor.NewRNG(20))
	if trainable == 0 || trainable >= total/2 {
		t.Fatalf("LoRA trainable/total = %d/%d", trainable, total)
	}
	// Forward/backward still work through the adapters.
	tape := nn.NewTape()
	logits := m.forwardLMTape([][]int{{1, 2, 3}}, tape)
	ce := nn.NewSoftmaxCrossEntropy()
	_, grad := ce.Loss(logits, []int{2, 3, 4}, nil)
	m.backward(tape, grad)
	// Base weights frozen: optimizer must move only adapters.
	before := m.Blocks[0].Attn.Wk.(*nn.Linear).Weight.W.Clone()
	nn.NewAdamW(1e-2, 0).Step(m.Params())
	if !m.Blocks[0].Attn.Wk.(*nn.Linear).Weight.W.Equal(before) {
		t.Fatal("frozen base weight moved during LoRA training")
	}
}

func TestQuantize4BitModel(t *testing.T) {
	m := New(smallConfig(true), tensor.NewRNG(21))
	qb, fb := m.Quantize4Bit()
	if qb == 0 || fb == 0 || float64(fb)/float64(qb) < 4 {
		t.Fatalf("quantization savings %d/%d", qb, fb)
	}
	// Quantized model still produces finite logits.
	logits := m.forwardLMTape([][]int{{1, 2, 3}}, nil)
	for _, v := range logits.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("quantized model produced non-finite logits")
		}
	}
}

func TestModelDeterminism(t *testing.T) {
	m1 := New(smallConfig(false), tensor.NewRNG(25))
	m2 := New(smallConfig(false), tensor.NewRNG(25))
	l1 := m1.ForwardClsBatchWS([][]int{{3, 1, 4}}, nil)
	l2 := m2.ForwardClsBatchWS([][]int{{3, 1, 4}}, nil)
	if !l1.Equal(l2) {
		t.Fatal("same seed must produce identical models")
	}
}
