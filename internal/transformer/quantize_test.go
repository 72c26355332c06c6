package transformer

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quantCloseEnough compares an int8-path output against the fp32 reference:
// quantization error must stay a small fraction of the reference magnitude.
func quantCloseEnough(t *testing.T, what string, got, want *tensor.Matrix, relTol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	var maxAbs, maxErr float64
	for i, v := range want.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
		if e := math.Abs(float64(v - got.Data[i])); e > maxErr {
			maxErr = e
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	if maxErr > relTol*maxAbs {
		t.Fatalf("%s: int8 max error %.5f vs fp32 max magnitude %.3f (rel %.4f > %.4f)",
			what, maxErr, maxAbs, maxErr/maxAbs, relTol)
	}
}

// TestQuantizeInt8BatchForwardParity pins the quantized batched forwards —
// encoder classification and decoder cached-prefix scoring — against the fp32
// model they were quantized from.
func TestQuantizeInt8BatchForwardParity(t *testing.T) {
	// Encoder classification path.
	enc := batchTestModel(false)
	seqs := batchTestSeqs(6, enc.Config.VocabSize, enc.Config.MaxSeqLen, 41)
	wantCls := enc.ForwardClsBatch(seqs)
	stats := enc.QuantizeInt8(0)
	if !enc.IsQuantized() {
		t.Fatal("model does not report quantized")
	}
	if stats.Layers != 6*enc.Config.NumLayers+1 {
		t.Fatalf("quantized %d layers, want %d", stats.Layers, 6*enc.Config.NumLayers+1)
	}
	if stats.CodesBytes*3 >= stats.FP32Bytes {
		t.Fatalf("serialized int8 %dB not well under fp32 %dB", stats.CodesBytes, stats.FP32Bytes)
	}
	gotCls := enc.ForwardClsBatch(seqs)
	quantCloseEnough(t, "ForwardClsBatch", gotCls, wantCls, 0.15)

	// At serving scale (the default ICL decoder over a 2000-word vocabulary)
	// the projections serialize 3.7× smaller: one byte per weight plus the
	// per-block scales.
	big := New(mistralConfig(2000), tensor.NewRNG(202)).QuantizeInt8(0)
	if ratio := float64(big.FP32Bytes) / float64(big.CodesBytes); ratio < 3.7 {
		t.Fatalf("serving-scale int8 weights are %dB against fp32 %dB: ratio %.2f, want >= 3.7",
			big.CodesBytes, big.FP32Bytes, ratio)
	}

	// Decoder cached-prefix path (the ICL serving loop).
	dec := batchTestModel(true)
	prefix := batchTestSeqs(1, dec.Config.VocabSize, dec.Config.MaxSeqLen/2, 43)[0]
	suffixes := batchTestSeqs(5, dec.Config.VocabSize, dec.Config.MaxSeqLen-len(prefix), 47)
	wantLogits := dec.NextTokenLogitsBatchWithCache(dec.InferKVCache(prefix), suffixes)
	dec.QuantizeInt8(0)
	cache := dec.InferKVCache(prefix)
	gotLogits := dec.NextTokenLogitsBatchWithCache(cache, suffixes)
	quantCloseEnough(t, "NextTokenLogitsBatchWithCache", gotLogits, wantLogits, 0.15)

	// Single-suffix decode agrees with its own batched path bitwise.
	one := dec.NextTokenLogitsWithCache(cache, suffixes[0])
	for j, v := range gotLogits.Row(0) {
		if one[j] != v {
			t.Fatal("quantized single decode diverged from batched decode")
		}
	}
}

// TestQuantizeInt8MergesLoRA pins that quantization folds adapters in: the
// quantized model approximates the adapted (merged) weights, not the base.
func TestQuantizeInt8MergesLoRA(t *testing.T) {
	m := batchTestModel(true)
	rng := tensor.NewRNG(91)
	m.ApplyLoRA(4, 8, 0, rng)
	// Nudge the adapters off LoRA's B=0 init so merging visibly changes Wq.
	for _, b := range m.Blocks {
		lora := b.Attn.Wq.(*nn.LoRALinear)
		tensor.Gaussian(lora.B.W, 0.05, rng)
	}
	seqs := batchTestSeqs(4, m.Config.VocabSize, m.Config.MaxSeqLen, 53)
	want := m.ForwardClsBatch(seqs)
	m.QuantizeInt8(0)
	for _, b := range m.Blocks {
		if _, ok := b.Attn.Wq.(*nn.QuantizedLinear); !ok {
			t.Fatalf("LoRA-wrapped Wq not quantized: %T", b.Attn.Wq)
		}
	}
	got := m.ForwardClsBatch(seqs)
	quantCloseEnough(t, "LoRA-merged ForwardClsBatch", got, want, 0.15)
}

// TestQuantizeInt8SharedLayers pins ALBERT-style models: shared projections
// are quantized once and every block serves the same quantized layer.
func TestQuantizeInt8SharedLayers(t *testing.T) {
	cfg := smallConfig(false)
	cfg.ShareLayers = true
	cfg.NumLayers = 3
	m := New(cfg, tensor.NewRNG(61))
	seqs := batchTestSeqs(3, cfg.VocabSize, cfg.MaxSeqLen, 67)
	want := m.ForwardClsBatch(seqs)
	stats := m.QuantizeInt8(0)
	// 6 projections shared across blocks + the LM head.
	if stats.Layers != 7 {
		t.Fatalf("shared-layer model quantized %d distinct layers, want 7", stats.Layers)
	}
	if m.Blocks[0].FF1 != m.Blocks[1].FF1 || m.Blocks[1].FF1 != m.Blocks[2].FF1 {
		t.Fatal("shared blocks do not share the quantized FF1")
	}
	got := m.ForwardClsBatch(seqs)
	quantCloseEnough(t, "shared-layer ForwardClsBatch", got, want, 0.15)
}

// TestQuantizedSaveLoadRoundTrip pins the two-stream checkpoint: residual
// fp32 params through Save/Load, int8 codes through SaveQuantized/
// LoadQuantized, restoring bitwise-identical inference.
func TestQuantizedSaveLoadRoundTrip(t *testing.T) {
	m := batchTestModel(true)
	m.QuantizeInt8(0)
	var wBuf, qBuf bytes.Buffer
	if err := m.SaveQuantized(&qBuf); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(&wBuf); err != nil {
		t.Fatal(err)
	}

	rt := New(m.Config, tensor.NewRNG(99))
	if err := rt.LoadQuantized(bytes.NewReader(qBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := rt.Load(bytes.NewReader(wBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	seqs := batchTestSeqs(5, m.Config.VocabSize, m.Config.MaxSeqLen, 71)
	if !rt.ForwardClsBatch(seqs).Equal(m.ForwardClsBatch(seqs)) {
		t.Fatal("round-tripped quantized model is not bitwise identical")
	}
}

// TestLoadQuantizedRejectsMismatch pins the load-time validation paths.
func TestLoadQuantizedRejectsMismatch(t *testing.T) {
	m := batchTestModel(true)
	m.QuantizeInt8(0)
	var qBuf bytes.Buffer
	if err := m.SaveQuantized(&qBuf); err != nil {
		t.Fatal(err)
	}

	// Wrong architecture: different dModel.
	cfg := m.Config
	cfg.DModel, cfg.FFNDim = 16, 32
	other := New(cfg, tensor.NewRNG(1))
	if err := other.LoadQuantized(bytes.NewReader(qBuf.Bytes())); err == nil {
		t.Fatal("shape mismatch accepted")
	}

	// Truncated stream.
	fresh := New(m.Config, tensor.NewRNG(1))
	if err := fresh.LoadQuantized(bytes.NewReader(qBuf.Bytes()[:qBuf.Len()/2])); err == nil {
		t.Fatal("truncated stream accepted")
	}

	// Wrong magic.
	bad := append([]byte(nil), qBuf.Bytes()...)
	bad[0] ^= 0xFF
	if err := fresh.LoadQuantized(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Double load.
	loaded := New(m.Config, tensor.NewRNG(1))
	if err := loaded.LoadQuantized(bytes.NewReader(qBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := loaded.LoadQuantized(bytes.NewReader(qBuf.Bytes())); err == nil {
		t.Fatal("double quantized load accepted")
	}
}

// TestQuantizedBackwardPanics pins that the quantized model refuses to train.
func TestQuantizedBackwardPanics(t *testing.T) {
	m := batchTestModel(false)
	m.QuantizeInt8(0)
	defer func() {
		if recover() == nil {
			t.Fatal("training forward/backward through a quantized model did not panic")
		}
	}()
	logits := m.ForwardCls([]int{1, 2, 3}, true)
	m.BackwardCls(logits)
}

// TestQuantizeTwicePanics pins double quantization.
func TestQuantizeTwicePanics(t *testing.T) {
	m := batchTestModel(false)
	m.QuantizeInt8(0)
	defer func() {
		if recover() == nil {
			t.Fatal("second QuantizeInt8 did not panic")
		}
	}()
	m.QuantizeInt8(0)
}
