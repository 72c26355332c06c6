package nn

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestParamCounts(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("l", 4, 3, rng)
	ps := l.Params()
	if got := ParamCount(ps); got != 4*3+3 {
		t.Fatalf("ParamCount = %d, want 15", got)
	}
	if got := TrainableCount(ps); got != 15 {
		t.Fatalf("TrainableCount = %d, want 15", got)
	}
	l.Weight.Frozen = true
	if got := TrainableCount(ps); got != 3 {
		t.Fatalf("TrainableCount after freeze = %d, want 3", got)
	}
}

func TestFreezeAll(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear("l", 2, 2, rng)
	FreezeAll(l.Params(), true)
	for _, p := range l.Params() {
		if !p.Frozen {
			t.Fatal("FreezeAll(true) must freeze every param")
		}
	}
	FreezeAll(l.Params(), false)
	for _, p := range l.Params() {
		if p.Frozen {
			t.Fatal("FreezeAll(false) must unfreeze every param")
		}
	}
}

func TestLinearForwardShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("l", 5, 7, rng)
	y := l.Forward(randomInput(3, 5, 1), nil, nil)
	if y.Rows != 3 || y.Cols != 7 {
		t.Fatalf("Forward shape = %dx%d, want 3x7", y.Rows, y.Cols)
	}
}

func TestLinearForwardBadDimPanics(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear("l", 5, 7, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad input dim")
		}
	}()
	l.Forward(randomInput(3, 4, 1), nil, nil)
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	rng := tensor.NewRNG(3)
	d := NewDropout(0.5, rng)
	x := randomInput(4, 4, 2)
	y := d.Forward(x, nil, nil)
	if !y.Equal(x) {
		t.Fatal("dropout must be identity without a tape")
	}
}

func TestDropoutTrainDropsAndScales(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := NewDropout(0.5, rng)
	x := tensor.New(100, 100)
	x.Fill(1)
	tape := NewTape()
	y := d.Forward(x, tape.WS(), tape)
	zeros, twos := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("dropout output %v, want 0 or 2", v)
		}
	}
	frac := float64(zeros) / float64(len(y.Data))
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("dropped fraction = %v, want ≈0.5", frac)
	}
	if twos == 0 {
		t.Fatal("survivors must be scaled by 1/keep")
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(5)
	e := NewEmbedding("emb", 10, 4, rng)
	ids := []int{1, 3, 1}
	tape := NewTape()
	out := e.Forward(ids, tape.WS(), tape)
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatalf("embedding shape = %dx%d", out.Rows, out.Cols)
	}
	// Rows 0 and 2 must be equal (same id).
	for j := 0; j < 4; j++ {
		if out.At(0, j) != out.At(2, j) {
			t.Fatal("same id must embed identically")
		}
	}
	dout := tensor.New(3, 4)
	dout.Fill(1)
	e.Backward(tape, dout)
	// Token 1 appears twice so its grad row is 2, token 3 once = 1, rest 0.
	if e.Table.Grad.At(1, 0) != 2 || e.Table.Grad.At(3, 0) != 1 || e.Table.Grad.At(0, 0) != 0 {
		t.Fatalf("embedding grads: %v", e.Table.Grad.Data[:20])
	}
}

func TestAdamWStepReducesLoss(t *testing.T) {
	rng := tensor.NewRNG(7)
	model := NewSequential(
		NewLinear("l1", 4, 8, rng),
		NewGELU(),
		NewLinear("l2", 8, 2, rng),
	)
	x := randomInput(16, 4, 4)
	targets := make([]int, 16)
	for i := range targets {
		// Learnable rule: sign of first feature.
		if x.At(i, 0) > 0 {
			targets[i] = 1
		}
	}
	ce := NewSoftmaxCrossEntropy()
	opt := NewAdamW(0.01, 0.01)
	tape := NewTape()
	var first, last float64
	for i := 0; i < 80; i++ {
		logits := model.Forward(x, tape.WS(), tape)
		loss, grad := ce.Loss(logits, targets, nil)
		if i == 0 {
			first = loss
		}
		last = loss
		model.Backward(tape, grad)
		tape.Reset()
		opt.Step(model.Params())
	}
	if last >= first*0.5 {
		t.Fatalf("AdamW failed to fit: %v -> %v", first, last)
	}
}

func TestFrozenParamsDoNotMove(t *testing.T) {
	rng := tensor.NewRNG(8)
	l := NewLinear("l", 3, 2, rng)
	l.Weight.Frozen = true
	before := l.Weight.W.Clone()
	x := randomInput(4, 3, 5)
	ce := NewSoftmaxCrossEntropy()
	opt := NewAdamW(0.1, 0)
	tape := NewTape()
	logits := l.Forward(x, tape.WS(), tape)
	_, grad := ce.Loss(logits, []int{0, 1, 0, 1}, nil)
	l.Backward(tape, grad)
	opt.Step(l.Params())
	if !l.Weight.W.Equal(before) {
		t.Fatal("frozen weight moved under optimizer step")
	}
	// Gradient must have been cleared even for the frozen param.
	for _, g := range l.Weight.Grad.Data {
		if g != 0 {
			t.Fatal("frozen param gradient not cleared by Step")
		}
	}
	// Bias was not frozen and should have moved.
	if l.Bias.W.Data[0] == 0 && l.Bias.W.Data[1] == 0 {
		t.Fatal("unfrozen bias did not move")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("p", 1, 2)
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	pre := ClipGradNorm([]*Param{p}, 1.0)
	if math.Abs(pre-5) > 1e-6 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	var post float64
	for _, g := range p.Grad.Data {
		post += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(post)-1) > 1e-5 {
		t.Fatalf("post-clip norm = %v, want 1", math.Sqrt(post))
	}
	// Below-threshold gradients are untouched.
	p.Grad.Data[0], p.Grad.Data[1] = 0.1, 0.1
	ClipGradNorm([]*Param{p}, 1.0)
	if p.Grad.Data[0] != 0.1 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestCrossEntropyIgnoreIndex(t *testing.T) {
	ce := NewSoftmaxCrossEntropy()
	logits := randomInput(3, 4, 6)
	loss, grad := ce.Loss(logits, []int{-1, 2, -1}, nil)
	// Only row 1 contributes.
	for j := 0; j < 4; j++ {
		if grad.At(0, j) != 0 || grad.At(2, j) != 0 {
			t.Fatal("ignored rows must have zero gradient")
		}
	}
	if loss <= 0 {
		t.Fatalf("loss = %v, want > 0", loss)
	}
	// All-ignored batch is a zero loss, not NaN.
	loss, _ = ce.Loss(logits, []int{-1, -1, -1}, nil)
	if loss != 0 {
		t.Fatalf("all-ignored loss = %v, want 0", loss)
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	ce := NewSoftmaxCrossEntropy()
	logits := tensor.NewFrom(1, 2, []float32{100, -100})
	loss, _ := ce.Loss(logits, []int{0}, nil)
	if loss > 1e-6 {
		t.Fatalf("confident correct loss = %v, want ≈0", loss)
	}
}

func TestLoRAInitialOutputMatchesBase(t *testing.T) {
	rng := tensor.NewRNG(9)
	base := NewLinear("base", 5, 3, rng)
	x := randomInput(4, 5, 7)
	want := base.Forward(x, nil, nil)
	lora := NewLoRA(base, 2, 4, 0, rng)
	got := lora.Forward(x, nil, nil)
	if !got.AllClose(want, 1e-5) {
		t.Fatal("LoRA with B=0 must match base output")
	}
}

func TestLoRATrainableFraction(t *testing.T) {
	rng := tensor.NewRNG(10)
	base := NewLinear("base", 100, 100, rng)
	lora := NewLoRA(base, 4, 8, 0, rng)
	ps := lora.Params()
	total := ParamCount(ps)
	trainable := TrainableCount(ps)
	if trainable != 100*4+4*100 {
		t.Fatalf("trainable = %d, want 800", trainable)
	}
	frac := float64(trainable) / float64(total)
	if frac > 0.10 {
		t.Fatalf("LoRA trainable fraction = %v, want small", frac)
	}
}

func TestLoRAMergeMatchesAdapterOutput(t *testing.T) {
	rng := tensor.NewRNG(11)
	base := NewLinear("base", 6, 4, rng)
	lora := NewLoRA(base, 2, 4, 0, rng)
	tensor.Gaussian(lora.B.W, 0.3, rng)
	x := randomInput(3, 6, 8)
	want := lora.Forward(x, nil, nil)
	merged := lora.Merge()
	got := merged.Forward(x, nil, nil)
	if !got.AllClose(want, 1e-4) {
		t.Fatal("merged LoRA output differs from adapter output")
	}
}

func TestQuantizeRoundTripError(t *testing.T) {
	rng := tensor.NewRNG(12)
	m := tensor.New(32, 32)
	tensor.Gaussian(m, 0.1, rng)
	q := quantize4Bit(m, 64)
	deq := q.Dequantize()
	if deq.Rows != 32 || deq.Cols != 32 {
		t.Fatal("dequantize shape mismatch")
	}
	// Block range / 15 bounds the max error at half a step.
	var maxErr float64
	for i := range m.Data {
		e := math.Abs(float64(m.Data[i] - deq.Data[i]))
		if e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.1 {
		t.Fatalf("max quantization error = %v, too large", maxErr)
	}
}

func TestQuantizeMemorySavings(t *testing.T) {
	rng := tensor.NewRNG(13)
	m := tensor.New(128, 128)
	tensor.Gaussian(m, 1, rng)
	q := quantize4Bit(m, 64)
	ratio := float64(q.Float32Bytes()) / float64(q.MemoryBytes())
	if ratio < 6 {
		t.Fatalf("compression ratio = %v, want > 6x", ratio)
	}
}

func TestQuantizeConstantBlock(t *testing.T) {
	m := tensor.New(4, 4)
	m.Fill(3.5)
	q := quantize4Bit(m, 8)
	deq := q.Dequantize()
	for _, v := range deq.Data {
		if v != 3.5 {
			t.Fatalf("constant block dequantized to %v, want 3.5", v)
		}
	}
}

func TestQuantizeLinearFreezes(t *testing.T) {
	rng := tensor.NewRNG(14)
	l := NewLinear("l", 16, 16, rng)
	_, rms := QuantizeLinear(l, 64)
	if rms < 0 {
		t.Fatalf("rms = %v", rms)
	}
	for _, p := range l.Params() {
		if !p.Frozen {
			t.Fatal("quantized linear params must be frozen")
		}
	}
}

// Property: quantization error is bounded by half a quantization step for
// every element.
func TestQuantizeErrorBoundProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		rows := 1 + rng.Intn(8)
		cols := 1 + rng.Intn(16)
		m := tensor.New(rows, cols)
		tensor.Gaussian(m, 1, rng)
		q := quantize4Bit(m, 16)
		deq := q.Dequantize()
		for i := range m.Data {
			b := i / q.BlockSize
			step := float64(q.Scales[b])
			if math.Abs(float64(m.Data[i]-deq.Data[i])) > step/2+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQuantize4Bit(b *testing.B) {
	m := randomInput(256, 256, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantize4Bit(m, DefaultQuantBlock)
	}
}

// TestGELUMatchesScalarBits holds GELU's forward, taped and not — and through
// it tensor.GELU on whichever implementation this machine runs — to geluScalar,
// element by element and bit for bit, at widths that end inside, on and just
// past an eight-lane group and on inputs across the saturation, NaN and
// infinity branches.
func TestGELUMatchesScalarBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-identity is asserted on amd64 only: the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, 5.5, -5.5, 40, -40}
	g := NewGELU()
	ws, tape := tensor.NewWorkspace(), NewTape()
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {3, 8}, {5, 9}, {27, 96}, {64, 193}} {
		x := randomInput(shape[0], shape[1], 7)
		for i := range x.Data {
			x.Data[i] *= 6 // past ±10 inside the tanh on the tails
			if i%5 == 0 {
				x.Data[i] = special[(i/5)%len(special)]
			}
		}
		for name, got := range map[string]*tensor.Matrix{"inference": g.Forward(x, ws, nil), "taped": g.Forward(x, tape.WS(), tape)} {
			for i, v := range x.Data {
				want, have := geluScalar(v), got.Data[i]
				if math.Float32bits(have) != math.Float32bits(want) && !(have != have && want != want) {
					t.Fatalf("%s %dx%d: gelu(%v) = %08x, want %08x", name, shape[0], shape[1], v, math.Float32bits(have), math.Float32bits(want))
				}
			}
		}
	}
}

// TestTapeMisuseFailsLoudly: a Backward with no record to pop, or whose
// newest record is another layer's, panics naming the layer.
func TestTapeMisuseFailsLoudly(t *testing.T) {
	rng := tensor.NewRNG(15)
	lin := NewLinear("lin", 4, 4, rng)
	x := randomInput(2, 4, 16)
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			for _, w := range []string{"lin.weight", want} {
				if !strings.Contains(msg, w) {
					t.Errorf("%s: panic %q does not name %q", name, msg, w)
				}
			}
		}()
		fn()
	}
	mustPanic("empty tape", "empty tape", func() { lin.Backward(NewTape(), x) })
	mustPanic("nil tape", "empty tape", func() { lin.Backward(nil, x) })
	mustPanic("wrong record", "GELU", func() {
		tape := NewTape()
		NewGELU().Forward(lin.Forward(x, tape.WS(), tape), tape.WS(), tape)
		lin.Backward(tape, x)
	})
}
