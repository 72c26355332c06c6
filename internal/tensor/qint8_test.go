package tensor

import (
	"math"
	"testing"
)

// refMatMulQ8 is a naive reference of the exact arithmetic MatMulQ8 promises:
// quantize the activation row, quantize the weights (already done by q), take
// integer dot products per scale block, and scale back per block in float32.
func refMatMulQ8(x *Matrix, q *QInt8Matrix) *Matrix {
	codes := q.Codes()
	nb := q.Blocks()
	out := New(x.Rows, q.Out)
	for i := 0; i < x.Rows; i++ {
		xrow := x.Row(i)
		var absmax float32
		for _, v := range xrow {
			if v < 0 {
				v = -v
			}
			if v > absmax {
				absmax = v
			}
		}
		var inv, sxi float32
		if absmax > 0 {
			inv = 127 / absmax
			sxi = absmax / 127
		}
		xq := make([]int32, q.In)
		for k, v := range xrow {
			xq[k] = roundToInt32(v * inv)
		}
		for j := 0; j < q.Out; j++ {
			crow := codes[j*q.In : (j+1)*q.In]
			var f float32
			for b := 0; b < nb; b++ {
				lo, hi := b*q.Block, min(b*q.Block+q.Block, q.In)
				var s int32
				for k := lo; k < hi; k++ {
					s += xq[k] * int32(crow[k])
				}
				f += float32(s) * q.Scales[j*nb+b]
			}
			out.Set(i, j, f*sxi)
		}
	}
	return out
}

func randomMatrix(rows, cols int, seed uint64, scale float32) *Matrix {
	m := New(rows, cols)
	rng := NewRNG(seed)
	Gaussian(m, float64(scale), rng)
	return m
}

// TestMatMulQ8MatchesReference pins the int8 kernel to the naive integer
// reference bitwise, on both paths, across shapes that exercise every edge:
// one row, Out not a multiple of the eight channels the AVX2 routine takes at
// a time (the Go loop finishes the rest), block lengths that are and are not
// multiples of its 16-code step (the Go loop takes the latter), In not a
// multiple of the block, and a block longer than In.
func TestMatMulQ8MatchesReference(t *testing.T) {
	shapes := []struct{ m, in, out, block int }{
		{1, 16, 3, 16},   // Out < 8: the Go loop only
		{3, 64, 96, 64},  // one full block
		{5, 96, 40, 64},  // a 64-block and a 32-tail
		{4, 80, 80, 64},  // a 64-block and a 16-tail
		{2, 50, 7, 17},   // nothing divides anything
		{7, 33, 1, 8},    // single output channel
		{1, 192, 2, 256}, // block larger than In (per-channel scales)
		{2, 96, 10, 64},  // Out % 8 == 2
		{3, 48, 8, 64},   // one 48-block: 32 codes, then 16
		{2, 80, 17, 16},  // five 16-blocks, Out % 8 == 1
	}
	defer func(was bool) { useAVX = was }(useAVX)
	for _, s := range shapes {
		x := randomMatrix(s.m, s.in, uint64(s.m*1000+s.in), 1)
		w := randomMatrix(s.in, s.out, uint64(s.out*7+3), 0.5)
		q := QuantizeInt8(w, s.block)
		want := refMatMulQ8(x, q)
		for _, avx := range kernelPaths() {
			useAVX = avx
			if got := MatMulQ8(nil, x, q, nil); !got.Equal(want) {
				t.Fatalf("shape %+v useAVX=%v: MatMulQ8 differs from integer reference", s, avx)
			}
		}
	}
}

// TestMatMulQ8ApproximatesFP32 bounds the end-to-end quantization error of
// one W8A8 matmul against the fp32 kernel: per-element error should stay
// within a small multiple of the combined quantization steps.
func TestMatMulQ8ApproximatesFP32(t *testing.T) {
	x := randomMatrix(16, 96, 1, 1)
	w := randomMatrix(96, 96, 2, 0.5)
	q := QuantizeInt8(w, qInt8Block)
	got := MatMulQ8(nil, x, q, nil)
	want := MatMul(nil, x, w)
	var maxErr, maxAbs float64
	for i, v := range want.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
		if e := math.Abs(float64(v - got.Data[i])); e > maxErr {
			maxErr = e
		}
	}
	// ~1% of the output range is generous for 96-long int8 dot products; a
	// packing or correction bug is off by orders of magnitude, not percent.
	if maxErr > 0.01*maxAbs {
		t.Fatalf("int8 matmul max error %.5f vs output max %.3f", maxErr, maxAbs)
	}
}

// TestMatMulQ8Deterministic pins that the result is identical for every row
// partitioning (integer accumulation has no order sensitivity), including
// with and without a workspace and with a preallocated destination.
func TestMatMulQ8Deterministic(t *testing.T) {
	x := randomMatrix(64, 128, 3, 1)
	w := randomMatrix(128, 96, 4, 1)
	q := QuantizeInt8(w, qInt8Block)
	base := MatMulQ8(nil, x, q, nil)
	ws := NewWorkspace()
	for rep := 0; rep < 3; rep++ {
		ws.Reset()
		got := MatMulQ8(ws.Get(64, 96), x, q, ws)
		if !got.Equal(base) {
			t.Fatal("workspace-backed MatMulQ8 diverged from allocation path")
		}
	}
}

// TestQInt8CodesRoundTrip pins serialization: Codes + Scales rebuild a
// matrix with the same codes that computes the same bits.
func TestQInt8CodesRoundTrip(t *testing.T) {
	w := randomMatrix(80, 41, 9, 1)
	q := QuantizeInt8(w, 32)
	rt, err := NewQInt8FromCodes(q.In, q.Out, q.Block, q.Codes(), q.Scales)
	if err != nil {
		t.Fatal(err)
	}
	codes, rtCodes := q.Codes(), rt.Codes()
	if len(rtCodes) != len(codes) {
		t.Fatalf("code count %d vs %d", len(rtCodes), len(codes))
	}
	for i, c := range codes {
		if rtCodes[i] != c {
			t.Fatalf("code %d differs after round trip", i)
		}
	}
	x := randomMatrix(4, 80, 10, 1)
	if !MatMulQ8(nil, x, rt, nil).Equal(MatMulQ8(nil, x, q, nil)) {
		t.Fatal("round-tripped matrix computes different results")
	}
}

// TestQInt8FromCodesValidation pins the error paths: wrong lengths and the
// unused -128 code are rejected rather than silently mis-packed.
func TestQInt8FromCodesValidation(t *testing.T) {
	w := randomMatrix(8, 3, 11, 1)
	q := QuantizeInt8(w, 8)
	if _, err := NewQInt8FromCodes(8, 3, 8, q.Codes()[:10], q.Scales); err == nil {
		t.Fatal("short codes accepted")
	}
	if _, err := NewQInt8FromCodes(8, 3, 8, q.Codes(), q.Scales[:1]); err == nil {
		t.Fatal("short scales accepted")
	}
	bad := q.Codes()
	bad[0] = -128
	if _, err := NewQInt8FromCodes(8, 3, 8, bad, q.Scales); err == nil {
		t.Fatal("-128 code accepted")
	}
	if _, err := NewQInt8FromCodes(0, 3, 8, nil, nil); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

// TestQInt8Dequantize pins that dequantization inverts the codes exactly
// (code · scale per element) and that quantization error is bounded by half a
// scale step per element.
func TestQInt8Dequantize(t *testing.T) {
	w := randomMatrix(96, 40, 12, 1)
	q := QuantizeInt8(w, qInt8Block)
	deq := q.Dequantize()
	nb := q.Blocks()
	for k := 0; k < q.In; k++ {
		for j := 0; j < q.Out; j++ {
			step := q.Scales[j*nb+k/q.Block]
			diff := math.Abs(float64(w.At(k, j) - deq.At(k, j)))
			if diff > float64(step)/2+1e-6 {
				t.Fatalf("dequantized [%d,%d] off by %.6f, step %.6f", k, j, diff, step)
			}
		}
	}
}

// TestQInt8ZeroInputs pins the degenerate cases: an all-zero activation row
// and an all-zero weight block both produce exact zeros.
func TestQInt8ZeroInputs(t *testing.T) {
	x := New(2, 64) // row 0 all zero
	for k := 0; k < 64; k++ {
		x.Set(1, k, float32(k%7)-3)
	}
	w := randomMatrix(64, 6, 13, 1)
	for k := 0; k < 64; k++ {
		w.Set(k, 2, 0) // channel 2 all zero
	}
	q := QuantizeInt8(w, 16)
	got := MatMulQ8(nil, x, q, nil)
	for j := 0; j < 6; j++ {
		if got.At(0, j) != 0 {
			t.Fatalf("zero activation row produced %v at column %d", got.At(0, j), j)
		}
	}
	if got.At(1, 2) != 0 {
		t.Fatalf("zero weight channel produced %v", got.At(1, 2))
	}
}

// TestMatMulQ8ShapePanics pins the dimension checks.
func TestMatMulQ8ShapePanics(t *testing.T) {
	w := randomMatrix(8, 3, 14, 1)
	q := QuantizeInt8(w, 8)
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("mismatched inner", func() { MatMulQ8(nil, New(2, 9), q, nil) })
	assertPanics("bad dst", func() { MatMulQ8(New(2, 2), New(2, 8), q, nil) })
}

// TestMatMulQ8Allocations pins the int8 kernel's zero-allocation steady
// state on a warmed workspace, for both the single-row decode shape and a
// small packed batch (shapes chosen under the parallel threshold so the
// count is machine-independent: the serial path allocates nothing, ever).
func TestMatMulQ8Allocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	w := randomMatrix(96, 48, 21, 1)
	q := QuantizeInt8(w, qInt8Block)
	decode := randomMatrix(1, 96, 22, 1)
	batch := randomMatrix(3, 96, 23, 1)
	ws := NewWorkspace()
	for _, x := range []*Matrix{decode, batch} {
		ws.Reset()
		MatMulQ8(ws.Get(x.Rows, q.Out), x, q, ws) // warm the arena
		allocs := testing.AllocsPerRun(100, func() {
			ws.Reset()
			MatMulQ8(ws.Get(x.Rows, q.Out), x, q, ws)
		})
		if allocs != 0 {
			t.Fatalf("MatMulQ8 on %d rows allocates %v times per op, want 0", x.Rows, allocs)
		}
	}
}

// BenchmarkMatMulQ8 vs BenchmarkMatMulBlockedFP32 compares the int8 kernel
// against the fp32 cache-blocked kernel on the packed-batch shape the serving
// path feeds them (tall activations against square weights). Each reports
// frac_of_peak: its operations a second (two per multiply-add) over
// BenchmarkPeak's matching ceiling at the same -cpu.
func benchmarkQ8(b *testing.B, m, in, out int) {
	x := randomMatrix(m, in, 1, 1)
	w := randomMatrix(in, out, 2, 1)
	q := QuantizeInt8(w, qInt8Block)
	ws := NewWorkspace()
	dst := New(m, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		MatMulQ8(dst, x, q, ws)
	}
	b.StopTimer()
	reportFracOfPeak(b, peakInt8, 2*float64(m*in*out))
}

func benchmarkFP32(b *testing.B, m, in, out int) {
	x := randomMatrix(m, in, 1, 1)
	w := randomMatrix(in, out, 2, 1)
	dst := New(m, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulBlocked(dst, x, w)
	}
	b.StopTimer()
	reportFracOfPeak(b, peakFP32, 2*float64(m*in*out))
}

func BenchmarkMatMulQ8Tall(b *testing.B)   { benchmarkQ8(b, 512, 128, 128) }
func BenchmarkMatMulFP32Tall(b *testing.B) { benchmarkFP32(b, 512, 128, 128) }
func BenchmarkMatMulQ8Row(b *testing.B)    { benchmarkQ8(b, 1, 96, 96) }
func BenchmarkMatMulFP32Row(b *testing.B)  { benchmarkFP32(b, 1, 96, 96) }

func BenchmarkMatMulQ8Small(b *testing.B)   { benchmarkQ8(b, 384, 40, 40) }
func BenchmarkMatMulFP32Small(b *testing.B) { benchmarkFP32(b, 384, 40, 40) }
func BenchmarkMatMulQ8Mid(b *testing.B)     { benchmarkQ8(b, 256, 96, 192) }
func BenchmarkMatMulFP32Mid(b *testing.B)   { benchmarkFP32(b, 256, 96, 192) }

func BenchmarkMatMulQ8Bert(b *testing.B)     { benchmarkQ8(b, 384, 48, 96) }
func BenchmarkMatMulFP32Bert(b *testing.B)   { benchmarkFP32(b, 384, 48, 96) }
func BenchmarkMatMulQ8Bert64(b *testing.B)   { benchmarkQ8(b, 384, 64, 128) }
func BenchmarkMatMulFP32Bert64(b *testing.B) { benchmarkFP32(b, 384, 64, 128) }

// TestMatMulQ8SaturationEdge runs the int8 kernel where a 16-bit pair sum of
// byte products is largest: every weight and activation code is ±127, with
// each channel's weight signs those of the activations (even channels) or
// their opposite (odd channels), so every product is ±127·127 and every pair
// of adjacent products sums to ±32 258, 509 short of int16's limit. A byte
// multiply-add that offsets the activations to unsigned bytes instead (up to
// 255·127 per product) saturates here. The shapes are the served In = 96 (a
// full 64-block and a 32-long tail) and 192 (three full blocks); both paths
// must match the integer reference bit for bit, and the reference must read
// ±In, the exact dot product of ±1 rows.
func TestMatMulQ8SaturationEdge(t *testing.T) {
	requireBitExactArch(t)
	defer func(was bool) { useAVX = was }(useAVX)
	for _, in := range []int{96, 192} {
		const rows, out = 3, 9
		x := New(rows, in)
		w := New(in, out)
		for k := 0; k < in; k++ {
			sign := float32(1)
			if (k*7+k/5)%3 == 0 {
				sign = -1
			}
			for i := 0; i < rows; i++ {
				x.Set(i, k, sign)
			}
			for j := 0; j < out; j++ {
				w.Set(k, j, sign*float32(1-2*(j%2)))
			}
		}
		q := QuantizeInt8(w, qInt8Block)
		for _, c := range q.Codes() {
			if c != 127 && c != -127 {
				t.Fatalf("In=%d: weight code %d, want ±127", in, c)
			}
		}
		want := refMatMulQ8(x, q)
		for i := 0; i < rows; i++ {
			for j := 0; j < out; j++ {
				exact := float64(in * (1 - 2*(j%2)))
				if got := float64(want.At(i, j)); math.Abs(got-exact) > 1e-3*float64(in) {
					t.Fatalf("In=%d: reference [%d,%d] = %v, want ≈ %v", in, i, j, got, exact)
				}
			}
		}
		for _, avx := range kernelPaths() {
			useAVX = avx
			if got := MatMulQ8(nil, x, q, nil); !got.Equal(want) {
				t.Fatalf("In=%d useAVX=%v: MatMulQ8 differs from the integer reference at the saturation edge", in, avx)
			}
			if got := MatMulQ8Pre(nil, QuantizeRowsQ8(x, q.Block, nil), q); !got.Equal(want) {
				t.Fatalf("In=%d useAVX=%v: MatMulQ8Pre differs from the integer reference at the saturation edge", in, avx)
			}
		}
	}
}

// TestMatMulQ8NonFiniteRows pins what an activation row holding NaN or ±Inf
// computes. Quantizing such an element converts a NaN (x·inv for a NaN x, or
// ∞·0 for an infinite one) to int32, which on amd64 yields MinInt32, and the
// code is its low byte, 0. So a NaN element counts as a zero activation (the
// row's scale comes from its finite elements: the absmax comparison is false
// for NaN), an all-NaN row computes +0 everywhere, and an infinite element
// makes the row's scale +Inf and every other code 0, so every output of its
// row is 0·∞ = NaN.
func TestMatMulQ8NonFiniteRows(t *testing.T) {
	requireBitExactArch(t)
	defer func(was bool) { useAVX = was }(useAVX)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, in := range []int{96, 50} {
		const out = 10
		q := QuantizeInt8(randomMatrix(in, out, 31, 0.5), qInt8Block)
		x := randomMatrix(6, in, 32, 1)
		zeroed := x.Clone()
		x.Set(0, 3, nan)
		x.Set(0, in-1, nan)
		zeroed.Set(0, 3, 0)
		zeroed.Set(0, in-1, 0)
		for k := 0; k < in; k++ {
			x.Set(1, k, nan)
			zeroed.Set(1, k, 0)
		}
		x.Set(2, in/2, inf)
		x.Set(3, 0, -inf)
		x.Set(4, 1, inf)
		x.Set(4, 2, nan)
		for _, avx := range kernelPaths() {
			useAVX = avx
			want := MatMulQ8(nil, zeroed, q, nil)
			for _, got := range []*Matrix{MatMulQ8(nil, x, q, nil), MatMulQ8Pre(nil, QuantizeRowsQ8(x, q.Block, nil), q)} {
				for j := 0; j < out; j++ {
					for _, i := range []int{0, 1, 5} {
						if math.Float32bits(got.At(i, j)) != math.Float32bits(want.At(i, j)) {
							t.Fatalf("In=%d useAVX=%v: row %d col %d = %v, want %v (NaN elements count as zero)", in, avx, i, j, got.At(i, j), want.At(i, j))
						}
					}
					if got.At(1, j) != 0 || math.Signbit(float64(got.At(1, j))) {
						t.Fatalf("In=%d useAVX=%v: all-NaN row col %d = %v, want +0", in, avx, j, got.At(1, j))
					}
					for _, i := range []int{2, 3, 4} {
						if v := got.At(i, j); v == v {
							t.Fatalf("In=%d useAVX=%v: row %d with an infinite element col %d = %v, want NaN", in, avx, i, j, v)
						}
					}
				}
			}
		}
	}
}

// TestQuantizeRowQ8Paths holds the activation quantizer's lanes
// (absmaxLanes, quantizeLanes) to its Go loops code for code and scale bit
// for bit, on rows of every length up to 40 (so each lane count and tail)
// holding NaN, ±Inf, ±0, subnormals, exact halves after scaling, and values
// near float32's range, where the scaled value overflows int32 and the code
// is the low byte of MinInt32.
func TestQuantizeRowQ8Paths(t *testing.T) {
	requireBitExactArch(t)
	if !avxDetected || !hasAVX2 {
		t.Skip("no AVX2 on this CPU/OS: the Go loops are the only path")
	}
	defer func(was bool) { useAVX = was }(useAVX)
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -3e-39, 63.5, -63.5, 127, -1.5, math.MaxFloat32, -1e30, 2.5}
	rng := NewRNG(41)
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 40; trial++ {
			row := make([]float32, n)
			for k := range row {
				if rng.Float64() < 0.3 {
					row[k] = specials[rng.Intn(len(specials))]
				} else {
					row[k] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
				}
			}
			// Some rows without the specials that make every code 0.
			if trial%2 == 0 {
				for k, v := range row {
					if math.IsInf(float64(v), 0) || v == math.MaxFloat32 || v == -1e30 {
						row[k] = 1
					}
				}
			}
			want, got := make([]int8, n), make([]int8, n)
			useAVX = false
			ws := quantizeRowQ8(row, want)
			useAVX = true
			gs := quantizeRowQ8(row, got)
			if math.Float32bits(gs) != math.Float32bits(ws) {
				t.Fatalf("n=%d row %v: lanes scale %v, Go loop %v", n, row, gs, ws)
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("n=%d row %v: lanes code[%d] = %d, Go loop %d", n, row, k, got[k], want[k])
				}
			}
		}
	}
}
