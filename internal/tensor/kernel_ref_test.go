package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// Bit-pattern pins for the fp32 kernels.
//
// Every kernel below promises one thing about its arithmetic: each output
// element accumulates over the reduction index in a fixed order, one rounded
// multiply and one rounded add per step. The reference copies in this file
// spell that order out as naive per-element loops; the table and sweep tests
// compare math.Float32bits of the production kernels against them, so a
// kernel rewrite that reassociates a sum, fuses a multiply-add, or reads a
// destination it should have overwritten fails here before it can move a
// model output.
//
// The comparison is exact except for NaN payloads: x86 ADDSS/MULSS return the
// payload of whichever NaN operand the register allocator put first, so two
// correct compilations of the same Go expression may disagree on the sign
// and payload of a NaN (never on whether the result is one).
//
// Go may fuse x*y+z into one rounding on arm64, ppc64 and s390x, where the
// reference and the kernel are free to be fused differently; the bit pins
// therefore run on amd64 (the CI and benchmark target) and the tolerance
// tests in strided_test.go keep covering the other ports.

func requireBitExactArch(t testing.TB) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-identity is asserted on amd64 only: the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
}

// canonBits is Float32bits with every NaN collapsed to one pattern.
func canonBits(v float32) uint32 {
	if v != v {
		return 0x7fc00000
	}
	return math.Float32bits(v)
}

func requireSameBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if canonBits(got.Data[i]) != canonBits(w) {
			t.Fatalf("%s: element [%d][%d] = %08x (%v), want %08x (%v)", name,
				i/want.Cols, i%want.Cols, math.Float32bits(got.Data[i]), got.Data[i], math.Float32bits(w), w)
		}
	}
}

// ---- reference kernels: today's seven fp32 matmuls, one element at a time ----

// refMatMul is the reference for MatMul and MatMulBlocked (the panel schedule
// never reorders one element's sum): Σ_c a[i][c]·b[c][j], c ascending, from +0.
func refMatMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for c := 0; c < a.Cols; c++ {
				s += a.At(i, c) * b.At(c, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// refTMatMul is aᵀ×b: Σ_r a[r][i]·b[r][j], r ascending, from +0.
func refTMatMul(a, b *Matrix) *Matrix {
	dst := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * b.At(r, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// refDot is the dot-form kernels' inner product: four interleaved partial
// sums, the remainder folded into the first, combined as (s0+s1)+(s2+s3).
func refDot(a []float32, ao int, b []float32, bo, w int) float32 {
	var s [4]float32
	full := w &^ 3
	for c := 0; c < full; c++ {
		s[c&3] += a[ao+c] * b[bo+c]
	}
	for c := full; c < w; c++ {
		s[0] += a[ao+c] * b[bo+c]
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// refMatMulT is a×bᵀ.
func refMatMulT(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			dst.Set(i, j, refDot(a.Data, i*a.Cols, b.Data, j*b.Cols, a.Cols))
		}
	}
	return dst
}

// The strided kernels' references are the microkernel references of
// kernel_edge_test.go over every row: refMatMulTStrided writes only dst
// columns [doff, doff+b.Rows), the other two only [doff, doff+w), and acc
// starts each sum from the destination's current value instead of +0.
func refMatMulTStrided(dst *Matrix, doff int, a *Matrix, aoff int, b *Matrix, boff, w int) {
	refDotRows(dst, doff, a, aoff, b, boff, w, 0, a.Rows)
}

func refMatMulStrided(dst *Matrix, doff int, a *Matrix, aoff, aw int, b *Matrix, boff, w int, acc bool) {
	refAxpyRows(dst, doff, a, aoff, false, b, boff, aw, w, acc, 0, a.Rows)
}

func refTMatMulStrided(dst *Matrix, doff int, a, b *Matrix, boff, w int) {
	refAxpyRows(dst, doff, a, 0, true, b, boff, a.Rows, w, false, 0, a.Cols)
}

// ---- inputs ----

// saltValues are the IEEE corner cases mixed into otherwise Gaussian inputs:
// signed zeros (+0 + -0 is where a skipped zero-init would show), infinities
// and NaN (Inf·0 and Inf−Inf must appear at the same step), and denormals.
var saltValues = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(1), math.Float32frombits(0x80000001), math.Float32frombits(0x007fffff),
	math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
}

func pinMatrix(rows, cols int, rng *RNG, salted bool) *Matrix {
	m := New(rows, cols)
	fillPin(m, rng, salted)
	return m
}

// fillPin overwrites m with Gaussian values, a fifth of them replaced by
// saltValues when salted.
func fillPin(m *Matrix, rng *RNG, salted bool) {
	Gaussian(m, 1, rng)
	if salted {
		for i := range m.Data {
			if rng.Intn(5) == 0 {
				m.Data[i] = saltValues[rng.Intn(len(saltValues))]
			}
		}
	}
}

// dirty returns a rows×cols matrix holding NaN everywhere: an assigning
// kernel that reads its destination, or misses an element, cannot match a
// finite reference, and a write outside the window shows as a changed NaN
// turning into a number.
func dirty(rows, cols int) *Matrix {
	m := New(rows, cols)
	m.Fill(float32(math.NaN()))
	return m
}

// ---- one shape through all seven kernels ----

// pinShape runs every fp32 matmul kernel at (rows, k, w) against its
// reference: rows is the output height, k the reduction length, w the output
// width. The strided kernels see windows at non-zero offsets inside wider
// matrices.
func pinShape(t *testing.T, rows, k, w int, seed uint64, salted bool) {
	t.Helper()
	rng := NewRNG(seed)
	name := func(kernel string) string {
		return fmt.Sprintf("%s rows=%d k=%d w=%d salted=%v procs=%d", kernel, rows, k, w, salted, runtime.GOMAXPROCS(0))
	}

	// Dense axpy-form: [rows,k]×[k,w], nil and dirty destinations.
	a, b := pinMatrix(rows, k, rng, salted), pinMatrix(k, w, rng, salted)
	want := refMatMul(a, b)
	requireSameBits(t, name("MatMul(nil)"), MatMul(nil, a, b), want)
	requireSameBits(t, name("MatMul(dirty)"), MatMul(dirty(rows, w), a, b), want)
	requireSameBits(t, name("MatMulBlocked(nil)"), MatMulBlocked(nil, a, b), want)
	requireSameBits(t, name("MatMulBlocked(dirty)"), MatMulBlocked(dirty(rows, w), a, b), want)

	// TMatMul: a is [k,rows] so the output is again rows×w.
	at := pinMatrix(k, rows, rng, salted)
	want = refTMatMul(at, b)
	requireSameBits(t, name("TMatMul(nil)"), TMatMul(nil, at, b), want)
	requireSameBits(t, name("TMatMul(dirty)"), TMatMul(dirty(rows, w), at, b), want)

	// Dense dot-form: [rows,k]×([w,k])ᵀ.
	bt := pinMatrix(w, k, rng, salted)
	want = refMatMulT(a, bt)
	requireSameBits(t, name("MatMulT(nil)"), MatMulT(nil, a, bt), want)
	requireSameBits(t, name("MatMulT(dirty)"), MatMulT(dirty(rows, w), a, bt), want)

	// Strided twins on windows inside wider, offset matrices.
	aoff, boff, doff := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
	pad := 1 + rng.Intn(4)

	// Scores: q window [rows,k] · key window [w,k]ᵀ into dst[:, doff:doff+w].
	qa := pinMatrix(rows, aoff+k+pad, rng, salted)
	kb := pinMatrix(w, boff+k+pad, rng, salted)
	got, wantD := dirty(rows, doff+w+pad), dirty(rows, doff+w+pad)
	MatMulTStrided(got, doff, qa, aoff, kb, boff, k)
	refMatMulTStrided(wantD, doff, qa, aoff, kb, boff, k)
	requireSameBits(t, name("MatMulTStrided"), got, wantD)

	// Values: prob window [rows,k] · value window [k,w]; b may have spare rows.
	pa := pinMatrix(rows, aoff+k+pad, rng, salted)
	vb := pinMatrix(k+pad, boff+w+pad, rng, salted)
	got, wantD = dirty(rows, doff+w+pad), dirty(rows, doff+w+pad)
	MatMulStrided(got, doff, pa, aoff, k, vb, boff, w)
	refMatMulStrided(wantD, doff, pa, aoff, k, vb, boff, w, false)
	requireSameBits(t, name("MatMulStrided"), got, wantD)

	// Accumulate on top of a finite (salted) destination.
	base := pinMatrix(rows, doff+w+pad, rng, salted)
	got, wantD = base.Clone(), base.Clone()
	MatMulStridedAcc(got, doff, pa, aoff, k, vb, boff, w)
	refMatMulStrided(wantD, doff, pa, aoff, k, vb, boff, w, true)
	requireSameBits(t, name("MatMulStridedAcc"), got, wantD)

	// Backward: dense [k,rows]ᵀ · window [k,w].
	db := pinMatrix(k, boff+w+pad, rng, salted)
	got, wantD = dirty(rows, doff+w+pad), dirty(rows, doff+w+pad)
	TMatMulStrided(got, doff, at, db, boff, w)
	refTMatMulStrided(wantD, doff, at, db, boff, w)
	requireSameBits(t, name("TMatMulStrided"), got, wantD)
}

// withProcs runs fn under GOMAXPROCS(procs): 1 pins the serial branch of
// every kernel whatever the shape, 3 takes the parallel branch with uneven
// row chunks wherever the shape is worth fanning out.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

func TestKernelsMatchReferenceBits(t *testing.T) {
	requireBitExactArch(t)
	eachKernelPath(t, pinTable)
}

func pinTable(t *testing.T) {
	ks := []int{1, 3, 4, 5, 47, 48, 96, 129, 192}
	ws := []int{1, 12, 24, 47, 48, 96}
	rowss := []int{1, 2, 7, 64, 257}
	table := func() {
		seed := uint64(1)
		for _, rows := range rowss {
			for _, k := range ks {
				for _, w := range ws {
					pinShape(t, rows, k, w, seed, false)
					pinShape(t, rows, k, w, seed+1, true)
					seed += 2
				}
			}
		}
	}
	if !testing.Short() && !raceEnabled {
		withProcs(3, table)
	}
	// The reduced table still crosses every unroll remainder (k mod 4), an
	// odd width and, at 513 rows by 48 or 129 by 47, the parallel threshold.
	ks, ws, rowss = []int{1, 3, 5, 48, 129}, []int{1, 12, 47}, []int{1, 7, 513}
	withProcs(1, table)
	withProcs(3, table)
}

func TestKernelsMatchReferenceBitsRandomShapes(t *testing.T) {
	requireBitExactArch(t)
	eachKernelPath(t, pinRandomShapes)
}

func pinRandomShapes(t *testing.T) {
	cases := 500
	if testing.Short() || raceEnabled {
		cases = 60
	}
	rng := NewRNG(20260925)
	for c := 0; c < cases; c++ {
		rows, k, w := 1+rng.Intn(40), 1+rng.Intn(200), 1+rng.Intn(100)
		if rng.Intn(12) == 0 {
			// Large enough for the parallel branch: at least 260·64·64 > 1<<20.
			rows, k, w = 260+rng.Intn(130), 64+rng.Intn(136), 64+rng.Intn(36)
		}
		withProcs(1+2*(c%2), func() {
			pinShape(t, rows, k, w, rng.Uint64(), rng.Intn(3) == 0)
		})
	}
}

// ---- exp / tanh / fused softmax ----

// refExpFast32 is ExpFast32 as it stood before the polynomial core was split
// out for inlining: same operations, same order.
func refExpFast32(x float32) float32 {
	if x != x {
		return x
	}
	if x <= -87.33655 {
		return 0
	}
	if x >= 88.72283 {
		return float32(math.Inf(1))
	}
	t := x * expLog2E
	var n int32
	if t >= 0 {
		n = int32(t + 0.5)
	} else {
		n = int32(t - 0.5)
	}
	fn := float32(n)
	f := (x - fn*expLn2Hi) - fn*expLn2Lo
	p := float32(1.0 / 720)
	p = p*f + 1.0/120
	p = p*f + 1.0/24
	p = p*f + 1.0/6
	p = p*f + 0.5
	p = p*f + 1
	p = p*f + 1
	if n >= 128 {
		return p * math.Float32frombits(254<<23) * 2
	}
	return p * math.Float32frombits(uint32(n+127)<<23)
}

func refTanhFast32(x float32) float32 {
	if x != x {
		return x
	}
	if x >= 10 {
		return 1
	}
	if x <= -10 {
		return -1
	}
	e := refExpFast32(2 * x)
	return (e - 1) / (e + 1)
}

// refGELU is nn's geluScalar on the reference tanh.
func refGELU(v float32) float32 {
	return 0.5 * v * (1 + refTanhFast32(refGELUArg(v)))
}

// refGELUArg is the tanh argument of refGELU: √(2/π)·(v + 0.044715·v³).
func refGELUArg(v float32) float32 {
	return float32(0.7978845608028654) * (v + 0.044715*v*v*v)
}

func refScaledMaskedRowSoftmax(m *Matrix, scale float32, past int, causal bool) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		lim := m.Cols
		if causal && past+i+1 < lim {
			lim = past + i + 1
		}
		valid := row[:lim]
		maxv := scale * valid[0]
		for _, v := range valid[1:] {
			if sv := scale * v; sv > maxv {
				maxv = sv
			}
		}
		var sum float32
		for j, v := range valid {
			e := refExpFast32(scale*v - maxv)
			valid[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range valid {
			valid[j] *= inv
		}
		for j := lim; j < m.Cols; j++ {
			row[j] = 0
		}
	}
}

// checkExpTanhBits holds the four consumers of the exp polynomial to their
// references on one buffer of inputs: ExpFast32 and TanhFast32 one value at
// a time, GELU over the whole buffer, and the fused softmax's exponential
// pass over the buffer's non-positive mirror (−|x|, NaN kept; scale 1 and
// row maximum 0 leave the argument as it is), which is the domain that pass
// is defined on.
func checkExpTanhBits(t *testing.T, xs []float32) {
	t.Helper()
	for _, x := range xs {
		if got, want := ExpFast32(x), refExpFast32(x); canonBits(got) != canonBits(want) {
			t.Fatalf("ExpFast32(%08x = %v) = %08x, want %08x", math.Float32bits(x), x, math.Float32bits(got), math.Float32bits(want))
		}
		if got, want := TanhFast32(x), refTanhFast32(x); canonBits(got) != canonBits(want) {
			t.Fatalf("TanhFast32(%08x = %v) = %08x, want %08x", math.Float32bits(x), x, math.Float32bits(got), math.Float32bits(want))
		}
	}
	out := make([]float32, len(xs))
	GELU(out, xs)
	for i, x := range xs {
		if want := refGELU(x); canonBits(out[i]) != canonBits(want) {
			t.Fatalf("GELU(%08x = %v) = %08x, want %08x (element %d of %d, useAVX=%v)", math.Float32bits(x), x, math.Float32bits(out[i]), math.Float32bits(want), i, len(xs), useAVX)
		}
	}
	for i, x := range xs {
		out[i] = x
		if x > 0 {
			out[i] = -x
		}
	}
	neg := append([]float32(nil), out...)
	softmaxExp(out, 1, 0)
	for i, x := range neg {
		if want := refExpFast32(x); canonBits(out[i]) != canonBits(want) {
			t.Fatalf("softmaxExp(%08x = %v) = %08x, want %08x (element %d of %d, useAVX=%v)", math.Float32bits(x), x, math.Float32bits(out[i]), math.Float32bits(want), i, len(xs), useAVX)
		}
	}
}

// TestExpTanhFast32MatchReferenceBits walks every 257th float32 bit pattern
// (≈16.7 M values: every exponent, both signs, NaNs, infinities, denormals)
// through ExpFast32, TanhFast32, GELU and the softmax's exponential pass and
// their reference copies, on both kernel paths. The buffer length is odd so
// that the lanes' masked tail sees the sweep too.
func TestExpTanhFast32MatchReferenceBits(t *testing.T) {
	requireBitExactArch(t)
	if testing.Short() || raceEnabled {
		t.Skip("16.7M-value sweep; skipped under -short and -race")
	}
	eachKernelPath(t, func(t *testing.T) {
		xs := make([]float32, 0, 4099)
		for bits := uint64(0); bits < 1<<32; bits += 257 {
			xs = append(xs, math.Float32frombits(uint32(bits)))
			if len(xs) == cap(xs) || bits+257 >= 1<<32 {
				checkExpTanhBits(t, xs)
				xs = xs[:0]
			}
		}
	})
}

// TestExpTanhFast32MatchReferenceBitsEdges is the part of the sweep cheap
// enough for -short and -race: the range-check boundaries and their
// neighbours, where a split of range handling from the polynomial could slip.
// ±5.0105 and ±5.4 are where GELU's tanh argument crosses ±10 and ±12.
func TestExpTanhFast32MatchReferenceBitsEdges(t *testing.T) {
	requireBitExactArch(t)
	edges := []float32{0, float32(math.Copysign(0, -1)), -87.33655, 88.72283, 88.0297, 88.3763, 10, -10, 5, -5, 20, -20,
		geluSaturation(), -geluSaturation(), 5.4, -5.4,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32}
	eachKernelPath(t, func(t *testing.T) {
		for _, e := range edges {
			b := math.Float32bits(e)
			xs := make([]float32, 0, 129)
			for d := -64; d <= 64; d++ {
				xs = append(xs, math.Float32frombits(b+uint32(d)))
			}
			checkExpTanhBits(t, xs)
		}
	})
}

// geluSaturation returns the smallest positive input whose tanh argument
// reaches 10, where TanhFast32 starts returning exactly 1: the input-side
// position of GELU's saturation branch.
func geluSaturation() float32 {
	lo, hi := math.Float32bits(1), math.Float32bits(10) // positive floats order as their bits
	for lo < hi {
		mid := lo + (hi-lo)/2
		if refGELUArg(math.Float32frombits(mid)) >= 10 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float32frombits(lo)
}

func TestScaledMaskedRowSoftmaxMatchesReferenceBits(t *testing.T) {
	requireBitExactArch(t)
	eachKernelPath(t, func(t *testing.T) {
		for _, procs := range []int{1, 3} {
			withProcs(procs, func() { pinSoftmax(t) })
		}
	})
}

// TestGELUMatchesReferenceBits runs GELU at the served activation shapes (a
// packed bert batch, a mistral chunk), at lengths around one lane group and
// one 4096-element assembly call, out of place and in place, on Gaussian
// inputs scaled past the saturation point with IEEE corner cases salted in.
func TestGELUMatchesReferenceBits(t *testing.T) {
	requireBitExactArch(t)
	eachKernelPath(t, func(t *testing.T) {
		rng := NewRNG(2020)
		for _, n := range []int{0, 1, 7, 8, 9, 27 * 96, 4095, 4096, 4097, 2*4096 + 5, 1024 * 192, 1728 * 96} {
			src := pinMatrix(1, n, rng, true)
			for i := range src.Data {
				src.Data[i] *= 4
			}
			want := make([]float32, n)
			for i, v := range src.Data {
				want[i] = refGELU(v)
			}
			wantM := &Matrix{Rows: 1, Cols: n, Data: want}
			got := dirty(1, n)
			GELU(got.Data, src.Data)
			requireSameBits(t, fmt.Sprintf("GELU n=%d", n), got, wantM)
			GELU(src.Data, src.Data)
			requireSameBits(t, fmt.Sprintf("GELU in place n=%d", n), src, wantM)
		}
	})
}

// pinSoftmax compares the fused softmax against its reference over the
// served score shapes, causal and not, at the current GOMAXPROCS.
func pinSoftmax(t *testing.T) {
	t.Helper()
	rng := NewRNG(77)
	for _, shape := range [][2]int{{1, 1}, {1, 27}, {7, 7}, {27, 27}, {32, 352}, {300, 96}, {1400, 200}} {
		for _, causal := range []bool{false, true} {
			rows, cols := shape[0], shape[1]
			past := 0
			if causal && cols > rows {
				past = cols - rows
			}
			for _, scale := range []float32{1, 0.2886751, 0.2041241, 40} {
				got := pinMatrix(rows, cols, rng, false)
				// A few scores far below the row maximum reach the
				// underflow-to-zero branch.
				for i := 0; i < len(got.Data); i += 11 {
					got.Data[i] -= 200
				}
				if scale == 40 && rows > 1 {
					// Non-finite scores: −Inf is the conventional mask
					// value, NaN and +Inf must poison their row.
					got.Data[0] = float32(math.Inf(-1))
					got.Data[cols] = float32(math.NaN())
					got.Data[len(got.Data)-1] = float32(math.Inf(1))
				}
				want := got.Clone()
				ScaledMaskedRowSoftmax(got, scale, past, causal)
				refScaledMaskedRowSoftmax(want, scale, past, causal)
				requireSameBits(t, fmt.Sprintf("softmax %dx%d causal=%v scale=%v", rows, cols, causal, scale), got, want)
			}
		}
	}
}

// TestKernelsPanicOnAliasedDst: every kernel overwrites dst while it still
// reads its inputs, so a destination that is one of them must be refused
// rather than silently computed from half-overwritten rows.
func TestKernelsPanicOnAliasedDst(t *testing.T) {
	a, b := randMatrix(4, 4, 1), randMatrix(4, 4, 2)
	for name, fn := range map[string]func(){
		"MatMul dst=a":           func() { MatMul(a, a, b) },
		"MatMul dst=b":           func() { MatMul(b, a, b) },
		"MatMulBlocked dst=a":    func() { MatMulBlocked(a, a, b) },
		"MatMulBlocked dst=b":    func() { MatMulBlocked(b, a, b) },
		"MatMulT dst=a":          func() { MatMulT(a, a, b) },
		"MatMulT dst=b":          func() { MatMulT(b, a, b) },
		"TMatMul dst=a":          func() { TMatMul(a, a, b) },
		"TMatMul dst=b":          func() { TMatMul(b, a, b) },
		"MatMulTStrided dst=a":   func() { MatMulTStrided(a, 0, a, 0, b, 0, 4) },
		"MatMulTStrided dst=b":   func() { MatMulTStrided(b, 0, a, 0, b, 0, 4) },
		"MatMulStrided dst=a":    func() { MatMulStrided(a, 0, a, 0, 4, b, 0, 4) },
		"MatMulStrided dst=b":    func() { MatMulStrided(b, 0, a, 0, 4, b, 0, 4) },
		"MatMulStridedAcc dst=a": func() { MatMulStridedAcc(a, 0, a, 0, 4, b, 0, 4) },
		"MatMulStridedAcc dst=b": func() { MatMulStridedAcc(b, 0, a, 0, 4, b, 0, 4) },
		"TMatMulStrided dst=a":   func() { TMatMulStrided(a, 0, a, b, 0, 4) },
		"TMatMulStrided dst=b":   func() { TMatMulStrided(b, 0, a, b, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			fn()
		}()
	}
	// The same operand on both input sides is fine: nothing is written to it.
	MatMulT(nil, a, a)
	MatMulTStrided(New(4, 4), 0, a, 0, a, 0, 4)
}
