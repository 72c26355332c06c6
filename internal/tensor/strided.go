package tensor

import (
	"fmt"
	"math"
)

// Strided attention kernels.
//
// Multi-head attention addresses head h of a row-major [T, dModel] activation
// matrix as the column window [h·dh, (h+1)·dh). The kernels below operate
// directly on such windows — a (matrix, column-offset, width) triple — so
// attention heads are views into the projection matrices rather than per-head
// copies. Combined with a Workspace (workspace.go) for the score buffers this
// makes the steady-state inference path allocation- and copy-free.
//
// Accumulation order over the reduction dimension is strictly increasing in
// every kernel, exactly as in MatMul/MatMulT/TMatMul, so results are bitwise
// identical to running the dense kernels on materialized head copies.

// MatMulTStrided computes the cross product of two column windows without
// materializing either: for every row i of a and row j of b,
//
//	dst[i][doff+j] = Σ_{c<w} a[i][aoff+c] · b[j][boff+c]
//
// a's window is [a.Rows, w] starting at column aoff, b's is [b.Rows, w] at
// boff; the result lands in dst columns [doff, doff+b.Rows). This is the
// qh·khᵀ score kernel: with dst a [Tq, Tpast+Tq] score matrix, doff selects
// the past-key or current-key block.
func MatMulTStrided(dst *Matrix, doff int, a *Matrix, aoff int, b *Matrix, boff, w int) {
	if aoff < 0 || aoff+w > a.Cols || boff < 0 || boff+w > b.Cols {
		panic(fmt.Sprintf("tensor: matmulT strided window [%d,+%d) of %d cols × [%d,+%d) of %d cols", aoff, w, a.Cols, boff, w, b.Cols))
	}
	if dst.Rows != a.Rows || doff < 0 || doff+b.Rows > dst.Cols {
		panic(fmt.Sprintf("tensor: matmulT strided dst %dx%d cannot hold %dx%d at col %d", dst.Rows, dst.Cols, a.Rows, b.Rows, doff))
	}
	mustNotAlias("matmulT strided", dst, a, b)
	dotMatMul(dst, doff, a, aoff, b, boff, a.Rows, w)
}

// MatMulStrided multiplies a column window of a against a column window of b,
// assigning into a column window of dst:
//
//	dst[i][doff+j] = Σ_{c<aw} a[i][aoff+c] · b[c][boff+j]   (j < w)
//
// a's window is [a.Rows, aw] at column aoff, b's is [aw, w] at boff. This is
// the probs·vh output kernel: probs live in a (possibly wider) score matrix
// and the result lands directly in the concat matrix's head window.
func MatMulStrided(dst *Matrix, doff int, a *Matrix, aoff, aw int, b *Matrix, boff, w int) {
	matMulStrided(dst, doff, a, aoff, aw, b, boff, w, false)
}

// MatMulStridedAcc is MatMulStrided that accumulates into dst instead of
// assigning — the strided accumulate store used to add the current-chunk
// attention output on top of the cached-prefix contribution.
func MatMulStridedAcc(dst *Matrix, doff int, a *Matrix, aoff, aw int, b *Matrix, boff, w int) {
	matMulStrided(dst, doff, a, aoff, aw, b, boff, w, true)
}

func matMulStrided(dst *Matrix, doff int, a *Matrix, aoff, aw int, b *Matrix, boff, w int, acc bool) {
	if aoff < 0 || aoff+aw > a.Cols || boff < 0 || boff+w > b.Cols || aw > b.Rows {
		panic(fmt.Sprintf("tensor: matmul strided window [%d,+%d) of %d cols × %dx[%d,+%d)", aoff, aw, a.Cols, b.Rows, boff, w))
	}
	if dst.Rows != a.Rows || doff < 0 || doff+w > dst.Cols {
		panic(fmt.Sprintf("tensor: matmul strided dst %dx%d cannot hold %dx%d at col %d", dst.Rows, dst.Cols, a.Rows, w, doff))
	}
	mustNotAlias("matmul strided", dst, a, b)
	axpyMatMul(dst, doff, a, aoff, false, b, boff, a.Rows, aw, w, acc)
}

// TMatMulStrided computes aᵀ times a column window of b, assigning into a
// column window of dst:
//
//	dst[i][doff+j] = Σ_{r<a.Rows} a[r][i] · b[r][boff+j]   (i < a.Cols, j < w)
//
// a is dense [k, n]; b's window is [k, w] at column boff. This is the
// backward-pass probsᵀ·dOut kernel, writing per-head gradients directly into
// the packed dV/dK head window.
func TMatMulStrided(dst *Matrix, doff int, a *Matrix, b *Matrix, boff, w int) {
	if a.Rows != b.Rows || boff < 0 || boff+w > b.Cols {
		panic(fmt.Sprintf("tensor: tmatmul strided (%dx%d)ᵀ × %dx[%d,+%d)", a.Rows, a.Cols, b.Rows, boff, w))
	}
	if dst.Rows != a.Cols || doff < 0 || doff+w > dst.Cols {
		panic(fmt.Sprintf("tensor: tmatmul strided dst %dx%d cannot hold %dx%d at col %d", dst.Rows, dst.Cols, a.Cols, w, doff))
	}
	mustNotAlias("tmatmul strided", dst, a, b)
	axpyMatMul(dst, doff, a, 0, true, b, boff, a.Cols, a.Rows, w, false)
}

// ScaledMaskedRowSoftmax fuses the three per-row passes of attention-score
// normalization — scale by `scale`, causal masking, softmax — into one kernel
// using the float32 fast exponential (expReduce).
//
// Row i's valid window is columns [0, lim) with lim = past+i+1 when causal
// (the row's query position attends all `past` cached keys plus current keys
// 0..i) and lim = m.Cols otherwise. The window receives softmax(scale·row);
// columns at and beyond lim are set to exactly 0, so masked positions never
// materialize a -Inf score and downstream A·V products see clean zeros.
//
// A score counts as four units of parallelThreshold, so rows fan out from
// 262 144 scores: set on the scalar exponential and kept after re-measuring
// with the lane kernels at 1400×200 and its halves (docs/PERFORMANCE.md,
// PR 20). No served score matrix comes near it.
func ScaledMaskedRowSoftmax(m *Matrix, scale float32, past int, causal bool) {
	if !parallelWorth(m.Rows, m.Cols*4) {
		scaledMaskedRowSoftmaxRows(m, scale, past, causal, 0, m.Rows)
		return
	}
	parallelRows(m.Rows, m.Cols*4, func(lo, hi int) {
		scaledMaskedRowSoftmaxRows(m, scale, past, causal, lo, hi)
	})
}

func scaledMaskedRowSoftmaxRows(m *Matrix, scale float32, past int, causal bool, lo, hi int) {
	if m.Cols == 0 {
		return // an r×0 matrix has no scores: nothing to read a row maximum from
	}
	// Rows go four at a time from lo, so that their sums can be interleaved.
	// Every output row is a function of its own scores alone, whatever the
	// group it falls in (TestSoftmaxRowsMatchRowAlone).
	for i := lo; i < hi; i += 4 {
		var valid [4][]float32
		n := min(4, hi-i)
		for r := 0; r < n; r++ {
			lim := m.Cols
			if causal && past+i+r+1 < lim {
				lim = past + i + r + 1
			}
			valid[r] = m.Row(i + r)[:lim]
			softmaxExp(valid[r], scale, rowMax(valid[r], scale))
		}
		sums := rowSums(&valid, n)
		for r := 0; r < n; r++ {
			scaleRow(valid[r], 1/sums[r])
			clear(m.Row(i + r)[len(valid[r]):])
		}
	}
}

// rowMax is the fused softmax's row maximum: the largest scale·v over a
// non-empty row, from scale·row[0] up by >, so that a NaN in row[0] is the
// result and any later NaN is skipped. With useLanes it is rowMaxLanes, whose
// lanes keep that rule.
func rowMax(row []float32, scale float32) float32 {
	if useLanes() {
		return rowMaxLanes(&row[0], len(row), scale)
	}
	maxv := scale * row[0]
	for _, v := range row[1:] {
		if sv := scale * v; sv > maxv {
			maxv = sv
		}
	}
	return maxv
}

// rowSums returns the sum of each of the first n rows, each added left to
// right from +0: the order a single row's loop adds in, so the bits are that
// loop's. A lone chain of adds waits on each add's latency; four rows' chains
// step through their common length together, so the four run side by side,
// and each row then finishes its own tail. A causal window is one column
// wider each row, so the tails are at most three columns.
func rowSums(rows *[4][]float32, n int) (sums [4]float32) {
	common := 0
	if n == 4 {
		common = min(len(rows[0]), len(rows[1]), len(rows[2]), len(rows[3]))
		a, b, c, d := rows[0][:common], rows[1][:common], rows[2][:common], rows[3][:common]
		var s0, s1, s2, s3 float32
		for j, v := range a {
			s0 += v
			s1 += b[j]
			s2 += c[j]
			s3 += d[j]
		}
		sums = [4]float32{s0, s1, s2, s3}
	}
	for r := 0; r < n; r++ {
		s := sums[r]
		for _, v := range rows[r][common:] {
			s += v
		}
		sums[r] = s
	}
	return sums
}

// softmaxExp is the fused softmax's exponential pass over one row's valid
// window: row[j] = e^(scale·row[j] − maxv), exactly 0 at and below
// expUnderflow. With useLanes it is softmaxExpLanes, eight columns at a time.
// A row of scores goes down in one call: the widest served row, 352 keys, is
// a fifth of a microsecond there.
func softmaxExp(row []float32, scale, maxv float32) {
	if useLanes() && len(row) > 0 {
		softmaxExpLanes(&row[0], len(row), scale, maxv)
		return
	}
	for j, v := range row {
		// scale·v − max is never positive: of a full exponential's range
		// checks (NaN, underflow, overflow) only the underflow one can
		// trigger, the rounding offset is always −0.5, and the rest inlines.
		// The test is written so that a NaN score falls through expReduce
		// and poisons its row.
		var e float32
		if x := scale*v - maxv; !(x <= expUnderflow) {
			p, n := expReduce(x, -0.5)
			e = p * pow2(n)
		}
		row[j] = e
	}
}

// scaleRow multiplies row by s in place: the fused softmax's final pass, and
// scaleLanes with useLanes.
func scaleRow(row []float32, s float32) {
	if useLanes() && len(row) > 0 {
		scaleLanes(&row[0], len(row), s)
		return
	}
	for j := range row {
		row[j] *= s
	}
}

// Fast float32 exponential constants: e^x = 2^n · e^f with n = round(x·log₂e)
// and f = x - n·ln2 reduced via a two-part ln2 so the reduction itself costs
// no precision. |f| ≤ ln2/2 ≈ 0.3466, where the degree-6 Taylor polynomial's
// truncation error (f⁷/5040 ≈ 3e-7 relative) sits below float32 rounding
// noise; the measured error against float64 math.Exp is pinned by
// TestExpFast32Tolerance.
const (
	expLog2E float32 = 1.4426950408889634
	expLn2Hi float32 = 6.9314575195e-01
	expLn2Lo float32 = 1.4286067653e-06
)

// expUnderflow is the largest input whose exponential is flushed to exactly 0.
const expUnderflow = -87.33655

// expReduce is the fast exponential's range reduction and polynomial:
// e^x = p·2^n for a finite x in (expUnderflow, 88.72283), with n < 128 below
// x ≈ 88.37. It holds no range handling so that it inlines into callers that
// have already bounded x (the fused softmax, TanhFast32); the tests wrap it
// in that handling as expFast32 to pin its error against math.Exp.
//
// half is 0.5 with x's sign, so that n = trunc(x·log₂e + half) rounds half
// away from zero: signedHalf(x) in general, the constant where the caller
// knows the sign. Selecting it from the sign bit instead of branching on it
// matters to GELU, whose mixed-sign inputs mispredicted the branch.
func expReduce(x, half float32) (p float32, n int32) {
	n = int32(x*expLog2E + half)
	fn := float32(n)
	f := (x - fn*expLn2Hi) - fn*expLn2Lo
	// Degree-6 Taylor polynomial in Horner form, one rounded multiply and one
	// rounded add per step (a single expression keeps the function within
	// the inliner's budget).
	return (((((1.0/720*f+1.0/120)*f+1.0/24)*f+1.0/6)*f+0.5)*f+1)*f + 1, n
}

// signedHalf returns 0.5 with x's sign bit.
func signedHalf(x float32) float32 {
	return math.Float32frombits(0x3f000000 | math.Float32bits(x)&0x80000000)
}

// pow2 returns 2^n for n in [-126, 127].
func pow2(n int32) float32 { return math.Float32frombits(uint32(n+127) << 23) }

// TanhFast32 approximates tanh(x) in pure float32 arithmetic via the fast
// exponential: tanh(x) = (e^{2x} − 1)/(e^{2x} + 1). Relative error tracks
// the fast exponential's (~1e-6, pinned by TestTanhFast32Tolerance); |x| ≥ 10 saturates
// to ±1 exactly (float32 tanh rounds to ±1 from |x| ≈ 9.01). It replaces
// float64 math.Tanh in the GELU activation, where the conversion round trip
// and float64 exp dominated the activation's cost.
func TanhFast32(x float32) float32 {
	if x != x { // NaN propagates
		return x
	}
	if x >= 10 {
		return 1
	}
	if x <= -10 {
		return -1
	}
	// |2x| < 20 needs none of the exponential's range handling.
	p, n := expReduce(2*x, signedHalf(x))
	e := p * pow2(n)
	return (e - 1) / (e + 1)
}

// √(2/π) and the cubic coefficient of the tanh approximation of GELU.
const (
	geluC     float32 = 0.7978845608028654
	geluCubic float32 = 0.044715
)

// GELU writes the tanh-approximation GELU of every element of src to dst, in
// pure float32 on the fast tanh:
//
//	dst[i] = 0.5·v·(1 + TanhFast32(√(2/π)·(v + 0.044715·v³))),  v = src[i]
//
// with v³ taken as ((0.044715·v)·v)·v. dst and src must have the same length
// and may be the same slice. Training's forward and inference both run this
// one function, so the batched, sequential and backward paths stay mutually
// consistent; with useLanes it is geluLanes, eight elements at a time, and
// the same bits.
func GELU(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: gelu dst has %d elements, src %d", len(dst), len(src)))
	}
	if useLanes() {
		// A whole activation matrix arrives in one slice, and the assembly
		// has no preemption point: 4096 elements a call are microseconds.
		for len(src) > 0 {
			n := min(len(src), 4096)
			d, c := dst[:n], src[:n]
			geluLanes(&d[0], &c[0], n)
			dst, src = dst[n:], src[n:]
		}
		return
	}
	for i, v := range src {
		dst[i] = geluScalar(v)
	}
}

func geluScalar(v float32) float32 {
	t := TanhFast32(geluC * (v + geluCubic*v*v*v))
	return 0.5 * v * (1 + t)
}

// MatMulOneHotRows computes a×b for an `a` whose rows are mostly zero — the
// sparse-rows kernel that inherited the skip-zero branch removed from the
// dense MatMul/TMatMul inner loops. For a one-hot `a` each output row is a
// single gather of a row of b, which is exactly what the embedding layer's
// table lookup computes directly (Embedding.Infer is the id-indexed
// specialization of this kernel); the row-normalized GCN adjacency product is
// the general sparse-rows case.
func MatMulOneHotRows(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst == nil {
		dst = New(a.Rows, b.Cols)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Cols {
			panic(fmt.Sprintf("tensor: matmul dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
		}
		if dst == a || dst == b {
			panic("tensor: matmul dst must not alias an input")
		}
		dst.Zero()
	}
	n, k, p := a.Rows, a.Cols, b.Cols
	parallelRows(n, k*p, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar := a.Data[i*k : (i+1)*k]
			dr := dst.Data[i*p : (i+1)*p]
			for kk, av := range ar {
				if av == 0 {
					continue
				}
				br := b.Data[kk*p : (kk+1)*p]
				for j, bv := range br {
					dr[j] += av * bv
				}
			}
		}
	})
	return dst
}
