package tensor

// The two fp32 microkernels every matmul in this package runs on, written as
// the arithmetic contract any implementation of them must obey; the
// elementwise kernels' contract closes the header.
//
// Each output element is produced by a fixed sequence of IEEE-754 binary32
// operations: every product is rounded on its own and every sum is rounded on
// its own (never a fused multiply-add, which rounds once), and the adds of one
// element happen in the order spelled out below — reduction index ascending
// from +0 or from the destination's current value in the axpy form; four
// interleaved partial sums combined as (s0+s1)+(s2+s3) in the dot form. Which
// elements are computed side by side, and in what order across elements, is
// free. That freedom is all that register blocking along the reduction index
// (the Go loops here) and SIMD lanes across independent elements
// (kernel_amd64.s, used when useAVX) take, so both produce the bits a naive
// per-element loop produces; kernel_ref_test.go and kernel_edge_test.go pin
// that on amd64 for both, with one caveat: when several operands are NaN,
// which one's sign and payload survives depends on operand order inside an
// instruction, so NaN results agree in being NaN, not in payload. Other ports
// may fuse x*y+z in the Go loops and are covered by tolerance tests.
//
// The Go loops are scalar code (the gc compiler does not vectorize) and their
// speed is set by loads and stores per multiply-add; they are the only
// implementation off amd64 and on CPUs without AVX, and the reference the
// assembly is tested against.
//
// The elementwise kernels — GELU and the fused softmax's exponential and
// scaling passes in strided.go, the add under Add and AddRowVec in
// matrix.go — are under the same contract with nothing to reorder: an output
// element is one fixed expression of its own input (geluScalar; expReduce,
// then p·pow2(n), or 0 at and below expUnderflow; v·s; a+b), each multiply,
// add, subtract and divide rounded on its own in the order Go evaluates the
// expression, the float-to-int conversion truncating. The Go loops branch
// per element on the range checks (|u| ≥ 10, x ≤ expUnderflow, NaN); the
// lanes of exp_amd64.s compute every element through the polynomial and then
// select, which is the same value element by element. The softmax's two
// reductions keep the bits of the scalar loops that define them without
// keeping their order of work. The row maximum (rowMax) does not depend on
// the order its values are taken in, so lanes take it, under the loop's NaN
// rule; a tie between +0 and −0 moves no output bit. The row sum (rowSums)
// stays one left-to-right chain of adds per row on every path: lanes would
// fold it in another order, so four rows' chains run side by side instead.

// useLanes routes GELU, the fused softmax's row maximum and elementwise
// passes, and the adds to the eight-lane routines in exp_amd64.s: useAVX,
// and AVX2 for the 256-bit integer add and shift that build 2^n. The Go
// loops are the only other path.
func useLanes() bool { return useAVX && hasAVX2 }

// axpyRowBlock is how many output rows the axpy-form kernel carries through
// the whole reduction together: 32 rows of a 192-wide float32 destination are
// 24 KiB, so the block stays in L1 while each group of b rows is applied. It
// also bounds the time spent in one assembly call, which has no preemption
// point: one reduction group over one block is microseconds at most.
const axpyRowBlock = 32

// axpyRows is the axpy-form ("i-k-j") microkernel behind MatMul,
// MatMulBlocked, TMatMul and the MatMulStrided/TMatMulStrided windows. For
// output rows i in [lo, hi) it computes
//
//	dst[i][doff+j] (=|+=) Σ_{c<k} A(i,c) · b[c][boff+j]      (j < w)
//
// with A(i,c) = a[i][aoff+c], or a[c][i] when aT (aᵀ×b without a transpose).
// acc selects += onto the destination's current values.
//
// Four reduction steps are folded into each pass over a destination row:
// the running value is loaded once, takes four multiply-adds in increasing c
// (Go evaluates the statements in order, so the sum is associated exactly as
// the one-step loop associates it), and is stored once — a quarter of the
// destination traffic of the plain loop, which was store-bound. Rows are
// taken axpyRowBlock at a time with the reduction loop outside the row loop,
// so the four b-row slices of a step group are set up once per block instead
// of once per row; on a 12-wide head window that set-up was a third of the
// instructions.
//
// With useAVX a step group over a block is one call of axpy4Block, which runs
// the same four adds per element on eight columns at a time. Memory safety
// stays here: each operand is cut to end on the last element the routine
// touches before its address is taken, so a shape error is an index panic in
// Go, not a stray write.
func axpyRows(dst *Matrix, doff int, a *Matrix, aoff int, aT bool, b *Matrix, boff, k, w int, acc bool, lo, hi int) {
	ars, acs := a.Cols, 1
	if aT {
		ars, acs = 1, a.Cols
	}
	bc, dc := b.Cols, dst.Cols
	if w == 0 {
		return
	}
	for i0 := lo; i0 < hi; i0 += axpyRowBlock {
		i1 := min(i0+axpyRowBlock, hi)
		if !acc {
			// +0 + x is what a pre-zeroed destination always gave; zeroing
			// the block here, just before it is accumulated into, replaces a
			// separate pass over the whole matrix.
			for i := i0; i < i1; i++ {
				clear(dst.Data[i*dc+doff : i*dc+doff+w])
			}
		}
		c := 0
		for ; useAVX && c+4 <= k; c += 4 {
			ao := i0*ars + aoff + c*acs
			ab := a.Data[ao : ao+(i1-1-i0)*ars+3*acs+1]
			bb := b.Data[c*bc+boff : (c+3)*bc+boff+w]
			db := dst.Data[i0*dc+doff : (i1-1)*dc+doff+w]
			axpy4Block(&db[0], dc, &ab[0], ars, acs, &bb[0], bc, w, i1-i0)
		}
		for ; c+4 <= k; c += 4 {
			b0 := b.Data[c*bc+boff : c*bc+boff+w]
			// Equal lengths let the compiler drop the bounds checks below.
			b1 := b.Data[(c+1)*bc+boff:][:len(b0)]
			b2 := b.Data[(c+2)*bc+boff:][:len(b0)]
			b3 := b.Data[(c+3)*bc+boff:][:len(b0)]
			ao := aoff + c*acs
			for i := i0; i < i1; i++ {
				ai := a.Data[i*ars+ao:]
				a0, a1, a2, a3 := ai[0], ai[acs], ai[2*acs], ai[3*acs]
				d := dst.Data[i*dc+doff:][:len(b0)]
				for j, bv := range b0 {
					v := d[j]
					v += a0 * bv
					v += a1 * b1[j]
					v += a2 * b2[j]
					v += a3 * b3[j]
					d[j] = v
				}
			}
		}
		for ; c < k; c++ {
			br := b.Data[c*bc+boff : c*bc+boff+w]
			for i := i0; i < i1; i++ {
				av := a.Data[i*ars+aoff+c*acs]
				d := dst.Data[i*dc+doff:][:len(br)]
				for j, bv := range br {
					d[j] += av * bv
				}
			}
		}
	}
}

// axpyMatMul runs axpyRows over all n output rows, fanning out across
// GOMAXPROCS when the product is large enough to pay for it.
func axpyMatMul(dst *Matrix, doff int, a *Matrix, aoff int, aT bool, b *Matrix, boff, n, k, w int, acc bool) {
	if !parallelWorth(n, k*w) {
		axpyRows(dst, doff, a, aoff, aT, b, boff, k, w, acc, 0, n)
		return
	}
	parallelRows(n, k*w, func(lo, hi int) {
		axpyRows(dst, doff, a, aoff, aT, b, boff, k, w, acc, lo, hi)
	})
}

// dotRows is the dot-form microkernel behind MatMulT and MatMulTStrided (the
// q·kᵀ attention-score kernel). For output rows i in [lo, hi) it computes
//
//	dst[i][doff+j] = Σ_{c<w} a[i][aoff+c] · b[j][boff+c]     (j < b.Rows)
//
// Every dot product keeps four interleaved partial sums (so the adds pipeline
// instead of serializing on one dependency chain), folds the w mod 4
// remainder into the first, and combines them as (s0+s1)+(s2+s3). Two rows of
// b are scored per pass over the row of a, so each loaded a-element feeds two
// multiply-adds; the two dots share nothing else, which keeps each one's
// arithmetic identical to computing it alone. An odd last row is paired with
// itself (the same value stored twice) rather than given a second loop.
//
// With useAVX the first p − p mod 4 rows of b go through dotRow4, four rows
// per pass with each dot's four partial sums in the four lanes of one
// register; the Go loop finishes the last p mod 4. As in axpyRows, operands
// are cut to their last touched element before their address is taken.
func dotRows(dst *Matrix, doff int, a *Matrix, aoff int, b *Matrix, boff, w, lo, hi int) {
	p := b.Rows
	ac, bc, dc := a.Cols, b.Cols, dst.Cols
	groups := 0
	var bb []float32
	if useAVX && w > 0 && p >= 4 {
		groups = p / 4
		bb = b.Data[boff : (4*groups-1)*bc+boff+w]
	}
	for i := lo; i < hi; i++ {
		ar := a.Data[i*ac+aoff : i*ac+aoff+w]
		dr := dst.Data[i*dc+doff : i*dc+doff+p]
		if groups > 0 {
			dotRow4(&dr[0], &ar[0], w, &bb[0], bc, groups)
		}
		for j := 4 * groups; j < p; j += 2 {
			j1 := min(j+1, p-1)
			b0 := b.Data[j*bc+boff:][:len(ar)]
			b1 := b.Data[j1*bc+boff:][:len(ar)]
			var s0, s1, s2, s3, t0, t1, t2, t3 float32
			// c indexes the last element of each group of four: the form
			// the compiler can prove in bounds for all twelve loads.
			c := 3
			for ; c < len(ar); c += 4 {
				x0, x1, x2, x3 := ar[c-3], ar[c-2], ar[c-1], ar[c]
				s0 += x0 * b0[c-3]
				s1 += x1 * b0[c-2]
				s2 += x2 * b0[c-1]
				s3 += x3 * b0[c]
				t0 += x0 * b1[c-3]
				t1 += x1 * b1[c-2]
				t2 += x2 * b1[c-1]
				t3 += x3 * b1[c]
			}
			for c -= 3; c < len(ar); c++ {
				s0 += ar[c] * b0[c]
				t0 += ar[c] * b1[c]
			}
			dr[j] = (s0 + s1) + (s2 + s3)
			dr[j1] = (t0 + t1) + (t2 + t3)
		}
	}
}

// dotMatMul runs dotRows over all n output rows, fanning out across
// GOMAXPROCS when the product is large enough to pay for it.
func dotMatMul(dst *Matrix, doff int, a *Matrix, aoff int, b *Matrix, boff, n, w int) {
	if !parallelWorth(n, w*b.Rows) {
		dotRows(dst, doff, a, aoff, b, boff, w, 0, n)
		return
	}
	parallelRows(n, w*b.Rows, func(lo, hi int) {
		dotRows(dst, doff, a, aoff, b, boff, w, lo, hi)
	})
}
