package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Kernel-level pins for the two microkernels, on both implementations.
//
// kernel_ref_test.go drives the exported matmuls; the cases here call
// axpyRows and dotRows directly so that every argument the assembly sees —
// offsets, strides, the aT flag, the row range — is chosen by the test, and
// every operand lives inside a larger array filled with a sentinel NaN so
// that a write one element outside the destination window is visible.

// avxDetected is what package init detected; the tests flip useAVX around it.
var avxDetected = useAVX

// eachKernelPath runs fn once on the Go loops and once on the AVX routines
// (skipped where the CPU or OS lacks AVX), restoring the dispatch afterwards.
func eachKernelPath(t *testing.T, fn func(t *testing.T)) {
	defer func() { useAVX = avxDetected }()
	t.Run("go", func(t *testing.T) {
		useAVX = false
		fn(t)
	})
	t.Run("avx", func(t *testing.T) {
		if !avxDetected {
			t.Skip("no AVX on this CPU/OS: the Go loops are the only path")
		}
		useAVX = true
		fn(t)
	})
}

// kernelPaths lists the useAVX settings this machine can run: the Go loops
// always, the AVX routines where detected.
func kernelPaths() []bool {
	if avxDetected {
		return []bool{false, true}
	}
	return []bool{false}
}

// guardBits is the NaN payload that fills the slack around every operand and
// every assigning kernel's destination. No arithmetic produces it, so an
// element still holding it was not written and an element that lost it was.
const guardBits = 0x7fc0dead

// carved is a matrix whose Data is a window of a larger guard-filled array.
type carved struct {
	m       *Matrix
	backing []float32
	lead    int
}

// carve places a rows×cols matrix lead elements into a guard-filled array,
// with slack after it too unless atEnd, in which case the matrix's last
// element is the array's last. The window's capacity is cut to its length so
// that a wrapper slicing past the operand panics instead of borrowing slack.
func carve(rows, cols, lead int, atEnd bool) carved {
	n, trail := rows*cols, 11
	if atEnd {
		trail = 0
	}
	backing := make([]float32, lead+n+trail)
	for i := range backing {
		backing[i] = math.Float32frombits(guardBits)
	}
	return carved{&Matrix{Rows: rows, Cols: cols, Data: backing[lead : lead+n : lead+n]}, backing, lead}
}

func (c carved) clone() carved {
	backing := append([]float32(nil), c.backing...)
	n := len(c.m.Data)
	return carved{&Matrix{Rows: c.m.Rows, Cols: c.m.Cols, Data: backing[c.lead : c.lead+n : c.lead+n]}, backing, c.lead}
}

// requireSameBacking compares two whole backing arrays. Where want still
// holds the guard, got must hold exactly the guard (nothing outside the
// window moved); elsewhere bits must match, except that a NaN result may
// differ in payload — but must not be the guard, i.e. must have been written.
func requireSameBacking(t testing.TB, name string, got, want []float32) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		gb, wb := math.Float32bits(g), math.Float32bits(w)
		if gb == wb || (wb != guardBits && gb != guardBits && g != g && w != w) {
			continue
		}
		t.Fatalf("%s: backing[%d] = %08x (%v), want %08x (%v)", name, i, gb, g, wb, w)
	}
}

// refAxpyRows is axpyRows one element at a time: from +0 or the current
// value, add a rounded product per reduction step, c ascending.
func refAxpyRows(dst *Matrix, doff int, a *Matrix, aoff int, aT bool, b *Matrix, boff, k, w int, acc bool, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < w; j++ {
			var s float32
			if acc {
				s = dst.At(i, doff+j)
			}
			for c := 0; c < k; c++ {
				if aT {
					s += a.At(c, aoff+i) * b.At(c, boff+j)
				} else {
					s += a.At(i, aoff+c) * b.At(c, boff+j)
				}
			}
			dst.Set(i, doff+j, s)
		}
	}
}

func refDotRows(dst *Matrix, doff int, a *Matrix, aoff int, b *Matrix, boff, w, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < b.Rows; j++ {
			dst.Set(i, doff+j, refDot(a.Data, i*a.Cols+aoff, b.Data, j*b.Cols+boff, w))
		}
	}
}

// kernelCase is one call of each microkernel: rows output rows of which
// [lo, hi) are computed, reduction length k, output width w (for the dot form
// w is the number of b rows and k the length of each dot product).
type kernelCase struct {
	rows, k, w       int
	lo, hi           int
	doff, aoff, boff int
	aT, acc          bool
	atEnd, salted    bool
	seed             uint64
}

func (c kernelCase) String() string {
	return fmt.Sprintf("rows=%d[%d,%d) k=%d w=%d doff=%d aoff=%d boff=%d aT=%v acc=%v atEnd=%v salted=%v seed=%d",
		c.rows, c.lo, c.hi, c.k, c.w, c.doff, c.aoff, c.boff, c.aT, c.acc, c.atEnd, c.salted, c.seed)
}

// check runs the case through the reference and through each available
// implementation of both kernels, comparing whole backing arrays and that no
// input was written.
func (c kernelCase) check(t testing.TB) {
	t.Helper()
	defer func(was bool) { useAVX = was }(useAVX)
	rng := NewRNG(c.seed)
	pad, lead := rng.Intn(3), 1+rng.Intn(8)
	input := func(rows, cols int) carved {
		m := carve(rows, cols, lead+rng.Intn(4), c.atEnd)
		fillPin(m.m, rng, c.salted)
		return m
	}
	// eachPath runs kernel on fresh copies of the operands once per
	// implementation and holds the result to want.
	eachPath := func(name string, dst, a, b, want carved, kernel func(dst, a, b *Matrix)) {
		for _, avx := range kernelPaths() {
			useAVX = avx
			got, ain, bin := dst.clone(), a.clone(), b.clone()
			kernel(got.m, ain.m, bin.m)
			name := fmt.Sprintf("%s avx=%v %v", name, avx, c)
			requireSameBacking(t, name, got.backing, want.backing)
			requireSameBacking(t, name+" (input a)", ain.backing, a.backing)
			requireSameBacking(t, name+" (input b)", bin.backing, b.backing)
		}
	}

	// Axpy form.
	var a carved
	if c.aT {
		a = input(c.k, c.aoff+c.rows+pad)
	} else {
		a = input(c.rows, c.aoff+c.k+pad)
	}
	b := input(c.k+pad, c.boff+c.w+pad)
	dst := carve(c.rows, c.doff+c.w+pad, lead, c.atEnd)
	if c.acc {
		fillPin(dst.m, rng, c.salted)
	}
	want := dst.clone()
	refAxpyRows(want.m, c.doff, a.m, c.aoff, c.aT, b.m, c.boff, c.k, c.w, c.acc, c.lo, c.hi)
	eachPath("axpyRows", dst, a, b, want, func(dst, a, b *Matrix) {
		axpyRows(dst, c.doff, a, c.aoff, c.aT, b, c.boff, c.k, c.w, c.acc, c.lo, c.hi)
	})

	// Dot form: always assigns, so the destination starts as all guard.
	a = input(c.rows, c.aoff+c.k+pad)
	b = input(c.w, c.boff+c.k+pad)
	dst = carve(c.rows, c.doff+c.w+pad, lead, c.atEnd)
	want = dst.clone()
	refDotRows(want.m, c.doff, a.m, c.aoff, b.m, c.boff, c.k, c.lo, c.hi)
	eachPath("dotRows", dst, a, b, want, func(dst, a, b *Matrix) {
		dotRows(dst, c.doff, a, c.aoff, b, c.boff, c.k, c.lo, c.hi)
	})
}

// edgeWidths cross every vector tail: 8-wide, then 4-wide, then scalar.
var edgeWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 25}

// TestKernelEdgeShapes walks the shapes a vector kernel gets wrong first:
// every output width up to two vectors and around three, every reduction
// remainder (k mod 4 for the axpy form, w mod 4 and p mod 4 for the dot
// form), empty and single-row ranges, a range that crosses the 32-row block,
// aT on and off, assign and accumulate, at offsets that leave nothing
// 16-byte aligned, carved from the middle and from the very end of a
// guard-filled array.
func TestKernelEdgeShapes(t *testing.T) {
	requireBitExactArch(t)
	seed := uint64(1)
	for _, rows := range []int{0, 1, 2, 35} {
		for _, w := range edgeWidths {
			for k := 0; k <= 9; k++ {
				for flags := 0; flags < 8; flags++ {
					c := kernelCase{rows: rows, k: k, w: w, hi: rows,
						doff: 1 + int(seed%3), aoff: 1 + int(seed%5), boff: 1 + int(seed%7),
						aT: flags&1 != 0, acc: flags&2 != 0, atEnd: flags&4 != 0,
						salted: seed%3 == 0, seed: seed}
					if rows == 35 && flags&1 != 0 {
						c.lo, c.hi = 2, 34 // one full block, its edges inside the matrix
					}
					c.check(t)
					seed++
				}
			}
		}
	}
	// The dot form's k is its vector axis and w its four-row grouping: cover
	// the long-k tails against every p mod 4 as well.
	for _, k := range edgeWidths {
		for w := 0; w <= 9; w++ {
			for _, atEnd := range []bool{false, true} {
				kernelCase{rows: 3, k: k, w: w, hi: 3, doff: 1, aoff: 3, boff: 1, atEnd: atEnd, salted: seed%2 == 0, seed: seed}.check(t)
				seed++
			}
		}
	}
}

// TestKernelGuardBandsServedShapes repeats the guard-band check at the sizes
// the models issue, where a row block is full and the 8-wide loop runs many
// times: operands in the middle of their arrays and ending on the last
// element, nothing outside the destination window may change.
func TestKernelGuardBandsServedShapes(t *testing.T) {
	requireBitExactArch(t)
	seed := uint64(9000)
	for _, s := range [][3]int{{27, 48, 96}, {64, 96, 48}, {32, 192, 96}, {27, 27, 12}, {32, 320, 24}, {27, 12, 27}, {32, 24, 320}, {70, 7, 13}} {
		for flags := 0; flags < 8; flags++ {
			kernelCase{rows: s[0], k: s[1], w: s[2], hi: s[0], doff: 1 + 12*(flags&1), aoff: 3, boff: 5,
				aT: flags&1 != 0, acc: flags&2 != 0, atEnd: flags&4 != 0, salted: flags == 7, seed: seed}.check(t)
			seed++
		}
	}
}

// ---- elementwise kernels: GELU and the fused softmax's two lane passes ----

// elementwiseEdges are the inputs the exp lanes' range handling turns on: the
// underflow cut and the tanh saturation point with their neighbours on either
// side (as softmax arguments, and as the GELU inputs whose tanh argument lands
// there), on top of the IEEE corner cases.
var elementwiseEdges = func() []float32 {
	vs := append([]float32(nil), saltValues...)
	for _, e := range []float32{expUnderflow, 10, -10, geluSaturation(), -geluSaturation(), -0.5, -20, 3} {
		vs = append(vs, e, math.Nextafter32(e, float32(math.Inf(1))), math.Nextafter32(e, float32(math.Inf(-1))))
	}
	return vs
}()

// elementwiseCase is one rows×cols matrix through every elementwise kernel:
// GELU out of place and in place, the softmax's exponential and scaling
// passes over the flattened data, and the whole fused softmax. raw bit
// patterns fill the first elements; the rest come from seed — Gaussians
// scaled past the saturation point, edge values and arbitrary bit patterns.
// Even rows take all three, odd rows stay finite. With special and at least
// five rows, row 1 is all one value, row 2 all −Inf (a NaN row: −Inf − −Inf),
// row 3 finite but for one NaN, and row 4 a 0 followed by the non-positive
// edge values.
type elementwiseCase struct {
	rows, cols, past       int
	scale                  float32
	causal, atEnd, special bool
	raw                    []uint32
	seed                   uint64
}

func (c elementwiseCase) String() string {
	return fmt.Sprintf("rows=%d cols=%d scale=%v past=%d causal=%v atEnd=%v special=%v raw=%d seed=%d",
		c.rows, c.cols, c.scale, c.past, c.causal, c.atEnd, c.special, len(c.raw), c.seed)
}

// input is the case's rows×cols input, carved from a guard-filled array.
func (c elementwiseCase) input() carved {
	rng := NewRNG(c.seed)
	edges := elementwiseEdges
	in := carve(c.rows, c.cols, 1+rng.Intn(8), c.atEnd)
	for i := range in.m.Data {
		v := 4 * float32(rng.NormFloat64())
		switch pick, wild := rng.Intn(8), (i/max(c.cols, 1))%2 == 0; {
		case i < len(c.raw):
			v = math.Float32frombits(c.raw[i])
		case pick == 0 && wild:
			v = edges[rng.Intn(len(edges))]
		case pick == 1 && wild:
			v = math.Float32frombits(uint32(rng.Uint64()))
		case pick == 0:
			// Odd rows stay finite so that their softmax is not one NaN.
			if e := edges[rng.Intn(len(edges))]; e-e == 0 && e < 100 {
				v = e
			}
		}
		in.m.Data[i] = v
	}
	if c.special && c.rows >= 5 && c.cols > 0 {
		for j := 0; j < c.cols; j++ {
			in.m.Set(1, j, 1.5)
			in.m.Set(2, j, float32(math.Inf(-1)))
			in.m.Set(3, j, float32(j%7)-3)
			// Row 4's maximum is its leading 0, so at scale 1 every edge
			// value below it reaches the exponential as itself.
			if e := edges[j%len(edges)]; j > 0 && e <= 0 {
				in.m.Set(4, j, e)
			} else {
				in.m.Set(4, j, 0)
			}
		}
		in.m.Set(3, c.cols/2, float32(math.NaN()))
	}
	return in
}

func (c elementwiseCase) check(t testing.TB) {
	t.Helper()
	defer func(was bool) { useAVX = was }(useAVX)
	in := c.input()
	// eachPath runs kernel on a fresh copy of the input (and a guard-filled
	// destination) once per implementation; ref did the same to want.
	eachPath := func(name string, want carved, inPlace bool, kernel func(dst, src *Matrix)) {
		for _, avx := range kernelPaths() {
			useAVX = avx
			src := in.clone()
			got := src
			if !inPlace {
				got = carve(c.rows, c.cols, in.lead, c.atEnd)
			}
			kernel(got.m, src.m)
			name := fmt.Sprintf("%s avx=%v %v", name, avx, c)
			requireSameBacking(t, name, got.backing, want.backing)
			if !inPlace {
				requireSameBacking(t, name+" (input)", src.backing, in.backing)
			}
		}
	}

	want := carve(c.rows, c.cols, in.lead, c.atEnd)
	for i, v := range in.m.Data {
		want.m.Data[i] = refGELU(v)
	}
	eachPath("GELU", want, false, func(dst, src *Matrix) { GELU(dst.Data, src.Data) })
	eachPath("GELU in place", want, true, func(dst, _ *Matrix) { GELU(dst.Data, dst.Data) })

	// The exponential pass over the data as one row, against the row maximum
	// the fused softmax would have found.
	if len(in.m.Data) > 0 {
		maxv := c.scale * in.m.Data[0]
		for _, v := range in.m.Data[1:] {
			if sv := c.scale * v; sv > maxv {
				maxv = sv
			}
		}
		// rowMax finds the same maximum, NaN in the first element and all;
		// of +0 and −0 it may keep either.
		for _, avx := range kernelPaths() {
			useAVX = avx
			if got := rowMax(in.m.Data, c.scale); got != maxv && (got == got || maxv == maxv) {
				t.Fatalf("rowMax avx=%v %v = %v, want %v", avx, c, got, maxv)
			}
		}
		for i, v := range in.m.Data {
			want.m.Data[i] = refExpFast32(c.scale*v - maxv)
		}
		eachPath("softmaxExp", want, true, func(dst, _ *Matrix) { softmaxExp(dst.Data, c.scale, maxv) })
	}
	for i, v := range in.m.Data {
		want.m.Data[i] = v * c.scale
	}
	eachPath("scaleRow", want, true, func(dst, _ *Matrix) { scaleRow(dst.Data, c.scale) })

	// The adds, against a second operand that is the input reversed and a
	// row vector of every seventh input, both untouched by the kernels. In
	// place, the destination is either operand, as the residual adds have it.
	n := len(in.m.Data)
	other, vec := carve(c.rows, c.cols, in.lead+1, c.atEnd), carve(1, c.cols, 2, c.atEnd)
	for i := range other.m.Data {
		other.m.Data[i] = in.m.Data[n-1-i]
	}
	for j := range vec.m.Data {
		vec.m.Data[j] = 1 // rows of none: never read
		if n > 0 {
			vec.m.Data[j] = in.m.Data[7*j%n]
		}
	}
	otherWas, vecWas := other.clone(), vec.clone()
	for i, v := range in.m.Data {
		want.m.Data[i] = v + other.m.Data[i]
	}
	eachPath("Add", want, false, func(dst, src *Matrix) { Add(dst, src, other.m) })
	eachPath("Add in place", want, true, func(dst, _ *Matrix) { Add(dst, dst, other.m) })
	eachPath("Add in place of b", want, true, func(dst, _ *Matrix) { Add(dst, other.m, dst) })
	for i, v := range in.m.Data {
		want.m.Data[i] = v + vec.m.Data[i%c.cols]
	}
	eachPath("AddRowVec", want, false, func(dst, src *Matrix) { AddRowVec(dst, src, vec.m.Data) })
	eachPath("AddRowVec in place", want, true, func(dst, _ *Matrix) { AddRowVec(dst, dst, vec.m.Data) })
	requireSameBacking(t, fmt.Sprintf("Add operand %v", c), other.backing, otherWas.backing)
	requireSameBacking(t, fmt.Sprintf("AddRowVec vector %v", c), vec.backing, vecWas.backing)

	want = in.clone()
	if c.cols > 0 {
		refScaledMaskedRowSoftmax(want.m, c.scale, c.past, c.causal)
	}
	eachPath("softmax", want, true, func(dst, _ *Matrix) {
		scaledMaskedRowSoftmaxRows(dst, c.scale, c.past, c.causal, 0, c.rows)
	})
}

// TestElementwiseEdgeShapes walks the elementwise kernels over every row
// width up to two lane groups and around three, the served 27 and 352 (three
// full groups and a masked one; a whole number of groups), 353 and 260,
// unmasked and under causal masks with no cached keys and with 320, with the
// special rows and edge values of elementwiseCase, carved from the middle and
// from the very end of a guard-filled array. The served ICL score matrix is
// pinned as it is issued: 29 suffix rows over a 231-key cached prefix, 260
// wide, causal, at mistral's scale 1/√24.
func TestElementwiseEdgeShapes(t *testing.T) {
	requireBitExactArch(t)
	seed := uint64(1)
	for _, cols := range append(append([]int(nil), edgeWidths...), 27, 352, 353, 260) {
		for _, rows := range []int{1, 2, 5, 34} {
			for flags := 0; flags < 8; flags++ {
				c := elementwiseCase{rows: rows, cols: cols, scale: 1, causal: flags&3 != 0, atEnd: flags&4 != 0, special: true, seed: seed}
				if flags&3 == 2 {
					c.past = 320
				}
				if flags&3 == 3 {
					c.scale = 0.2886751
					c.past = max(cols-rows, 0)
				}
				c.check(t)
				seed++
			}
		}
	}
	for _, atEnd := range []bool{false, true} {
		elementwiseCase{rows: 29, cols: 260, past: 231, scale: 0.20412415, causal: true, atEnd: atEnd, special: true, seed: seed}.check(t)
		seed++
	}
	// No rows at all, and rows of no columns.
	elementwiseCase{rows: 0, cols: 8, scale: 1, seed: seed}.check(t)
	elementwiseCase{rows: 3, cols: 0, scale: 1, causal: true, atEnd: true, seed: seed + 1}.check(t)
}

// TestSoftmaxRowsMatchRowAlone holds every row of the fused softmax to the
// same row computed alone, as a one-row matrix whose causal offset puts its
// window where the row's was. The kernel sums rows four at a time from the
// start of its range, so a row's bits must not depend on the group it lands
// in: ranges start at every lo from 0 to 4 and split at every row, over
// unmasked rows and causal windows one column wider each row: from no cached
// keys, from three (clipped at the width part way down), and from as many as
// leave the last row the whole width, as the served prefix does; all with the
// special rows of elementwiseCase.
func TestSoftmaxRowsMatchRowAlone(t *testing.T) {
	requireBitExactArch(t)
	defer func(was bool) { useAVX = was }(useAVX)
	seed := uint64(1)
	for _, avx := range kernelPaths() {
		useAVX = avx
		for _, cols := range []int{1, 3, 8, 9, 27, 260} {
			for _, rows := range []int{1, 2, 3, 4, 5, 7, 9, 13} {
				for mode := 0; mode < 4; mode++ {
					c := elementwiseCase{rows: rows, cols: cols, scale: 1, causal: mode > 0, special: true, seed: seed}
					switch mode {
					case 2:
						c.past = 3
					case 3:
						c.past, c.scale = max(cols-rows, 1), 0.20412415
					}
					checkRowsAlone(t, c, avx)
					seed++
				}
			}
		}
	}
}

func checkRowsAlone(t *testing.T, c elementwiseCase, avx bool) {
	t.Helper()
	in := c.input()
	want := in.clone()
	for i := 0; i < c.rows; i++ {
		row := &Matrix{Rows: 1, Cols: c.cols, Data: want.m.Row(i)}
		scaledMaskedRowSoftmaxRows(row, c.scale, c.past+i, c.causal, 0, 1)
	}
	// Rows before lo keep their input.
	for lo := 0; lo <= min(4, c.rows); lo++ {
		got, wantLo := in.clone(), in.clone()
		copy(wantLo.m.Data[lo*c.cols:], want.m.Data[lo*c.cols:])
		scaledMaskedRowSoftmaxRows(got.m, c.scale, c.past, c.causal, lo, c.rows)
		requireSameBacking(t, fmt.Sprintf("rows [%d,%d) avx=%v %v", lo, c.rows, avx, c), got.backing, wantLo.backing)
	}
	for k := 0; k <= c.rows; k++ {
		got := in.clone()
		scaledMaskedRowSoftmaxRows(got.m, c.scale, c.past, c.causal, 0, k)
		scaledMaskedRowSoftmaxRows(got.m, c.scale, c.past, c.causal, k, c.rows)
		requireSameBacking(t, fmt.Sprintf("rows [0,%d)+[%d,%d) avx=%v %v", k, k, c.rows, avx, c), got.backing, want.backing)
	}
}
