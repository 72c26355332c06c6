// Package tensor provides the dense linear-algebra substrate used by every
// model in this repository: a float32 row-major matrix type, parallel blocked
// matrix multiplication, fused element-wise kernels, and reductions.
//
// The package is deliberately small and allocation-conscious: all training
// loops in internal/nn and internal/transformer run on top of these kernels,
// so matmul throughput dominates end-to-end experiment time. Parallelism
// follows the standard Go worker-pool idiom — work is split into row blocks
// and fanned out over a bounded set of goroutines sized by GOMAXPROCS.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use New or NewFrom to construct one with a shape.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewFrom wraps data as a rows×cols matrix without copying. len(data) must
// equal rows*cols.
func NewFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Equal reports whether m and other have the same shape and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != other.Data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether m and other have the same shape and all elements
// within tol of each other.
func (m *Matrix) AllClose(other *Matrix, tol float32) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// transposeBlock is the tile edge of the blocked transpose: a 32×32 float32
// tile is 4 KiB, so the read tile and the write tile together stay resident
// in L1 while the tile is turned.
const transposeBlock = 32

// T returns the transpose of m as a new matrix. The copy is blocked into
// square tiles so both the row-major reads and the (inherently strided)
// transposed writes hit each cache line transposeBlock times instead of once.
func (m *Matrix) T() *Matrix {
	out := New(m.Cols, m.Rows)
	for i0 := 0; i0 < m.Rows; i0 += transposeBlock {
		i1 := min(i0+transposeBlock, m.Rows)
		for j0 := 0; j0 < m.Cols; j0 += transposeBlock {
			j1 := min(j0+transposeBlock, m.Cols)
			for i := i0; i < i1; i++ {
				row := m.Data[i*m.Cols+j0 : i*m.Cols+j1]
				for j, v := range row {
					out.Data[(j0+j)*m.Rows+i] = v
				}
			}
		}
	}
	return out
}

// parallelThreshold is the number of multiply-adds (or units of comparable
// cost) below which kernels stay single-threaded: goroutine fan-out costs a
// few microseconds whatever the work under it, and the vector kernels get
// through 1<<20 multiply-adds in about twenty. Measured with
// BenchmarkServeShapes -cpu 1,2 (docs/PERFORMANCE.md, PR 14): every served
// shape up to 32 rows × 96×192 or 32 queries × 352 keys was slower fanned out
// over two cores than on one; projections from 4·10⁶ multiply-adds up gain.
// An encoder's packed batch reaches kernels in groups of at most 128 rows
// (transformer's groupRows), so at bert-base's width no projection of a
// group fans out (the feed-forward's is 0.6·10⁶ multiply-adds); a monitor
// chunk through the mistral decoder, some 660 packed rows at width 96,
// fans out every projection.
const parallelThreshold = 1 << 20

// parallelWorth reports whether rows×workPerRow multiply-adds are enough
// work to amortize goroutine fan-out. Hot-path kernels consult it before
// constructing their parallel closure: a func literal referenced by a `go`
// statement is forced onto the heap, so allocation-free serial fast paths
// must branch before the literal is evaluated.
func parallelWorth(rows, workPerRow int) bool {
	return rows*workPerRow >= parallelThreshold && rows > 1 && runtime.GOMAXPROCS(0) > 1
}

// parallelRows fans fn out over row ranges [lo,hi) using up to GOMAXPROCS
// workers. fn must be safe to call concurrently on disjoint ranges.
//
// Every range gets its own goroutine and the caller parks in Wait. Having
// the caller work the last range itself looks cheaper by one spawn, but
// measured slower at -cpu 2 on the served shapes (a 32-row mistral
// projection 56 → 73 µs, cached-prefix scores 0.33 → 0.49 ms): a lone
// spawned goroutine sits in the busy caller's runnext slot, which idle Ps
// steal from only as a last resort.
func parallelRows(rows, workPerRow int, fn func(lo, hi int)) {
	if !parallelWorth(rows, workPerRow) {
		fn(0, rows)
		return
	}
	workers := min(runtime.GOMAXPROCS(0), rows)
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, rows))
	}
	wg.Wait()
}

// FanOut calls fn on [0, n) in consecutive ranges of at most chunk elements,
// from up to GOMAXPROCS goroutines that each take the next range when they
// finish one, and returns when every call has. fn must be safe to call
// concurrently on disjoint ranges; when each call writes only its own range
// of the results, the outcome does not depend on the schedule. With one
// worker the ranges run in order on the caller's goroutine.
func FanOut(n, chunk int, fn func(lo, hi int)) {
	chunks := (n + chunk - 1) / chunk
	workers := min(runtime.GOMAXPROCS(0), chunks)
	if workers <= 1 {
		for lo := 0; lo < n; lo += chunk {
			fn(lo, min(lo+chunk, n))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < chunks; k = int(next.Add(1)) - 1 {
				fn(k*chunk, min((k+1)*chunk, n))
			}
		}()
	}
	wg.Wait()
}

// MatMul computes a×b and stores the result into dst, returning dst. If dst
// is nil a new matrix is allocated. Panics if shapes are incompatible or dst
// aliases an input.
//
// The kernel is the axpy-form microkernel (axpyRows): an i-k-j loop whose
// inner j loop carries four reduction steps per pass, parallelized over
// blocks of rows of a. Each output element accumulates over k in increasing
// order from +0. Inputs with mostly zero rows should use MatMulOneHotRows,
// which keeps the skip-zero branch.
func MatMul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = matMulDst("matmul", dst, a, b, a.Rows, b.Cols)
	axpyMatMul(dst, 0, a, 0, false, b, 0, a.Rows, a.Cols, b.Cols, false)
	return dst
}

// MatMulT computes a×bᵀ without materializing the transpose, storing into
// dst (allocated if nil). a is n×k, b is p×k, result is n×p. It runs on the
// dot-form microkernel (dotRows) shared with MatMulTStrided, which is what
// keeps the two bitwise identical.
func MatMulT(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = matMulDst("matmulT", dst, a, b, a.Rows, b.Rows)
	dotMatMul(dst, 0, a, 0, b, 0, a.Rows, a.Cols)
	return dst
}

// TMatMul computes aᵀ×b without materializing the transpose, storing into
// dst (allocated if nil). a is k×n, b is k×p, result is n×p. Used by linear
// layer weight gradients (dW = xᵀ·dy). Parallelized over output rows
// (columns of a), so workers own disjoint rows of dst.
func TMatMul(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch (%dx%d)ᵀ × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst = matMulDst("tmatmul", dst, a, b, a.Cols, b.Cols)
	axpyMatMul(dst, 0, a, 0, true, b, 0, a.Cols, a.Rows, b.Cols, false)
	return dst
}

// matMulDst returns the rows×cols destination of a dense product: a fresh
// matrix when dst is nil, otherwise dst after checking its shape and that it
// is not one of the inputs.
func matMulDst(op string, dst, a, b *Matrix, rows, cols int) *Matrix {
	if dst == nil {
		return New(rows, cols)
	}
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
	mustNotAlias(op, dst, a, b)
	return dst
}

// mustNotAlias panics when a matmul destination is also one of its inputs:
// every kernel overwrites dst while still reading a and b. The strided
// kernels refuse even disjoint column windows of one matrix rather than
// reason about them.
func mustNotAlias(op string, dst, a, b *Matrix) {
	if dst == a || dst == b {
		panic(fmt.Sprintf("tensor: %s dst must not alias an input", op))
	}
}

// Add computes a+b element-wise into dst (allocated if nil).
func Add(dst, a, b *Matrix) *Matrix {
	checkSameShape("add", a, b)
	dst = ensureLike(dst, a)
	addRow(dst.Data, a.Data, b.Data)
	return dst
}

// Mul computes the Hadamard product a⊙b into dst (allocated if nil).
func Mul(dst, a, b *Matrix) *Matrix {
	checkSameShape("mul", a, b)
	dst = ensureLike(dst, a)
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
	return dst
}

// Scale multiplies every element of a by s into dst (allocated if nil).
func Scale(dst, a *Matrix, s float32) *Matrix {
	dst = ensureLike(dst, a)
	for i, v := range a.Data {
		dst.Data[i] = v * s
	}
	return dst
}

// AddScaled computes dst += s*a in place. dst and a must share a shape.
func AddScaled(dst, a *Matrix, s float32) {
	checkSameShape("addscaled", dst, a)
	for i, v := range a.Data {
		dst.Data[i] += s * v
	}
}

// AddRowVec adds the 1×cols vector v to every row of a, into dst.
func AddRowVec(dst, a *Matrix, v []float32) *Matrix {
	if len(v) != a.Cols {
		panic(fmt.Sprintf("tensor: addrowvec length %d, want %d", len(v), a.Cols))
	}
	dst = ensureLike(dst, a)
	for i := 0; i < a.Rows; i++ {
		addRow(dst.Row(i), a.Row(i), v)
	}
	return dst
}

// addRow sets dst[j] = a[j] + b[j] over a, which dst and b are at least as
// long as: Add's and AddRowVec's one loop, and addLanes with useLanes. The
// assembly has no preemption point, so a whole matrix goes down 4096
// elements a call.
func addRow(dst, a, b []float32) {
	if useLanes() {
		for len(a) > 0 {
			n := min(len(a), 4096)
			addLanes(&dst[:n][0], &a[0], &b[:n][0], n)
			dst, a, b = dst[n:], a[n:], b[n:]
		}
		return
	}
	dst, b = dst[:len(a)], b[:len(a)]
	for j, x := range a {
		dst[j] = x + b[j]
	}
}

// ColSums returns the per-column sums of m as a length-Cols slice. Used for
// bias gradients.
func ColSums(m *Matrix) []float32 {
	out := make([]float32, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// RowSoftmax applies a numerically stable softmax to every row of m in place.
func RowSoftmax(m *Matrix) {
	parallelRows(m.Rows, m.Cols*4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			softmaxInPlace(row)
		}
	})
}

func softmaxInPlace(row []float32) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for j, v := range row {
		e := float32(math.Exp(float64(v - maxv)))
		row[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range row {
		row[j] *= inv
	}
}

// Softmax applies a numerically stable softmax to a single vector in place.
func Softmax(v []float32) { softmaxInPlace(v) }

// ArgMax returns the index of the largest element of v, breaking ties toward
// the lowest index. Panics on an empty slice.
func ArgMax(v []float32) int {
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

func ensureLike(dst, a *Matrix) *Matrix {
	if dst == nil {
		return New(a.Rows, a.Cols)
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, a.Cols))
	}
	return dst
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
