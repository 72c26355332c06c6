package tensor

import "fmt"

// Batched-inference kernels.
//
// A batch of B sequences with lengths T₀..T_{B-1} over a d-wide feature space
// is stored as one packed row-major matrix of shape [ΣTᵢ, d] plus an offsets
// slice of length B+1 (sequence i owns rows [offsets[i], offsets[i+1])). All
// position-wise operations (linear layers, layer norm, activations) then run
// as a single kernel call over the packed matrix, which is where batched
// inference gets its throughput: one large matmul amortizes goroutine fan-out
// and streams the weight matrix through cache once instead of B times.

// Offsets builds the B+1 prefix-sum offsets slice for sequence lengths lens.
func Offsets(lens []int) []int {
	out := make([]int, len(lens)+1)
	for i, n := range lens {
		if n < 0 {
			panic(fmt.Sprintf("tensor: negative segment length %d", n))
		}
		out[i+1] = out[i] + n
	}
	return out
}

// RowView returns a matrix aliasing rows [lo, hi) of m — no data is copied,
// so writes through the view mutate m. Used to address one sequence of a
// packed batch.
func (m *Matrix) RowView(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("tensor: row view [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// PackRows stacks matrices with a shared column count into one packed matrix,
// returning it and the segment offsets. The data is copied.
func PackRows(mats []*Matrix) (*Matrix, []int) {
	if len(mats) == 0 {
		return New(0, 0), []int{0}
	}
	cols := mats[0].Cols
	lens := make([]int, len(mats))
	for i, m := range mats {
		if m.Cols != cols {
			panic(fmt.Sprintf("tensor: pack column mismatch %d vs %d", m.Cols, cols))
		}
		lens[i] = m.Rows
	}
	offsets := Offsets(lens)
	packed := New(offsets[len(mats)], cols)
	for i, m := range mats {
		copy(packed.Data[offsets[i]*cols:], m.Data)
	}
	return packed, offsets
}

// UnpackRows splits a packed matrix back into per-segment views (aliasing,
// not copying).
func UnpackRows(packed *Matrix, offsets []int) []*Matrix {
	out := make([]*Matrix, len(offsets)-1)
	for i := range out {
		out[i] = packed.RowView(offsets[i], offsets[i+1])
	}
	return out
}

// MatMulBlocked computes a×b into dst (allocated if nil). It is MatMul under
// the name the inference path calls: both run the axpy-form microkernel
// (axpyRows), whose row-blocked schedule is already the cache-friendly one
// for the tall packed matrices of batched inference ([ΣTᵢ, d] against [d, d]
// weights). A separate k-panel schedule no longer pays: with k = 192 (the
// largest served reduction) it measured within noise of none.
func MatMulBlocked(dst, a, b *Matrix) *Matrix {
	return MatMul(dst, a, b)
}
