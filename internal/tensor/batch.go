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

// rowView returns a matrix aliasing rows [lo, hi) of m — no data is copied,
// so writes through the view mutate m. Used to address one sequence of a
// packed batch.
func (m *Matrix) rowView(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.Rows {
		panic(fmt.Sprintf("tensor: row view [%d,%d) of %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
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
