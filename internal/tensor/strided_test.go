package tensor

import (
	"math"
	"sync"
	"testing"
)

// colCopy materializes the column window [off, off+w) of m — the per-head
// copy the strided kernels replace. Tests compare strided results against
// dense kernels run on these copies; equality must be bitwise because both
// accumulate over the reduction dimension in the same order.
func colCopy(m *Matrix, off, w int) *Matrix {
	out := New(m.Rows, w)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[off:off+w])
	}
	return out
}

func randMatrix(rows, cols int, seed uint64) *Matrix {
	m := New(rows, cols)
	Gaussian(m, 1, NewRNG(seed))
	return m
}

func TestMatMulTStridedMatchesDenseOnCopies(t *testing.T) {
	a := randMatrix(7, 24, 1)
	b := randMatrix(5, 24, 2)
	for _, off := range []int{0, 8, 16} {
		w := 8
		want := MatMulT(nil, colCopy(a, off, w), colCopy(b, off, w))
		dst := New(7, 9) // wider than needed: write at a column offset
		dst.Fill(7)
		MatMulTStrided(dst, 3, a, off, b, off, w)
		for i := 0; i < 7; i++ {
			for j := 0; j < 5; j++ {
				if dst.At(i, 3+j) != want.At(i, j) {
					t.Fatalf("off %d: dst[%d][%d] = %v, want %v", off, i, j, dst.At(i, 3+j), want.At(i, j))
				}
			}
		}
	}
}

func TestMatMulStridedMatchesDenseOnCopies(t *testing.T) {
	probs := randMatrix(6, 10, 3) // wider than the used window
	v := randMatrix(4, 24, 4)
	want := MatMul(nil, colCopy(probs, 2, 4), colCopy(v, 8, 8))
	dst := New(6, 24)
	dst.Fill(-3)
	MatMulStrided(dst, 8, probs, 2, 4, v, 8, 8)
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			if dst.At(i, 8+j) != want.At(i, j) {
				t.Fatalf("dst[%d][%d] = %v, want %v", i, j, dst.At(i, 8+j), want.At(i, j))
			}
		}
	}
	// Columns outside the window must be untouched.
	if dst.At(0, 7) != -3 || dst.At(0, 16) != -3 {
		t.Fatal("MatMulStrided wrote outside its column window")
	}
	// The accumulate store adds a second product on top, term by term into
	// the existing values (same accumulation order as the kernel).
	want2 := want.Clone()
	p2, v2 := colCopy(probs, 4, 4), colCopy(v, 8, 8)
	for i := 0; i < want2.Rows; i++ {
		for c := 0; c < p2.Cols; c++ {
			av := p2.At(i, c)
			for j := 0; j < want2.Cols; j++ {
				want2.Data[i*want2.Cols+j] += av * v2.At(c, j)
			}
		}
	}
	MatMulStridedAcc(dst, 8, probs, 4, 4, v, 8, 8)
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			if dst.At(i, 8+j) != want2.At(i, j) {
				t.Fatalf("acc dst[%d][%d] = %v, want %v", i, j, dst.At(i, 8+j), want2.At(i, j))
			}
		}
	}
}

func TestTMatMulStridedMatchesDenseOnCopies(t *testing.T) {
	probs := randMatrix(6, 6, 5) // dense [k,n]
	dout := randMatrix(6, 24, 6)
	want := TMatMul(nil, probs, colCopy(dout, 16, 8))
	dst := New(6, 24)
	dst.Fill(2)
	TMatMulStrided(dst, 16, probs, dout, 16, 8)
	for i := 0; i < 6; i++ {
		for j := 0; j < 8; j++ {
			if dst.At(i, 16+j) != want.At(i, j) {
				t.Fatalf("dst[%d][%d] = %v, want %v", i, j, dst.At(i, 16+j), want.At(i, j))
			}
		}
	}
	if dst.At(0, 15) != 2 {
		t.Fatal("TMatMulStrided wrote outside its column window")
	}
}

func TestStridedKernelsPanicOnBadWindows(t *testing.T) {
	a, b, dst := New(4, 8), New(4, 8), New(4, 8)
	for name, fn := range map[string]func(){
		"matmulT window":  func() { MatMulTStrided(dst, 0, a, 4, b, 0, 8) },
		"matmulT dst":     func() { MatMulTStrided(dst, 6, a, 0, b, 0, 4) },
		"matmul window":   func() { MatMulStrided(dst, 0, a, 0, 8, b, 4, 8) },
		"matmul reduce":   func() { MatMulStrided(dst, 0, a, 0, 5, b, 0, 4) },
		"tmatmul window":  func() { TMatMulStrided(dst, 0, a, b, 6, 4) },
		"tmatmul dstrows": func() { TMatMulStrided(New(3, 8), 0, a, b, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestScaledMaskedRowSoftmaxMatchesUnfused checks the fused kernel against
// the three separate passes it replaces (scale, -Inf causal mask, float64
// RowSoftmax). The comparison is within the fast-exp tolerance, not bitwise.
func TestScaledMaskedRowSoftmaxMatchesUnfused(t *testing.T) {
	for _, tc := range []struct {
		rows, cols, past int
		causal           bool
	}{
		{5, 5, 0, true},
		{5, 5, 0, false},
		{3, 10, 7, true}, // decode chunk attending a cached prefix
		{1, 1, 0, true},
	} {
		m := randMatrix(tc.rows, tc.cols, 11)
		ref := m.Clone()
		scale := float32(0.25)

		Scale(ref, ref, scale)
		if tc.causal {
			for i := 0; i < ref.Rows; i++ {
				row := ref.Row(i)
				for j := tc.past + i + 1; j < ref.Cols; j++ {
					row[j] = float32(math.Inf(-1))
				}
			}
		}
		RowSoftmax(ref)

		ScaledMaskedRowSoftmax(m, scale, tc.past, tc.causal)
		if !m.AllClose(ref, 2e-6) {
			t.Fatalf("%+v: fused softmax diverged from unfused reference", tc)
		}
		// Masked positions must be exactly zero, and rows must sum to ~1.
		for i := 0; i < m.Rows; i++ {
			var sum float32
			for j, v := range m.Row(i) {
				sum += v
				if tc.causal && j > tc.past+i && v != 0 {
					t.Fatalf("%+v: masked position [%d][%d] = %v", tc, i, j, v)
				}
			}
			if math.Abs(float64(sum)-1) > 1e-5 {
				t.Fatalf("%+v: row %d sums to %v", tc, i, sum)
			}
		}
	}
}

// TestScaledMaskedRowSoftmaxZeroWidth: tensor.New(r, 0) is a legal matrix and
// has no scores to normalize, so the fused softmax must leave it alone on
// either branch instead of reading a row maximum from valid[0].
func TestScaledMaskedRowSoftmaxZeroWidth(t *testing.T) {
	for _, rows := range []int{0, 1, 3} {
		for _, causal := range []bool{false, true} {
			m := New(rows, 0)
			ScaledMaskedRowSoftmax(m, 0.25, 0, causal)
			scaledMaskedRowSoftmaxRows(m, 0.25, 2, causal, 0, rows)
			if m.Rows != rows || m.Cols != 0 || len(m.Data) != 0 {
				t.Fatalf("%dx0 causal=%v: shape changed to %dx%d", rows, causal, m.Rows, m.Cols)
			}
		}
	}
}

// TestExpFast32Tolerance pins the fast exponential's error budget: over the
// softmax-relevant domain (arguments ≤ 0 after max subtraction) and a wide
// general range, the relative error against float64 math.Exp stays under
// 1e-6 — the bound the fused-softmax contract documents.
func TestExpFast32Tolerance(t *testing.T) {
	const relTol = 1e-6
	check := func(x float32) {
		got := float64(ExpFast32(x))
		want := math.Exp(float64(x))
		if want == 0 {
			return
		}
		if rel := math.Abs(got-want) / want; rel > relTol {
			t.Fatalf("ExpFast32(%v) = %v, want %v (rel err %.3g)", x, got, want, rel)
		}
	}
	rng := NewRNG(13)
	for i := 0; i < 20000; i++ {
		check(-30 * rng.Float32()) // softmax domain
		check(80 * (rng.Float32() - 0.5) * 2)
		check(88.3 + 0.42*rng.Float32()) // top of the finite range (2^128 scaling)
	}
	for _, x := range []float32{0, -0.5, 0.5, 1, -1, -87, 88, 88.5, 88.72, 1e-10, -1e-10} {
		check(x)
	}
	if ExpFast32(float32(math.Inf(-1))) != 0 {
		t.Fatal("ExpFast32(-Inf) != 0")
	}
	if !math.IsInf(float64(ExpFast32(float32(math.Inf(1)))), 1) {
		t.Fatal("ExpFast32(+Inf) != +Inf")
	}
	if v := ExpFast32(float32(math.NaN())); v == v {
		t.Fatal("ExpFast32(NaN) did not propagate NaN")
	}
	if ExpFast32(-200) != 0 {
		t.Fatal("deep underflow must return 0")
	}
}

// TestMatMulOneHotRowsMatchesDense: the sparse-rows kernel is exact — the
// skip-zero branch only elides terms that contribute 0 — so it must agree
// with the branch-free dense kernel bitwise on finite inputs.
func TestMatMulOneHotRowsMatchesDense(t *testing.T) {
	b := randMatrix(16, 12, 21)
	// One-hot rows (the embedding-gather case).
	ids := []int{3, 0, 15, 3, 7}
	oneHot := New(5, 16)
	for i, id := range ids {
		oneHot.Set(i, id, 1)
	}
	got := MatMulOneHotRows(nil, oneHot, b)
	if !got.Equal(MatMul(nil, oneHot, b)) {
		t.Fatal("one-hot product differs from dense")
	}
	for i, id := range ids {
		for j, v := range got.Row(i) {
			if v != b.At(id, j) {
				t.Fatalf("row %d is not the gather of table row %d", i, id)
			}
		}
	}
	// General sparse rows (the GCN-adjacency case).
	sparse := New(9, 16)
	rng := NewRNG(22)
	for i := 0; i < sparse.Rows; i++ {
		for n := 0; n < 3; n++ {
			sparse.Set(i, rng.Intn(16), rng.Float32())
		}
	}
	if !MatMulOneHotRows(nil, sparse, b).Equal(MatMul(nil, sparse, b)) {
		t.Fatal("sparse-rows product differs from dense")
	}
}

func TestBlockedTranspose(t *testing.T) {
	// Cover non-multiple-of-block shapes on both axes.
	for _, shape := range [][2]int{{1, 1}, {3, 70}, {70, 3}, {33, 65}, {64, 64}} {
		m := randMatrix(shape[0], shape[1], 31)
		got := m.T()
		if got.Rows != m.Cols || got.Cols != m.Rows {
			t.Fatalf("T shape %dx%d", got.Rows, got.Cols)
		}
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if got.At(j, i) != m.At(i, j) {
					t.Fatalf("shape %v: T[%d][%d] mismatch", shape, j, i)
				}
			}
		}
	}
}

func TestWorkspaceReusesBuffersAcrossResets(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(4, 8)
	b := ws.GetZeroed(2, 2)
	for _, v := range b.Data {
		if v != 0 {
			t.Fatal("GetZeroed returned dirty buffer")
		}
	}
	ints := ws.GetInts(6)
	view := ws.RowView(a, 1, 3)
	if view.Rows != 2 || &view.Data[0] != &a.Data[8] {
		t.Fatal("RowView does not alias the parent rows")
	}
	ws.Reset()
	if got := ws.Get(4, 8); got != a {
		t.Fatal("same-shape Get after Reset did not reuse the buffer")
	}
	// A smaller request after Reset reuses the slot's capacity.
	if got := ws.Get(1, 3); got != b || cap(got.Data) < 4 {
		t.Fatal("second slot not reused for smaller shape")
	}
	if got := ws.GetInts(4); cap(got) < cap(ints) {
		t.Fatal("int scratch not reused")
	}
	// Steady state is allocation-free.
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		m := ws.Get(4, 8)
		_ = ws.RowView(m, 0, 2)
		_ = ws.GetInts(6)
		_ = ws.GetZeroed(2, 2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state workspace use allocated %v times per run", allocs)
	}
}

func TestNilWorkspaceDegradesToAllocation(t *testing.T) {
	var ws *Workspace
	m := ws.Get(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatal("nil Get shape")
	}
	if got := ws.GetZeroed(2, 2); got.Rows != 2 {
		t.Fatal("nil GetZeroed shape")
	}
	if got := ws.GetInts(5); len(got) != 5 {
		t.Fatal("nil GetInts length")
	}
	if got := ws.RowView(m, 1, 2); got.Rows != 1 || &got.Data[0] != &m.Data[4] {
		t.Fatal("nil RowView must alias")
	}
	ws.Reset()       // no-op
	PutWorkspace(ws) // no-op
}

// TestWorkspacePoolConcurrent hammers the pool from many goroutines under
// -race: distinct borrowers must never observe each other's buffers.
func TestWorkspacePoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				ws := GetWorkspace()
				m := ws.Get(8, 8)
				m.Fill(float32(g))
				for _, v := range m.Data {
					if v != float32(g) {
						errs <- "workspace buffer shared across goroutines"
						PutWorkspace(ws)
						return
					}
				}
				PutWorkspace(ws)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestTanhFast32Tolerance pins the fast tanh against float64 math.Tanh
// across the argument range, including saturation and special values.
func TestTanhFast32Tolerance(t *testing.T) {
	var maxErr float64
	for x := -12.0; x <= 12.0; x += 0.001 {
		got := float64(TanhFast32(float32(x)))
		want := math.Tanh(x)
		if err := math.Abs(got - want); err > maxErr {
			maxErr = err
		}
	}
	if maxErr > 2e-6 {
		t.Fatalf("TanhFast32 max abs error %.3g, want ≤ 2e-6", maxErr)
	}
	if TanhFast32(float32(math.Inf(1))) != 1 || TanhFast32(float32(math.Inf(-1))) != -1 {
		t.Fatal("TanhFast32 must saturate at ±Inf")
	}
	if v := TanhFast32(float32(math.NaN())); v == v {
		t.Fatal("TanhFast32 must propagate NaN")
	}
	if TanhFast32(0) != 0 {
		t.Fatal("TanhFast32(0) must be exactly 0")
	}
}
