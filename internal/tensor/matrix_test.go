package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer expectPanic(t, "NewFrom with wrong length")
	NewFrom(2, 3, []float32{1, 2})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7 {
		t.Fatalf("Row(1)[2] = %v, want 7", row[2])
	}
	row[0] = 3 // Row aliases the backing array.
	if m.At(1, 0) != 3 {
		t.Fatal("Row must alias backing data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewFrom(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone must not share data")
	}
}

func TestTranspose(t *testing.T) {
	m := NewFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	got := m.T()
	want := NewFrom(3, 2, []float32{1, 4, 2, 5, 3, 6})
	if !got.Equal(want) {
		t.Fatalf("T() = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := NewFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := NewFrom(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(nil, a, b)
	want := NewFrom(2, 2, []float32{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got.Data, want.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := New(5, 5)
	Gaussian(a, 1, rng)
	eye := New(5, 5)
	for i := 0; i < 5; i++ {
		eye.Set(i, i, 1)
	}
	if !MatMul(nil, a, eye).AllClose(a, 1e-6) {
		t.Fatal("A×I must equal A")
	}
	if !MatMul(nil, eye, a).AllClose(a, 1e-6) {
		t.Fatal("I×A must equal A")
	}
}

func TestMatMulDstReuse(t *testing.T) {
	a := NewFrom(2, 2, []float32{1, 2, 3, 4})
	b := NewFrom(2, 2, []float32{5, 6, 7, 8})
	dst := New(2, 2)
	dst.Fill(42) // stale contents must be overwritten
	MatMul(dst, a, b)
	want := NewFrom(2, 2, []float32{19, 22, 43, 50})
	if !dst.Equal(want) {
		t.Fatalf("MatMul dst = %v, want %v", dst.Data, want.Data)
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer expectPanic(t, "matmul shape mismatch")
	MatMul(nil, New(2, 3), New(4, 2))
}

func TestMatMulAliasPanics(t *testing.T) {
	defer expectPanic(t, "matmul alias")
	a := New(2, 2)
	MatMul(a, a, New(2, 2))
}

// TestMatMulTMatchesExplicitTranspose cross-checks the fused kernels against
// the naive compose-with-T reference on random inputs.
func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(7)
	a := New(4, 6)
	b := New(5, 6)
	Gaussian(a, 1, rng)
	Gaussian(b, 1, rng)
	got := MatMulT(nil, a, b)
	want := MatMul(nil, a, b.T())
	if !got.AllClose(want, 1e-4) {
		t.Fatal("MatMulT disagrees with explicit transpose")
	}
}

func TestTMatMulMatchesExplicitTranspose(t *testing.T) {
	rng := NewRNG(9)
	a := New(6, 4)
	b := New(6, 5)
	Gaussian(a, 1, rng)
	Gaussian(b, 1, rng)
	got := TMatMul(nil, a, b)
	want := MatMul(nil, a.T(), b)
	if !got.AllClose(want, 1e-4) {
		t.Fatal("TMatMul disagrees with explicit transpose")
	}
}

// TestMatMulParallelMatchesSerial checks that the parallel path (large
// matrices) agrees with small-matrix results composed blockwise.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(3)
	const n = 129 // odd, for ragged chunking; n³ is above parallelThreshold
	a := New(n, n)
	b := New(n, n)
	Gaussian(a, 1, rng)
	Gaussian(b, 1, rng)
	got := MatMul(nil, a, b)
	// Serial reference.
	want := New(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			av := a.At(i, k)
			for j := 0; j < n; j++ {
				want.Data[i*n+j] += av * b.At(k, j)
			}
		}
	}
	if !got.AllClose(want, 1e-3) {
		t.Fatal("parallel matmul disagrees with serial reference")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := NewFrom(1, 3, []float32{1, 2, 3})
	b := NewFrom(1, 3, []float32{4, 5, 6})
	if got := Add(nil, a, b); !got.Equal(NewFrom(1, 3, []float32{5, 7, 9})) {
		t.Fatalf("Add = %v", got.Data)
	}
	if got := Sub(nil, a, b); !got.Equal(NewFrom(1, 3, []float32{-3, -3, -3})) {
		t.Fatalf("Sub = %v", got.Data)
	}
	if got := Mul(nil, a, b); !got.Equal(NewFrom(1, 3, []float32{4, 10, 18})) {
		t.Fatalf("Mul = %v", got.Data)
	}
	if got := Scale(nil, a, 2); !got.Equal(NewFrom(1, 3, []float32{2, 4, 6})) {
		t.Fatalf("Scale = %v", got.Data)
	}
}

func TestAddScaled(t *testing.T) {
	a := NewFrom(1, 2, []float32{1, 2})
	b := NewFrom(1, 2, []float32{10, 20})
	AddScaled(a, b, 0.5)
	if !a.Equal(NewFrom(1, 2, []float32{6, 12})) {
		t.Fatalf("AddScaled = %v", a.Data)
	}
}

func TestAddRowVec(t *testing.T) {
	a := NewFrom(2, 2, []float32{1, 2, 3, 4})
	got := AddRowVec(nil, a, []float32{10, 20})
	want := NewFrom(2, 2, []float32{11, 22, 13, 24})
	if !got.Equal(want) {
		t.Fatalf("AddRowVec = %v", got.Data)
	}
}

func TestColSums(t *testing.T) {
	m := NewFrom(2, 3, []float32{1, 2, 3, 4, 5, 6})
	got := ColSums(m)
	want := []float32{5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ColSums = %v, want %v", got, want)
		}
	}
}

func TestRowSoftmax(t *testing.T) {
	m := NewFrom(2, 3, []float32{1, 2, 3, 1000, 1000, 1000})
	RowSoftmax(m)
	for i := 0; i < 2; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax out of range: %v", v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d softmax sums to %v", i, s)
		}
	}
	// Monotone: bigger logit ⇒ bigger probability.
	if !(m.At(0, 2) > m.At(0, 1) && m.At(0, 1) > m.At(0, 0)) {
		t.Fatal("softmax is not monotone")
	}
	// Large equal logits must not overflow to NaN.
	if m.At(1, 0) != m.At(1, 1) {
		t.Fatal("equal logits must map to equal probabilities")
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float32{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d, want 1", got)
	}
	if got := ArgMax([]float32{2, 2}); got != 0 {
		t.Fatalf("ArgMax tie = %d, want 0 (first)", got)
	}
}

func TestNorm2SumMean(t *testing.T) {
	m := NewFrom(1, 2, []float32{3, 4})
	if got := Norm2(m); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Sum(m); got != 7 {
		t.Fatalf("Sum = %v, want 7", got)
	}
	if got := Mean(m); got != 3.5 {
		t.Fatalf("Mean = %v, want 3.5", got)
	}
	if got := Mean(New(0, 0)); got != 0 {
		t.Fatalf("Mean of empty = %v, want 0", got)
	}
}

// Property: matmul distributes over addition, (A+B)C = AC + BC.
func TestMatMulDistributesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(6)
		k := 2 + rng.Intn(6)
		p := 2 + rng.Intn(6)
		a1, a2, b := New(n, k), New(n, k), New(k, p)
		Gaussian(a1, 1, rng)
		Gaussian(a2, 1, rng)
		Gaussian(b, 1, rng)
		left := MatMul(nil, Add(nil, a1, a2), b)
		right := Add(nil, MatMul(nil, a1, b), MatMul(nil, a2, b))
		return left.AllClose(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := New(1+rng.Intn(8), 1+rng.Intn(8))
		Gaussian(m, 1, rng)
		return m.T().T().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax rows sum to one for arbitrary finite inputs.
func TestSoftmaxSumsToOneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := New(1+rng.Intn(4), 1+rng.Intn(10))
		Gaussian(m, 10, rng)
		RowSoftmax(m)
		for i := 0; i < m.Rows; i++ {
			var s float64
			for _, v := range m.Row(i) {
				s += float64(v)
			}
			if math.Abs(s-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func expectPanic(t *testing.T, name string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", name)
	}
}
