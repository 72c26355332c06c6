package tensor

import "testing"

func TestRowViewAliases(t *testing.T) {
	m := New(4, 3)
	v := m.rowView(1, 3)
	if v.Rows != 2 || v.Cols != 3 {
		t.Fatalf("view shape %dx%d", v.Rows, v.Cols)
	}
	v.Set(0, 0, 7)
	if m.At(1, 0) != 7 {
		t.Fatal("row view does not alias parent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range view")
		}
	}()
	m.rowView(2, 5)
}

func TestMatMulBlockedMatchesMatMul(t *testing.T) {
	rng := NewRNG(2)
	for _, shape := range [][3]int{{1, 1, 1}, {5, 7, 3}, {64, 200, 48}, {300, 33, 65}} {
		n, k, p := shape[0], shape[1], shape[2]
		a := New(n, k)
		b := New(k, p)
		Gaussian(a, 1, rng)
		Gaussian(b, 1, rng)
		want := MatMul(nil, a, b)
		got := MatMulBlocked(nil, a, b)
		if !got.Equal(want) {
			t.Fatalf("blocked matmul differs from reference at %dx%dx%d", n, k, p)
		}
		// Reused dst must be zeroed first.
		got2 := MatMulBlocked(got, a, b)
		if !got2.Equal(want) {
			t.Fatalf("blocked matmul with reused dst differs at %dx%dx%d", n, k, p)
		}
	}
}

func TestMatMulBlockedShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape mismatch panic")
		}
	}()
	MatMulBlocked(nil, a, b)
}
