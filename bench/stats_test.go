package main

import (
	"math"
	"testing"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.9}, {199, 0.9},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for q, want := range map[float64]float64{0: 0, 0.5: 50, 0.95: 95, 0.99: 99, 1: 100} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(q=%v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// spread must agree with Python's statistics.quantiles(xs, n=4), which is how
// the benchmark is accepted: for these ten values it gives [2.75, 5.5, 8.25].
func TestSpreadMatchesStatisticsQuantiles(t *testing.T) {
	median, rel := spread([]float64{7, 1, 10, 3, 5, 9, 2, 8, 4, 6})
	if median != 5.5 || math.Abs(rel-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("median %v spread %v, want 5.5 and 1.0", median, rel)
	}
	if _, rel := spread([]float64{3, 3, 3, 3}); rel != 0 {
		t.Errorf("spread of a constant = %v, want 0", rel)
	}
}
