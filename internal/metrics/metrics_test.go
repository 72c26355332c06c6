package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestConfusionCounts(t *testing.T) {
	labels := []int{1, 1, 0, 0, 1, 0}
	preds := []int{1, 0, 0, 1, 1, 0}
	c := NewConfusion(labels, preds)
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("confusion = %+v", c)
	}
	if math.Abs(c.Accuracy()-4.0/6) > 1e-9 {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-9 {
		t.Fatalf("precision = %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-9 {
		t.Fatalf("recall = %v", c.Recall())
	}
	if math.Abs(c.F1()-2.0/3) > 1e-9 {
		t.Fatalf("f1 = %v", c.F1())
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Fatal("empty confusion must score 0")
	}
	// All-negative predictions: precision 0 without dividing by zero.
	c = NewConfusion([]int{1, 0}, []int{0, 0})
	if c.Precision() != 0 || c.Recall() != 0 {
		t.Fatal("no-positive-prediction metrics wrong")
	}
}

func TestConfusionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConfusion([]int{1}, []int{1, 0})
}

func TestROCAUCPerfect(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	if got := ROCAUC(labels, scores); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect AUC = %v", got)
	}
	inverted := []float64{0.9, 0.8, 0.2, 0.1}
	if got := ROCAUC(labels, inverted); math.Abs(got) > 1e-9 {
		t.Fatalf("inverted AUC = %v", got)
	}
}

func TestROCAUCRandomIsHalf(t *testing.T) {
	// Constant scores: all tied ⇒ AUC 0.5 by midrank handling.
	labels := []int{1, 0, 1, 0, 1}
	scores := []float64{3, 3, 3, 3, 3}
	if got := ROCAUC(labels, scores); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("tied AUC = %v", got)
	}
}

func TestROCAUCSingleClass(t *testing.T) {
	if got := ROCAUC([]int{1, 1}, []float64{1, 2}); got != 0.5 {
		t.Fatalf("single-class AUC = %v", got)
	}
}

func TestAveragePrecision(t *testing.T) {
	// Ranking: pos, neg, pos  →  AP = (1/1 + 2/3)/2 = 5/6.
	labels := []int{1, 0, 1}
	scores := []float64{0.9, 0.8, 0.7}
	if got := AveragePrecision(labels, scores); math.Abs(got-5.0/6) > 1e-9 {
		t.Fatalf("AP = %v", got)
	}
	if got := AveragePrecision([]int{0, 0}, []float64{1, 2}); got != 0 {
		t.Fatalf("no-positives AP = %v", got)
	}
}

func TestPrecisionAtK(t *testing.T) {
	labels := []int{1, 0, 1, 0}
	scores := []float64{0.9, 0.8, 0.7, 0.1}
	if got := PrecisionAtK(labels, scores, 2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("P@2 = %v", got)
	}
	// Default k = number of positives (2): top-2 contains 1 positive.
	if got := PrecisionAtK(labels, scores, 0); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("P@npos = %v", got)
	}
	// k beyond n clamps.
	if got := PrecisionAtK(labels, scores, 100); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("P@100 = %v", got)
	}
	if got := PrecisionAtK([]int{0}, []float64{1}, 0); got != 0 {
		t.Fatalf("P@k with no positives = %v", got)
	}
}

func TestFromConfusion(t *testing.T) {
	c := NewConfusion([]int{1, 0}, []int{1, 0})
	s := FromConfusion(c)
	if s.Accuracy != 1 || s.F1 != 1 {
		t.Fatalf("scores = %+v", s)
	}
}

// Property: AUC is invariant under any strictly monotone transform of the
// scores.
func TestROCAUCMonotoneInvarianceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.Intn(50)
		labels := make([]int, n)
		scores := make([]float64, n)
		for i := range labels {
			labels[i] = rng.Intn(2)
			scores[i] = rng.Float64()
		}
		a := ROCAUC(labels, scores)
		warped := make([]float64, n)
		for i, s := range scores {
			warped[i] = math.Exp(3*s) + 7
		}
		b := ROCAUC(labels, warped)
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: AUC of scores equals 1 - AUC of negated scores (symmetry).
func TestROCAUCSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.Intn(50)
		labels := make([]int, n)
		scores := make([]float64, n)
		hasPos, hasNeg := false, false
		for i := range labels {
			labels[i] = rng.Intn(2)
			scores[i] = rng.Float64()
			if labels[i] == 1 {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		neg := make([]float64, n)
		for i, s := range scores {
			neg[i] = -s
		}
		return math.Abs(ROCAUC(labels, scores)+ROCAUC(labels, neg)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: accuracy of perfect predictions is 1; of fully wrong is 0.
func TestAccuracyBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(100)
		labels := make([]int, n)
		flipped := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(2)
			flipped[i] = 1 - labels[i]
		}
		return NewConfusion(labels, labels).Accuracy() == 1 && NewConfusion(labels, flipped).Accuracy() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
