// Package metrics implements the binary-classification and ranking metrics
// reported in the paper's tables and figures: accuracy, precision, recall,
// F1 (Figures 4, 6, 11; Table II), and ROC-AUC, average precision, and
// precision@k for the unsupervised-vs-zero-shot comparison (Table IV).
package metrics

import (
	"fmt"
	"sort"
)

// Confusion is a binary confusion matrix with the anomalous class (label 1)
// treated as positive.
type Confusion struct {
	TP, FP, TN, FN int
}

// NewConfusion tallies predictions against labels (both 0/1).
func NewConfusion(labels, preds []int) Confusion {
	if len(labels) != len(preds) {
		panic("metrics: labels/preds length mismatch")
	}
	var c Confusion
	for i, l := range labels {
		switch {
		case l == 1 && preds[i] == 1:
			c.TP++
		case l == 0 && preds[i] == 1:
			c.FP++
		case l == 0 && preds[i] == 0:
			c.TN++
		default:
			c.FN++
		}
	}
	return c
}

// Accuracy is (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	t := c.TP + c.FP + c.TN + c.FN
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Precision is TP/(TP+FP), 0 when no positives were predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN), 0 when there are no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the four scores on one line.
func (c Confusion) String() string {
	return fmt.Sprintf("acc=%.4f prec=%.4f rec=%.4f f1=%.4f", c.Accuracy(), c.Precision(), c.Recall(), c.F1())
}

// ROCAUC computes the area under the ROC curve from anomaly scores (higher
// score = more anomalous) via the rank-statistic (Mann–Whitney) formulation,
// with midrank tie handling. Returns 0.5 when either class is empty.
func ROCAUC(labels []int, scores []float64) float64 {
	if len(labels) != len(scores) {
		panic("metrics: labels/scores length mismatch")
	}
	n := len(labels)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	// Midranks for ties.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = mid
		}
		i = j + 1
	}
	var posRankSum float64
	nPos, nNeg := 0, 0
	for i, l := range labels {
		if l == 1 {
			nPos++
			posRankSum += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := posRankSum - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// AveragePrecision computes AP (area under the precision–recall curve using
// the step interpolation standard in anomaly-detection benchmarks).
func AveragePrecision(labels []int, scores []float64) float64 {
	if len(labels) != len(scores) {
		panic("metrics: labels/scores length mismatch")
	}
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	nPos := 0
	for _, l := range labels {
		nPos += l
	}
	if nPos == 0 {
		return 0
	}
	var ap float64
	tp := 0
	for rank, i := range idx {
		if labels[i] == 1 {
			tp++
			ap += float64(tp) / float64(rank+1)
		}
	}
	return ap / float64(nPos)
}

// PrecisionAtK returns the fraction of true anomalies among the k
// highest-scoring samples. When k <= 0 it defaults to the number of true
// anomalies (the convention used by Flow-Bench's prec@k).
func PrecisionAtK(labels []int, scores []float64, k int) float64 {
	if len(labels) != len(scores) {
		panic("metrics: labels/scores length mismatch")
	}
	if k <= 0 {
		for _, l := range labels {
			k += l
		}
	}
	if k == 0 {
		return 0
	}
	if k > len(labels) {
		k = len(labels)
	}
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	tp := 0
	for _, i := range idx[:k] {
		tp += labels[i]
	}
	return float64(tp) / float64(k)
}

// Scores bundles the four headline classification metrics, as plotted in
// Figure 6.
type Scores struct {
	Accuracy, Precision, Recall, F1 float64
}

// FromConfusion extracts Scores from a confusion matrix.
func FromConfusion(c Confusion) Scores {
	return Scores{c.Accuracy(), c.Precision(), c.Recall(), c.F1()}
}
