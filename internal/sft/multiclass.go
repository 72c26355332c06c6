package sft

import (
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/tensor"
)

// Anomaly-type classification is this repository's extension beyond the
// paper's binary task: Flow-Bench labels each anomaly with its injection
// template (CPU core-capping vs HDD throttling), and the same SFT machinery
// can recover the type — which tells an operator *what* to fix, not just
// that something is wrong.

// Type-class indices of the anomaly-type task.
const (
	ClassNormal = 0
	ClassCPU    = 1
	ClassHDD    = 2
	// NumTypeClasses is the class count of the anomaly-type task.
	NumTypeClasses = 3
)

// typedLabel maps a job to its anomaly-type class.
func typedLabel(j flowbench.Job) int {
	switch {
	case j.Anomaly.IsCPU():
		return ClassCPU
	case j.Anomaly.IsHDD():
		return ClassHDD
	default:
		return ClassNormal
	}
}

// TypedExamples converts jobs to anomaly-type classification examples.
func TypedExamples(jobs []flowbench.Job) []Example {
	out := make([]Example, len(jobs))
	for i, j := range jobs {
		out[i] = Example{Text: logparse.Sentence(j), Label: typedLabel(j)}
	}
	return out
}

// MultiConfusion is a K×K confusion matrix; rows are true classes, columns
// predictions.
type MultiConfusion struct {
	Classes int
	Counts  [][]int
}

// EvaluateMulti scores the classifier on labeled examples.
func EvaluateMulti(c *Classifier, examples []Example) MultiConfusion {
	preds := make([]int, len(examples))
	fanOut(len(examples), func(lo, hi int, ws *tensor.Workspace) {
		seqs := make([][]int, hi-lo)
		for i, ex := range examples[lo:hi] {
			seqs[i] = c.Tok.Encode(ex.Text, true)
		}
		logits := c.Model.ForwardClsBatchWS(seqs, ws)
		for i := range seqs {
			row := logits.Row(i)
			tensor.Softmax(row)
			preds[lo+i] = tensor.ArgMax(row)
		}
	})
	k := c.Model.Config.NumClasses
	mc := MultiConfusion{Classes: k, Counts: make([][]int, k)}
	for i := range mc.Counts {
		mc.Counts[i] = make([]int, k)
	}
	for i, ex := range examples {
		mc.Counts[ex.Label][preds[i]]++
	}
	return mc
}

// Accuracy is the trace of the confusion matrix over its total.
func (m MultiConfusion) Accuracy() float64 {
	correct, total := 0, 0
	for i, row := range m.Counts {
		for j, n := range row {
			total += n
			if i == j {
				correct += n
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Recall returns per-class recall (diagonal over row sums).
func (m MultiConfusion) Recall(class int) float64 {
	row := m.Counts[class]
	total := 0
	for _, n := range row {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(row[class]) / float64(total)
}
