package sft

import (
	"fmt"
	"time"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// Anomaly-type classification is this repository's extension beyond the
// paper's binary task: Flow-Bench labels each anomaly with its injection
// template (CPU core-capping vs HDD throttling), and the same SFT machinery
// can recover the type — which tells an operator *what* to fix, not just
// that something is wrong.

// Type-class indices for TypedLabel.
const (
	ClassNormal = 0
	ClassCPU    = 1
	ClassHDD    = 2
	// NumTypeClasses is the class count of the anomaly-type task.
	NumTypeClasses = 3
)

// TypeClassNames names the three classes.
var TypeClassNames = []string{"normal", "cpu", "hdd"}

// TypedLabel maps a job to its anomaly-type class.
func TypedLabel(j flowbench.Job) int {
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
		out[i] = Example{Text: logparse.Sentence(j), Label: TypedLabel(j)}
	}
	return out
}

// MultiClassifier is a K-way sentence classifier (the binary Classifier
// generalized). The wrapped model must have been built with
// Config.NumClasses == classes.
type MultiClassifier struct {
	Model   *transformer.Model
	Tok     *tokenizer.Tokenizer
	Classes int
}

// NewMultiClassifier wraps a model whose classification head has the given
// class count.
func NewMultiClassifier(m *transformer.Model, tok *tokenizer.Tokenizer, classes int) *MultiClassifier {
	if m.Config.NumClasses != classes {
		panic(fmt.Sprintf("sft: model has %d classes, want %d", m.Config.NumClasses, classes))
	}
	return &MultiClassifier{Model: m, Tok: tok, Classes: classes}
}

// TrainMulti fine-tunes the multi-class classifier; the recipe matches the
// binary Train.
func TrainMulti(c *MultiClassifier, train []Example, cfg TrainConfig) []EpochStats {
	if cfg.Epochs <= 0 {
		panic("sft: non-positive epochs")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	rng := tensor.NewRNG(cfg.Seed)
	opt := nn.NewAdamW(cfg.LR, cfg.WeightDecay)
	ce := nn.NewSoftmaxCrossEntropy()
	params := c.Model.Params()
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	stats := make([]EpochStats, 0, cfg.Epochs)
	tape := nn.NewTape()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		rng.Shuffle(order)
		var total float64
		pending := 0
		invBatch := 1 / float32(cfg.BatchSize)
		for _, idx := range order {
			ex := train[idx]
			if ex.Label < 0 || ex.Label >= c.Classes {
				panic(fmt.Sprintf("sft: label %d out of range for %d classes", ex.Label, c.Classes))
			}
			ids := c.Tok.Encode(ex.Text, true)
			logits := c.Model.ForwardClsTape([][]int{ids}, tape)
			loss, grad := ce.Loss(logits, []int{ex.Label})
			total += loss
			tensor.Scale(grad, grad, invBatch)
			c.Model.Backward(tape, grad)
			tape.Reset()
			pending++
			if pending == cfg.BatchSize {
				if cfg.ClipNorm > 0 {
					nn.ClipGradNorm(params, cfg.ClipNorm)
				}
				opt.Step(params)
				pending = 0
			}
		}
		if pending > 0 {
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(params, cfg.ClipNorm)
			}
			opt.Step(params)
		}
		stats = append(stats, EpochStats{
			Epoch:     epoch,
			TrainLoss: total / float64(max(1, len(train))),
			Duration:  time.Since(start),
		})
	}
	return stats
}

// MultiConfusion is a K×K confusion matrix; rows are true classes, columns
// predictions.
type MultiConfusion struct {
	Classes int
	Counts  [][]int
}

// EvaluateMulti scores the classifier on labeled examples.
func EvaluateMulti(c *MultiClassifier, examples []Example) MultiConfusion {
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
	mc := MultiConfusion{Classes: c.Classes, Counts: make([][]int, c.Classes)}
	for i := range mc.Counts {
		mc.Counts[i] = make([]int, c.Classes)
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
