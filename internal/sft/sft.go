// Package sft implements supervised fine-tuning of encoder models for
// workflow anomaly detection (Section III-A of the paper): sentence
// classification over log-derived job sentences, with the debiasing
// augmentation of Figure 9, the parameter-freezing strategy of Table II,
// transfer learning (Figures 10/11), and the online/early detection analyses
// of Figures 7/8.
//
// Train fine-tunes binary and anomaly-type classifiers alike, one
// transformer.Trainer step per mini-batch of sentences. Every prediction — the
// evaluations behind the paper's numbers and head-only training's features
// included — runs the model's one forward untaped, as the detection service
// does (Classifier.PredictBatchWS): chunks of sentences fan out over
// GOMAXPROCS goroutines that share the one model, so what they score is
// exactly what the service serves.
package sft

import (
	"fmt"
	"time"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// Example is one labeled training sentence.
type Example struct {
	// Text is the feature sentence (possibly a prefix, or empty for the
	// debiasing probe).
	Text string
	// Label is the class: 0 (normal) or 1 (abnormal), or an anomaly-type
	// class (ClassNormal, ClassCPU, ClassHDD).
	Label int
}

// JobExamples converts jobs to labeled sentence examples.
func JobExamples(jobs []flowbench.Job) []Example {
	out := make([]Example, len(jobs))
	for i, j := range jobs {
		out[i] = Example{Text: logparse.Sentence(j), Label: j.Label}
	}
	return out
}

// DebiasAugmentation returns n empty-sentence examples with alternating
// labels. Adding these to the training set forces the model to predict
// normal and abnormal with near-equal probability given no evidence — the
// augmentation that produces Figure 9(b).
func DebiasAugmentation(n int) []Example {
	out := make([]Example, n)
	for i := range out {
		out[i] = Example{Text: "", Label: i % 2}
	}
	return out
}

// Classifier couples a transformer with the tokenizer that feeds it.
type Classifier struct {
	Model *transformer.Model
	Tok   *tokenizer.Tokenizer
}

// NewClassifier wraps a model and tokenizer.
func NewClassifier(m *transformer.Model, tok *tokenizer.Tokenizer) *Classifier {
	return &Classifier{Model: m, Tok: tok}
}

// PredictBatchWS classifies a batch of sentences in one packed forward pass,
// returning per-sentence labels and (normal, abnormal) probability pairs in
// input order. Scratch comes from ws, which is used, not reset: a long-lived
// inference worker resets its own arena between batches, and a one-shot
// caller passes nil. The path reads the model without mutating it, so it is
// safe to call concurrently. The classifier must be binary (NumClasses 2).
func (c *Classifier) PredictBatchWS(texts []string, ws *tensor.Workspace) ([]int, [][2]float32) {
	if k := c.Model.Config.NumClasses; k != 2 {
		panic(fmt.Sprintf("sft: PredictBatchWS serves a binary classifier, not a %d-class one", k))
	}
	if len(texts) == 0 {
		return nil, nil
	}
	//lint:ignore hotalloc per-batch token-id scratch; workspace arenas hold flat buffers, not slices of slices
	seqs := make([][]int, len(texts))
	for i, t := range texts {
		seqs[i] = c.Tok.Encode(t, true)
	}
	logits := c.Model.ForwardClsBatchWS(seqs, ws)
	//lint:ignore hotalloc returned to the caller; results must outlive the workspace's next Reset
	labels := make([]int, len(texts))
	//lint:ignore hotalloc returned to the caller; results must outlive the workspace's next Reset
	probs := make([][2]float32, len(texts))
	for i := range texts {
		// A fixed-size array keeps the softmax scratch on the stack — the
		// old make([]float32, 2) here was one heap allocation per sentence.
		var row [2]float32
		copy(row[:], logits.Row(i))
		tensor.Softmax(row[:])
		labels[i] = tensor.ArgMax(row[:])
		probs[i] = row
	}
	return labels, probs
}

// evalChunk is how many sentences one evaluation forward packs.
const evalChunk = 32

// fanOut calls fn on [0, n) in chunks of at most evalChunk through
// tensor.FanOut, each on a pooled workspace; the goroutines share the one
// read-only model. fn writes only its own range of the caller's results, and
// a sentence's result does not depend on the chunk it lands in, so the
// outcome is the same however the chunks are scheduled.
func fanOut(n int, fn func(lo, hi int, ws *tensor.Workspace)) {
	tensor.FanOut(n, evalChunk, func(lo, hi int) {
		ws := tensor.GetWorkspace()
		defer tensor.PutWorkspace(ws)
		fn(lo, hi, ws)
	})
}

// predict is PredictBatchWS over any number of sentences, through fanOut.
func predict(c *Classifier, texts []string) ([]int, [][2]float32) {
	labels := make([]int, len(texts))
	probs := make([][2]float32, len(texts))
	fanOut(len(texts), func(lo, hi int, ws *tensor.Workspace) {
		l, p := c.PredictBatchWS(texts[lo:hi], ws)
		copy(labels[lo:], l)
		copy(probs[lo:], p)
	})
	return labels, probs
}

// TrainConfig controls fine-tuning.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// LR is the AdamW learning rate, constant over training.
	LR float64
	// WeightDecay is the decoupled weight decay.
	WeightDecay float64
	// BatchSize is the gradient-accumulation window (sequences per step).
	BatchSize int
	// ClipNorm bounds the global gradient norm (0 disables clipping).
	ClipNorm float64
	// Seed controls example shuffling.
	Seed uint64
	// Augment is appended to the training set each epoch (e.g.
	// DebiasAugmentation).
	Augment []Example
	// ValEvery evaluates on the validation set every ValEvery epochs
	// (0 = never); per-epoch scores land in the returned stats.
	ValEvery int
	// Patience stops training early when validation accuracy has not
	// improved for Patience consecutive evaluations (0 disables). Requires
	// ValEvery > 0 and a validation set. The Figure 6 finding — a few
	// epochs suffice and long training overfits — is what this knob acts
	// on.
	Patience int
}

// DefaultTrainConfig is the fine-tuning recipe used across experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 3, LR: 1e-3, WeightDecay: 0.01, BatchSize: 8, ClipNorm: 1.0, Seed: 1}
}

// EpochStats records one epoch of fine-tuning.
type EpochStats struct {
	Epoch     int
	TrainLoss float64
	Val       metrics.Scores
	HasVal    bool
	Duration  time.Duration
}

// Train fine-tunes the classifier on train, optionally tracking validation
// scores, and returns per-epoch statistics. Labels index the model's
// Config.NumClasses classes: 0/1 for the binary task, the Class* indices for
// the anomaly-type head, which takes no validation set (scoring is binary).
// Training mutates c.Model in place.
func Train(c *Classifier, train, val []Example, cfg TrainConfig) []EpochStats {
	if cfg.Epochs <= 0 {
		panic("sft: non-positive epochs")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	data := make([]Example, 0, len(train)+len(cfg.Augment))
	data = append(data, train...)
	data = append(data, cfg.Augment...)
	for _, ex := range data {
		if k := c.Model.Config.NumClasses; ex.Label < 0 || ex.Label >= k {
			panic(fmt.Sprintf("sft: label %d out of range for %d classes", ex.Label, k))
		}
	}
	rng := tensor.NewRNG(cfg.Seed)
	tr := transformer.NewTrainer(c.Model, cfg.LR, cfg.WeightDecay, cfg.ClipNorm, cfg.BatchSize)
	stats := make([]EpochStats, 0, cfg.Epochs)
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	seqs, labels := make([][]int, 0, cfg.BatchSize), make([]int, 0, cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		rng.Shuffle(order)
		var totalLoss float64
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			seqs, labels = seqs[:0], labels[:0]
			for _, idx := range order[lo:min(lo+cfg.BatchSize, len(order))] {
				seqs = append(seqs, c.Tok.Encode(data[idx].Text, true))
				labels = append(labels, data[idx].Label)
			}
			totalLoss += tr.Cls(seqs, labels)
		}
		st := EpochStats{
			Epoch:     epoch,
			TrainLoss: totalLoss / float64(max(1, len(data))),
			Duration:  time.Since(start),
		}
		if cfg.ValEvery > 0 && (epoch%cfg.ValEvery == cfg.ValEvery-1 || epoch == cfg.Epochs-1) && len(val) > 0 {
			st.Val = metrics.FromConfusion(evaluateExamples(c, val))
			st.HasVal = true
		}
		stats = append(stats, st)
		if cfg.Patience > 0 && st.HasVal && shouldStop(stats, cfg.Patience) {
			break
		}
	}
	return stats
}

// shouldStop reports whether the last Patience validation scores failed to
// improve on the best seen so far.
func shouldStop(stats []EpochStats, patience int) bool {
	best := -1.0
	bestAt := -1
	evals := 0
	for i, st := range stats {
		if !st.HasVal {
			continue
		}
		evals++
		if st.Val.Accuracy > best {
			best = st.Val.Accuracy
			bestAt = i
		}
	}
	if evals <= patience {
		return false
	}
	// Count evaluations after the best one.
	since := 0
	for _, st := range stats[bestAt+1:] {
		if st.HasVal {
			since++
		}
	}
	return since >= patience
}

// evaluateExamples scores the classifier on labeled sentences.
func evaluateExamples(c *Classifier, examples []Example) metrics.Confusion {
	labels := make([]int, len(examples))
	texts := make([]string, len(examples))
	for i, ex := range examples {
		labels[i], texts[i] = ex.Label, ex.Text
	}
	preds, _ := predict(c, texts)
	return metrics.NewConfusion(labels, preds)
}

// Evaluate scores the classifier on a job set.
func Evaluate(c *Classifier, jobs []flowbench.Job) metrics.Confusion {
	return evaluateExamples(c, JobExamples(jobs))
}

// BiasProbe predicts the empty sentence and returns the (normal, abnormal)
// probability pair — the Figure 9 probe. An unbiased model returns ≈(0.5,
// 0.5).
func BiasProbe(c *Classifier) [2]float32 {
	_, p := predict(c, []string{""})
	return p[0]
}
