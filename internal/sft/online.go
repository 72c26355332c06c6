package sft

import (
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// StepPrediction is the classifier's output after observing the first K
// features of a job — one row of the Figure 7 online-detection timeline.
type StepPrediction struct {
	// K is the number of features observed (1-based).
	K int
	// Feature is the newest feature's name.
	Feature string
	// Sentence is the prefix sentence presented to the model.
	Sentence string
	// Label is the predicted label.
	Label int
	// Score is the probability of the predicted label.
	Score float32
}

// OnlineTrace classifies every prefix of a job's feature sequence,
// simulating real-time detection as log fields stream in (Figure 7).
func OnlineTrace(c *Classifier, j flowbench.Job) []StepPrediction {
	texts := make([]string, flowbench.NumFeatures)
	for k := range texts {
		texts[k] = logparse.Prefix(j, k+1)
	}
	labels, probs := predict(c, texts)
	out := make([]StepPrediction, len(texts))
	for k, text := range texts {
		out[k] = StepPrediction{
			K:        k + 1,
			Feature:  flowbench.FeatureNames[k],
			Sentence: text,
			Label:    labels[k],
			Score:    probs[k][labels[k]],
		}
	}
	return out
}

// EarlyDetection computes the Figure 8 histogram: for each job, the first
// prefix length at which the model predicts the job's true label; the
// result counts jobs per feature index (0-based). Jobs never classified
// correctly at any prefix are counted in the returned missed total. It works
// in rounds — round k classifies prefix k of every job no earlier round
// resolved — so a job is classified up to its first correct prefix and never
// past it, while each round is one batched evaluation.
func EarlyDetection(c *Classifier, jobs []flowbench.Job) (histogram [flowbench.NumFeatures]int, missed int) {
	pending := append([]flowbench.Job(nil), jobs...)
	for k := 1; k <= flowbench.NumFeatures && len(pending) > 0; k++ {
		texts := make([]string, len(pending))
		for i, j := range pending {
			texts[i] = logparse.Prefix(j, k)
		}
		preds, _ := predict(c, texts)
		unresolved := pending[:0]
		for i, j := range pending {
			if preds[i] == j.Label {
				histogram[k-1]++
			} else {
				unresolved = append(unresolved, j)
			}
		}
		pending = unresolved
	}
	return histogram, len(pending)
}
