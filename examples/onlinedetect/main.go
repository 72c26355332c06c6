// Online detection: stream a job's log fields one at a time through a
// fine-tuned classifier, reproducing the paper's real-time detection
// scenario (Figures 7 and 8) — including the moment the prediction flips to
// anomalous as the incriminating feature arrives.
//
//	go run ./examples/onlinedetect
package main

import (
	"fmt"
	"slices"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/sft"
)

func main() {
	ds := flowbench.Generate(flowbench.Genome, 42).Subsample(800, 100, 300, 1)
	corpus, tok := pretrain.Vocabulary(pretrain.DefaultCorpus(), ds.Train)
	model := models.MustGet("bert-base-uncased").Build(tok.VocabSize())
	pretrain.Run(model, tok, corpus, pretrain.Options{Steps: 300, LR: 3e-3, Seed: 2})
	clf := sft.NewClassifier(model, tok)
	cfg := sft.DefaultTrainConfig()
	cfg.Epochs = 3
	sft.Train(clf, sft.JobExamples(ds.Train), nil, cfg)

	// Find an anomalous job the model ultimately detects, then replay its
	// features as a stream.
	var anomalous []flowbench.Job
	var sentences []string
	for _, j := range ds.Test {
		if j.Label == 1 {
			anomalous = append(anomalous, j)
			sentences = append(sentences, logparse.Sentence(j))
		}
	}
	preds, _ := clf.PredictBatchWS(sentences, nil)
	var job flowbench.Job
	if i := slices.Index(preds, 1); i >= 0 {
		job = anomalous[i]
	}
	fmt.Printf("streaming job (true label: %s, injected anomaly: %s)\n\n",
		logparse.LabelWord(job.Label), job.Anomaly)
	for _, step := range sft.OnlineTrace(clf, job) {
		fmt.Printf("T%d: %s\n  ==> label: LABEL_%d, score: %.4f\n",
			step.K, step.Sentence, step.Label, step.Score)
	}

	// Explain the alert: occlusion attribution names the feature that
	// carries the anomaly signal.
	attrs := sft.Attribute(clf, job)
	fmt.Println("\nfeature attribution (occlusion, sorted by |impact| on anomaly score):")
	for _, a := range attrs[:4] {
		fmt.Printf("  %-18s value=%-12s delta=%+.4f\n", a.Feature, logparse.FormatValue(a.Value), a.Delta)
	}
	fmt.Printf("top culprit: %s\n", sft.TopCulprit(attrs))

	// Aggregate early-detection statistics over the whole test set (Fig 8).
	hist, missed := sft.EarlyDetection(clf, ds.Test)
	fmt.Println("\nearly detection histogram (first feature at which the true label is predicted):")
	for i, name := range flowbench.FeatureNames {
		fmt.Printf("  %-18s %4d\n", name, hist[i])
	}
	fmt.Printf("  %-18s %4d\n", "(never correct)", missed)
}
