// Quickstart: the minimal end-to-end pipeline — generate a Flow-Bench-style
// dataset, pre-train a small encoder on unlabeled log sentences, fine-tune it
// for anomaly classification, and classify a few jobs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/sft"
)

func main() {
	// 1. Data: the 1000 Genome workflow, subsampled to laptop scale.
	ds := flowbench.Generate(flowbench.Genome, 42).Subsample(800, 100, 200, 1)
	fmt.Printf("dataset: %d train / %d val / %d test jobs (%.1f%% anomalous)\n",
		len(ds.Train), len(ds.Val), len(ds.Test), 100*ds.Stats()[0].Fraction())

	// 2. Vocabulary + pre-trained checkpoint (MLM over unlabeled sentences).
	corpus, tok := pretrain.Vocabulary(pretrain.DefaultCorpus(), ds.Train)
	model := models.MustGet("distilbert-base-uncased").Build(tok.VocabSize())
	fmt.Printf("model: distilbert-base-uncased (%d params, vocab %d)\n", model.ParamCount(), tok.VocabSize())
	pretrain.Run(model, tok, corpus, pretrain.Options{Steps: 300, LR: 3e-3, Seed: 2})

	// 3. Supervised fine-tuning for sentence classification.
	clf := sft.NewClassifier(model, tok)
	cfg := sft.DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.ValEvery = 1
	for _, st := range sft.Train(clf, sft.JobExamples(ds.Train), sft.JobExamples(ds.Val), cfg) {
		fmt.Printf("epoch %d: train_loss=%.4f val_acc=%.4f\n", st.Epoch, st.TrainLoss, st.Val.Accuracy)
	}

	// 4. Evaluate and classify a few jobs.
	fmt.Printf("test: %s\n", sft.Evaluate(clf, ds.Test))
	jobs := ds.Test[:3]
	sentences := make([]string, len(jobs))
	for i, j := range jobs {
		sentences[i] = logparse.Sentence(j)
	}
	preds, probs := clf.PredictBatchWS(sentences, nil)
	for i, j := range jobs {
		fmt.Printf("  %q -> %s (p=%.2f, true %s)\n",
			truncate(sentences[i], 60), logparse.LabelWord(preds[i]),
			probs[i][preds[i]], logparse.LabelWord(j.Label))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
