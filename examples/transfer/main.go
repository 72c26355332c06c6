// Transfer learning: fine-tune on one workflow, evaluate on another, then
// recover accuracy with (a) target-domain fine-tuning and (b) head-only
// training that avoids catastrophic forgetting — the paper's Figures 10/11
// and Table II as a runnable walkthrough.
//
//	go run ./examples/transfer
package main

import (
	"fmt"

	"repro/internal/flowbench"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/sft"
)

func main() {
	genome := flowbench.Generate(flowbench.Genome, 42).Subsample(800, 100, 250, 1)
	montage := flowbench.Generate(flowbench.Montage, 42).Subsample(800, 100, 250, 1)

	// A shared vocabulary lets one model serve both workflows.
	corpus, tok := pretrain.Vocabulary(pretrain.DefaultCorpus(), genome.Train, montage.Train)
	base := models.MustGet("bert-base-uncased").Build(tok.VocabSize())
	pretrain.Run(base, tok, corpus, pretrain.Options{Steps: 300, LR: 3e-3, Seed: 2})

	cfg := sft.DefaultTrainConfig()
	cfg.Epochs = 3

	// 1. Train on 1000 Genome (D1); evaluate on both domains.
	d1 := sft.NewClassifier(base.Clone(), tok)
	sft.Train(d1, sft.JobExamples(genome.Train), nil, cfg)
	fmt.Printf("trained on genome:   genome acc=%.4f | montage acc=%.4f\n",
		sft.Evaluate(d1, genome.Test).Accuracy(), sft.Evaluate(d1, montage.Test).Accuracy())

	// 2. Continue fine-tuning all parameters on Montage (D2): montage
	// improves, but genome degrades — catastrophic forgetting.
	d12 := sft.NewClassifier(d1.Model.Clone(), tok)
	sft.Train(d12, sft.JobExamples(montage.Train), nil, cfg)
	fmt.Printf("then all-params D2:  genome acc=%.4f | montage acc=%.4f  (forgetting)\n",
		sft.Evaluate(d12, genome.Test).Accuracy(), sft.Evaluate(d12, montage.Test).Accuracy())

	// 3. Head-only sequential training: freeze the backbone first.
	frozen := sft.NewClassifier(base.Clone(), tok)
	frozen.Model.FreezeBackbone()
	sft.Train(frozen, sft.JobExamples(genome.Train), nil, cfg)
	sft.Train(frozen, sft.JobExamples(montage.Train), nil, cfg)
	fmt.Printf("head-only D1+D2:     genome acc=%.4f | montage acc=%.4f  (retained)\n",
		sft.Evaluate(frozen, genome.Test).Accuracy(), sft.Evaluate(frozen, montage.Test).Accuracy())

	// 4. Fine-tuning on increasing shares of target data (Figure 11).
	fmt.Println("\ntarget-domain data vs montage accuracy (genome-trained start):")
	for _, pct := range []int{0, 25, 50, 100} {
		c := sft.NewClassifier(d1.Model.Clone(), tok)
		n := len(montage.Train) * pct / 100
		if n > 0 {
			ft := cfg
			ft.Epochs = 2
			sft.Train(c, sft.JobExamples(montage.Train[:n]), nil, ft)
		}
		fmt.Printf("  %3d%% target data: montage acc=%.4f\n", pct, sft.Evaluate(c, montage.Test).Accuracy())
	}
}
