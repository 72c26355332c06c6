// Chain-of-thought: few-shot in-context anomaly detection with a decoder
// model, quantized LoRA fine-tuning, and an interpretable step-by-step
// classification — the paper's ICL pipeline (Table III, Figure 13).
//
//	go run ./examples/cot
package main

import (
	"fmt"

	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/pretrain"
)

func main() {
	ds := flowbench.Generate(flowbench.Genome, 42).Subsample(800, 100, 120, 1)
	corpus, tok := pretrain.Vocabulary(pretrain.DefaultCorpus(), ds.Train)

	model := models.MustGet("mistral").Build(tok.VocabSize())
	fmt.Printf("pre-training mistral (%d params) with next-token prediction...\n", model.ParamCount())
	pretrain.Run(model, tok, corpus, pretrain.Options{Steps: 400, LR: 3e-3, Seed: 2})
	det := icl.NewDetector(model, tok)

	// Zero-shot vs few-shot before fine-tuning.
	test := ds.Test[:60]
	zero := icl.Evaluate(det, test, nil)
	few := icl.Evaluate(det, test, icl.PromptExamples(icl.SelectExamples(ds.Train, 5, icl.Mixed, 3)))
	fmt.Printf("zero-shot acc=%.4f | 5-shot mixed acc=%.4f\n", zero.Accuracy(), few.Accuracy())

	// Quantized LoRA fine-tuning (the paper's BitsAndBytes + LoRA recipe).
	cfg := icl.DefaultFineTuneConfig()
	cfg.Steps = 300
	res := icl.FineTune(det, ds.Train, cfg)
	fmt.Printf("LoRA: %d/%d trainable params (%.2f%%); base 4-bit: %d B vs %d B fp32\n",
		res.TrainableParams, res.TotalParams, 100*res.TrainableFraction(),
		res.QuantBytes, res.FP32Bytes)
	fewFT := icl.Evaluate(det, test, icl.PromptExamples(icl.SelectExamples(ds.Train, 5, icl.Mixed, 3)))
	fmt.Printf("after fine-tuning: 5-shot mixed acc=%.4f\n\n", fewFT.Accuracy())

	// Chain-of-thought classification of one query.
	ctx := icl.SelectExamples(ds.Train, 8, icl.Mixed, 5)
	query := test[0]
	resCoT := icl.ChainOfThought(det, query, ctx)
	fmt.Println("--- model output (chain-of-thought) ---")
	fmt.Println(resCoT.Text)
	fmt.Printf("predicted: %s (confidence %.2f); true label: %s\n",
		logparse.LabelWord(resCoT.Label), resCoT.Confidence, logparse.LabelWord(query.Label))
}
