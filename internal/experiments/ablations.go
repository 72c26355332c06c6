package experiments

import (
	"fmt"

	"repro/internal/models"

	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/sft"
)

// Ablations beyond the paper's artifacts: each isolates one design choice
// the paper adopts without sweeping (pre-training budget, LoRA rank,
// quantization, debiasing) and measures its effect at repository scale.

// ablationPretrain measures SFT test accuracy as a function of the MLM
// pre-training budget — the "reduced training time and resources" claim of
// Section III-A made quantitative. Steps=0 is training from scratch, the
// regime the paper argues against.
func (l *Lab) ablationPretrain() *Table {
	t := &Table{
		ID:     "abl-pretrain",
		Title:  "Ablation: SFT accuracy vs MLM pre-training budget",
		Header: []string{"pretrain_steps", "sft_acc"},
	}
	ds := l.Dataset(flowbench.Genome)
	train := sft.JobExamples(ds.Train)
	for _, steps := range []int{0, l.Scale.PretrainSteps / 4, l.Scale.PretrainSteps, l.Scale.PretrainSteps * 3} {
		// Build a fresh checkpoint at this budget (bypassing the lab cache,
		// which is pinned to Scale.PretrainSteps).
		sub := NewLab(l.Scale)
		sub.Scale.PretrainSteps = steps
		if steps == 0 {
			sub.Scale.PretrainSteps = 1 // 1 step ≈ scratch; 0 would panic
		}
		c := sft.NewClassifier(sub.pretrained("bert-base-uncased"), sub.Tokenizer())
		cfg := l.sftConfig()
		sft.Train(c, train, nil, cfg)
		t.Add(steps, sft.Evaluate(c, ds.Test).Accuracy())
	}
	return t
}

// ablationLoRARank sweeps the LoRA rank, reporting the trainable-parameter
// share and few-shot accuracy after fine-tuning — the knob the paper fixes
// at 64 without justification.
func (l *Lab) ablationLoRARank() *Table {
	t := &Table{
		ID:     "abl-lora-rank",
		Title:  "Ablation: LoRA rank vs trainable share and accuracy",
		Header: []string{"rank", "trainable_params", "trainable_pct", "fewshot_mixed_acc"},
	}
	ds := l.Dataset(flowbench.Genome)
	test := l.iclTest(flowbench.Genome)
	exs := icl.PromptExamples(icl.SelectExamples(ds.Train, 5, icl.Mixed, l.Scale.Seed))
	for _, rank := range []int{1, 2, 4, 8, 16} {
		d := l.newDetector("gpt2")
		cfg := l.iclFTConfig()
		cfg.Rank = rank
		cfg.Alpha = float64(2 * rank)
		cfg.Quantize = false
		res := icl.FineTune(d, ds.Train, cfg)
		acc := icl.Evaluate(d, test, exs).Accuracy()
		t.Add(rank, res.TrainableParams,
			fmt.Sprintf("%.2f%%", 100*res.TrainableFraction()), acc)
	}
	return t
}

// ablationQuantization compares LoRA fine-tuning over full-precision vs
// 4-bit quantized base weights: the accuracy cost of the 8× memory saving
// the paper takes from BitsAndBytes.
func (l *Lab) ablationQuantization() *Table {
	t := &Table{
		ID:     "abl-quant",
		Title:  "Ablation: 4-bit base quantization vs full precision",
		Header: []string{"model", "base_precision", "base_bytes", "fewshot_mixed_acc"},
	}
	ds := l.Dataset(flowbench.Genome)
	test := l.iclTest(flowbench.Genome)
	exs := icl.PromptExamples(icl.SelectExamples(ds.Train, 5, icl.Mixed, l.Scale.Seed))
	for _, name := range []string{"gpt2", "mistral"} {
		// Footprints of the model's linear layers in both precisions,
		// measured on a throwaway clone.
		quantBytes, fp32Bytes := l.pretrained(name).Quantize4Bit()
		for _, quant := range []bool{false, true} {
			d := l.newDetector(name)
			cfg := l.iclFTConfig()
			cfg.Quantize = quant
			icl.FineTune(d, ds.Train, cfg)
			acc := icl.Evaluate(d, test, exs).Accuracy()
			precision, bytes := "fp32", fp32Bytes
			if quant {
				precision, bytes = "4-bit", quantBytes
			}
			t.Add(name, precision, bytes, acc)
		}
	}
	return t
}

// extensionAnomalyTypes runs the repository's extension task: 3-way
// classification of normal vs CPU-capped vs HDD-throttled jobs, reporting
// overall accuracy and per-class recall. The paper stops at binary
// detection; Flow-Bench's templates carry the type labels that make this
// possible.
func (l *Lab) extensionAnomalyTypes() *Table {
	t := &Table{
		ID:     "ext-types",
		Title:  "Extension: anomaly-type classification (normal/cpu/hdd)",
		Header: []string{"model", "accuracy", "recall_normal", "recall_cpu", "recall_hdd"},
	}
	ds := l.Dataset(flowbench.Genome)
	train := sft.TypedExamples(ds.Train)
	test := sft.TypedExamples(ds.Test)
	for _, name := range []string{"distilbert-base-uncased", "bert-base-uncased"} {
		// Type heads need a 3-class model: build fresh (the lab cache holds
		// binary-head checkpoints) and fine-tune directly.
		spec := models.MustGet(name)
		m := spec.BuildClasses(l.Tokenizer().VocabSize(), sft.NumTypeClasses)
		c := sft.NewClassifier(m, l.Tokenizer())
		cfg := l.sftConfig()
		cfg.Epochs = max(2, l.Scale.Epochs)
		sft.Train(c, train, nil, cfg)
		mc := sft.EvaluateMulti(c, test)
		t.Add(name, mc.Accuracy(),
			mc.Recall(sft.ClassNormal), mc.Recall(sft.ClassCPU), mc.Recall(sft.ClassHDD))
	}
	return t
}

// ablationDebias measures what the Figure 9 debiasing augmentation costs (or
// buys) in test accuracy, alongside the bias gap it removes.
func (l *Lab) ablationDebias() *Table {
	t := &Table{
		ID:     "abl-debias",
		Title:  "Ablation: debias augmentation vs accuracy and bias gap",
		Header: []string{"augmentation", "test_acc", "empty_input_gap"},
	}
	ds := l.Dataset(flowbench.Genome)
	train := sft.JobExamples(ds.Train)
	for _, aug := range []bool{false, true} {
		c := l.newClassifier("bert-base-uncased")
		cfg := l.sftConfig()
		if aug {
			cfg.Augment = sft.DebiasAugmentation(40)
		}
		sft.Train(c, train, nil, cfg)
		probe := sft.BiasProbe(c)
		gap := float64(probe[0] - probe[1])
		if gap < 0 {
			gap = -gap
		}
		name := "none"
		if aug {
			name = "empty-sentence (40)"
		}
		t.Add(name, sft.Evaluate(c, ds.Test).Accuracy(), gap)
	}
	return t
}
