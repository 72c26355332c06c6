// Command iclrun performs in-context-learning anomaly detection with a
// decoder model: zero-shot or few-shot prompting, optional quantized LoRA
// fine-tuning, and optional chain-of-thought output for a sample query.
//
//	iclrun -model mistral -workflow 1000-genome -shots 5 -mix mixed
//	iclrun -model gpt2 -shots 0                  # zero-shot
//	iclrun -model mistral -ft -cot               # fine-tune, then show CoT
//	iclrun -model mistral -ft -save icl.artifact # save detector for anomalyd -load
//
// -save writes a complete detector artifact — weights (including LoRA
// adapters when -ft is set), tokenizer vocabulary, and the few-shot example
// set — that anomalyd -load serves with zero training at boot.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/logparse"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/tokenizer"
)

func main() {
	var (
		model    = flag.String("model", "mistral", "decoder model name: gpt2, mistral, llama2")
		workflow = flag.String("workflow", "1000-genome", "evaluation workflow")
		shots    = flag.Int("shots", 5, "number of in-context examples (0 = zero-shot)")
		mixName  = flag.String("mix", "mixed", "example mix: mixed, pos-only, neg-only")
		ft       = flag.Bool("ft", false, "LoRA fine-tune (with 4-bit quantized base) before evaluating")
		ftSteps  = flag.Int("ft-steps", 400, "LoRA fine-tuning steps")
		cot      = flag.Bool("cot", false, "print a chain-of-thought classification of one test job")
		evalN    = flag.Int("eval", 200, "number of test queries")
		preSteps = flag.Int("pretrain", 400, "CLM pre-training steps")
		seed     = flag.Uint64("seed", 42, "seed")
		save     = flag.String("save", "", "write the detector artifact (weights + few-shot examples) to this path")
		quantize = flag.Bool("quantize", false, "int8-quantize after fine-tuning (merging any LoRA adapters): evaluation and the saved artifact use the integer inference path")
	)
	flag.Parse()

	spec, ok := models.Get(*model)
	if !ok || spec.Kind != models.Decoder {
		fmt.Fprintf(os.Stderr, "iclrun: %q is not a registered decoder model\n", *model)
		os.Exit(2)
	}
	var mix icl.ExampleMix
	switch *mixName {
	case "mixed":
		mix = icl.Mixed
	case "pos-only":
		mix = icl.PositiveOnly
	case "neg-only":
		mix = icl.NegativeOnly
	default:
		fmt.Fprintf(os.Stderr, "iclrun: unknown mix %q\n", *mixName)
		os.Exit(2)
	}

	ds := flowbench.Generate(flowbench.Workflow(*workflow), *seed).
		Subsample(1500, 200, *evalN, *seed+1)
	corpus := pretrain.BuildCorpus(pretrain.DefaultCorpus())
	corpus = append(corpus, logparse.Corpus(ds.Train)...)
	tok := tokenizer.Build(corpus)

	fmt.Printf("pre-training %s (CLM, %d steps, vocab %d)...\n", *model, *preSteps, tok.VocabSize())
	m := spec.Build(tok.VocabSize())
	pretrain.CLM(m, tok, corpus, pretrain.Options{Steps: *preSteps, LR: 3e-3, Seed: *seed})
	d := icl.NewDetector(m, tok)

	if *ft {
		cfg := icl.DefaultFineTuneConfig()
		cfg.Steps = *ftSteps
		cfg.Seed = *seed
		fmt.Printf("LoRA fine-tuning (%d steps, rank %d, 4-bit base)...\n", cfg.Steps, cfg.Rank)
		res := icl.FineTune(d, ds.Train, cfg)
		fmt.Printf("trainable %d / %d params (%.2f%%); base weights %d B quantized vs %d B fp32\n",
			res.TrainableParams, res.TotalParams, 100*res.TrainableFraction(),
			res.QuantBytes, res.FP32Bytes)
	}

	if *quantize {
		stats := m.QuantizeInt8(0)
		fmt.Printf("quantized %d projections to int8: %d B serialized vs %d B fp32 (%.1fx smaller)\n",
			stats.Layers, stats.CodesBytes, stats.FP32Bytes, float64(stats.FP32Bytes)/float64(stats.CodesBytes))
	}

	exs := icl.PromptExamples(icl.SelectExamples(ds.Train, *shots, mix, *seed))
	if *save != "" {
		if err := core.SaveDetectorFile(*save, core.NewICLDetector(d, exs), nil); err != nil {
			fmt.Fprintln(os.Stderr, "iclrun:", err)
			os.Exit(1)
		}
		fmt.Printf("detector artifact written to %s (serve with: anomalyd -load %s)\n", *save, *save)
	}
	fmt.Printf("evaluating %d queries with %d-shot %s prompts...\n", len(ds.Test), *shots, mix)
	conf := icl.Evaluate(d, ds.Test, exs)
	fmt.Printf("test: %s\n", conf)
	labels, scores := icl.AnomalyScores(d, ds.Test, exs)
	fmt.Printf("roc_auc=%.4f ave_prec=%.4f prec@k=%.4f\n",
		metrics.ROCAUC(labels, scores),
		metrics.AveragePrecision(labels, scores),
		metrics.PrecisionAtK(labels, scores, 0))

	if *cot {
		ctx := icl.SelectExamples(ds.Train, max(8, *shots), icl.Mixed, *seed)
		res := icl.ChainOfThought(d, ds.Test[0], ctx)
		fmt.Println("\n--- chain-of-thought example ---")
		fmt.Println(res.Text)
		fmt.Printf("(true label: %s)\n", logparse.LabelWord(ds.Test[0].Label))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
