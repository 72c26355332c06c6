// Command sfttrain fine-tunes an encoder model on a workflow dataset and
// reports test metrics — the supervised-fine-tuning pipeline of the paper as
// a standalone tool.
//
//	sfttrain -model bert-base-uncased -workflow 1000-genome -epochs 3
//	sfttrain -model distilbert-base-cased -train 2000 -freeze -save genome.artifact
//
// -save writes a complete detector artifact (weights + tokenizer vocabulary,
// checksummed) that anomalyd -load serves with zero training at boot.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/pretrain"
	"repro/internal/sft"
	"repro/internal/tokenizer"
)

func main() {
	var (
		model    = flag.String("model", "bert-base-uncased", "encoder model name (see internal/models)")
		workflow = flag.String("workflow", "1000-genome", "training workflow")
		trainN   = flag.Int("train", 1500, "training subsample size")
		testN    = flag.Int("test", 500, "test subsample size")
		epochs   = flag.Int("epochs", 3, "fine-tuning epochs")
		preSteps = flag.Int("pretrain", 400, "MLM pre-training steps before SFT")
		freeze   = flag.Bool("freeze", false, "freeze the backbone; train only the classification head")
		debias   = flag.Bool("debias", false, "add the empty-sentence debiasing augmentation")
		seed     = flag.Uint64("seed", 42, "seed")
		save     = flag.String("save", "", "write the trained detector artifact to this path (serve with anomalyd -load)")
		quantize = flag.Bool("quantize", false, "int8-quantize after training: evaluation and the saved artifact use the integer inference path")
	)
	flag.Parse()

	spec, ok := models.Get(*model)
	if !ok || spec.Kind != models.Encoder {
		fmt.Fprintf(os.Stderr, "sfttrain: %q is not a registered encoder model\n", *model)
		os.Exit(2)
	}

	ds := flowbench.Generate(flowbench.Workflow(*workflow), *seed).
		Subsample(*trainN, 200, *testN, *seed+1)
	corpus := pretrain.BuildCorpus(pretrain.DefaultCorpus())
	corpus = append(corpus, logparse.Corpus(ds.Train)...)
	tok := tokenizer.Build(corpus)

	fmt.Printf("pre-training %s (MLM, %d steps, vocab %d)...\n", *model, *preSteps, tok.VocabSize())
	m := spec.Build(tok.VocabSize())
	loss := pretrain.MLM(m, tok, corpus, pretrain.Options{Steps: *preSteps, LR: 3e-3, Seed: *seed})
	fmt.Printf("pre-training final loss: %.4f\n", loss)

	if *freeze {
		m.FreezeBackbone()
		fmt.Println("backbone frozen: training classification head only")
	}
	c := sft.NewClassifier(m, tok)
	cfg := sft.DefaultTrainConfig()
	cfg.Epochs = *epochs
	cfg.Seed = *seed
	cfg.ValEvery = 1
	if *debias {
		cfg.Augment = sft.DebiasAugmentation(40)
	}
	fmt.Printf("fine-tuning on %d %s jobs for %d epochs...\n", len(ds.Train), *workflow, *epochs)
	for _, st := range sft.Train(c, sft.JobExamples(ds.Train), sft.JobExamples(ds.Val), cfg) {
		fmt.Printf("epoch %d: loss=%.4f val_acc=%.4f val_f1=%.4f (%.1fs)\n",
			st.Epoch, st.TrainLoss, st.Val.Accuracy, st.Val.F1, st.Duration.Seconds())
	}
	if *quantize {
		// Quantize before evaluation so the reported metrics are the served
		// (int8) detector's, not the fp32 weights the artifact no longer has.
		stats := m.QuantizeInt8(0)
		fmt.Printf("quantized %d projections to int8: %d B serialized vs %d B fp32 (%.1fx smaller)\n",
			stats.Layers, stats.CodesBytes, stats.FP32Bytes, float64(stats.FP32Bytes)/float64(stats.CodesBytes))
	}
	conf := sft.Evaluate(c, ds.Test)
	fmt.Printf("test: %s\n", conf)
	probe := sft.BiasProbe(c)
	fmt.Printf("empty-input probe: p(normal)=%.3f p(abnormal)=%.3f\n", probe[0], probe[1])

	if *save != "" {
		if err := core.SaveDetectorFile(*save, core.NewSFTDetector(c), nil); err != nil {
			fmt.Fprintln(os.Stderr, "sfttrain:", err)
			os.Exit(1)
		}
		fmt.Printf("detector artifact written to %s (serve with: anomalyd -load %s)\n", *save, *save)
	}
}
