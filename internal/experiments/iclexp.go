package experiments

import (
	"errors"
	"fmt"

	"repro/internal/baselines"
	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/metrics"
)

// newDetector builds an ICL detector from a pre-trained decoder checkpoint
// clone.
func (l *Lab) newDetector(model string) *icl.Detector {
	return icl.NewDetector(l.pretrained(model), l.Tokenizer())
}

// iclTest returns the capped query set for ICL evaluation.
func (l *Lab) iclTest(wf flowbench.Workflow) []flowbench.Job {
	test := l.Dataset(wf).Test
	if len(test) > l.Scale.ICLEval {
		test = test[:l.Scale.ICLEval]
	}
	return test
}

// iclFTConfig is the LoRA fine-tuning recipe at lab scale.
func (l *Lab) iclFTConfig() icl.FineTuneConfig {
	cfg := icl.DefaultFineTuneConfig()
	cfg.Steps = l.Scale.ICLFTSteps
	cfg.Seed = l.Scale.Seed
	return cfg
}

// decoderOrder lists the Table III models.
func decoderOrder() []string { return []string{"gpt2", "mistral", "llama2"} }

// table3 regenerates Table III: few-shot ICL accuracy on 1000 Genome for
// each decoder, with and without quantized LoRA fine-tuning, across the
// three example mixes, plus the LoRA parameter-efficiency columns.
func (l *Lab) table3() *Table {
	t := &Table{
		ID:    "table3",
		Title: "ICL accuracy with LoRA fine-tuning (Table III)",
		Header: []string{
			"model", "all_params", "lora_params", "lora_pct", "ft",
			"fewshot_neg_only", "fewshot_pos_only", "fewshot_mixed",
		},
	}
	ds := l.Dataset(flowbench.Genome)
	test := l.iclTest(flowbench.Genome)
	const shots = 5
	evalMixes := func(d *icl.Detector) [3]float64 {
		var out [3]float64
		for i, mix := range []icl.ExampleMix{icl.NegativeOnly, icl.PositiveOnly, icl.Mixed} {
			exs := icl.PromptExamples(icl.SelectExamples(ds.Train, shots, mix, l.Scale.Seed+uint64(i)))
			out[i] = icl.Evaluate(d, test, exs).Accuracy()
		}
		return out
	}
	for _, name := range decoderOrder() {
		base := l.newDetector(name)
		accPre := evalMixes(base)

		ft := l.newDetector(name)
		res := icl.FineTune(ft, ds.Train, l.iclFTConfig())
		accFT := evalMixes(ft)

		total := res.TotalParams
		t.Add(name, total, res.TrainableParams,
			fmt.Sprintf("%.2f%%", 100*res.TrainableFraction()), "no",
			accPre[0], accPre[1], accPre[2])
		t.Add(name, total, res.TrainableParams,
			fmt.Sprintf("%.2f%%", 100*res.TrainableFraction()), "yes",
			accFT[0], accFT[1], accFT[2])
	}
	return t
}

// figure12 regenerates Figure 12: accuracy versus the number of prompt
// examples for every decoder and example mix (pre-trained models, no
// fine-tuning).
func (l *Lab) figure12() *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "Accuracy vs number of examples in prompt (Figure 12)",
		Header: []string{"model", "mix", "shots", "accuracy"},
	}
	ds := l.Dataset(flowbench.Genome)
	test := l.iclTest(flowbench.Genome)
	for _, name := range decoderOrder() {
		d := l.newDetector(name)
		for _, mix := range []icl.ExampleMix{icl.Mixed, icl.PositiveOnly, icl.NegativeOnly} {
			for _, shots := range l.Scale.Fig12Shots {
				exs := icl.PromptExamples(icl.SelectExamples(ds.Train, shots, mix, l.Scale.Seed+uint64(shots)))
				acc := icl.Evaluate(d, test, exs).Accuracy()
				t.Add(name, mix.String(), shots, acc)
			}
		}
	}
	t.Notes = append(t.Notes, "shots=0 is zero-shot (task description only)")
	return t
}

// table4 regenerates Table IV: zero-shot LLMs (with and without LoRA
// fine-tuning) against unsupervised detectors on ROC-AUC, average precision,
// and precision@k over 1000 Genome.
func (l *Lab) table4() *Table {
	t := &Table{
		ID:     "table4",
		Title:  "Zero-shot learning vs unsupervised learning (Table IV)",
		Header: []string{"model", "roc_auc", "ave_prec", "prec_at_k"},
	}
	ds := l.Dataset(flowbench.Genome)
	test := l.iclTest(flowbench.Genome)
	labels := baselines.Labels(test)
	addScores := func(name string, scores []float64) {
		t.Add(name,
			metrics.ROCAUC(labels, scores),
			metrics.AveragePrecision(labels, scores),
			metrics.PrecisionAtK(labels, scores, 0))
	}

	iforest := baselines.FitIsolationForest(ds.Train, baselines.DefaultIForestConfig())
	addScores("IF", iforest.Score(test))
	pca := baselines.FitPCA(ds.Train, 4, l.Scale.Seed)
	addScores("PCA", pca.Score(test))
	mlpae := baselines.FitMLPAE(ds.Train, baselines.DefaultAEConfig())
	addScores("MLPAE", mlpae.Score(test))
	gcnae := baselines.FitGCNAE(ds.DAG, ds.Train, baselines.DefaultAEConfig())
	addScores("GCNAE", gcnae.Score(ds.DAG, test))

	// AnomalyDAE on the full training graph exceeds the memory guard, as on
	// the paper's A100.
	full := flowbench.Generate(flowbench.Genome, l.Scale.Seed)
	if _, err := baselines.FitAnomalyDAE(full.DAG, full.Train, baselines.DefaultAEConfig(), 8<<30); errors.Is(err, baselines.ErrOOM) {
		t.Add("AnomalyDAE", "OOM", "OOM", "OOM")
	} else {
		t.Add("AnomalyDAE", "unexpected", "unexpected", "unexpected")
	}

	for _, name := range decoderOrder() {
		base := l.newDetector(name)
		_, scores := icl.AnomalyScores(base, test, nil) // zero-shot
		addScores(name+" (w/o FT)", scores)

		ft := l.newDetector(name)
		icl.FineTune(ft, ds.Train, l.iclFTConfig())
		_, ftScores := icl.AnomalyScores(ft, test, nil)
		addScores(name+" (w/ FT)", ftScores)
	}
	return t
}

// figure13 regenerates Figure 13: a chain-of-thought classification of a
// single job, with the step-by-step reasoning in the table notes.
func (l *Lab) figure13() *Table {
	t := &Table{
		ID:     "fig13",
		Title:  "Chain-of-Thought interpretability (Figure 13)",
		Header: []string{"query_label", "predicted", "confidence", "reasoning_steps"},
	}
	ds := l.Dataset(flowbench.Genome)
	d := l.newDetector("mistral")
	icl.FineTune(d, ds.Train, l.iclFTConfig())
	ctx := icl.SelectExamples(ds.Train, 8, icl.Mixed, l.Scale.Seed)
	// Prefer a normal query, matching the paper's worked example.
	query := ds.Test[0]
	for _, j := range ds.Test {
		if j.Label == 0 {
			query = j
			break
		}
	}
	res := icl.ChainOfThought(d, query, ctx)
	t.Add(query.Label, res.Label, res.Confidence, len(res.Steps))
	t.Notes = append(t.Notes, "model input:\n"+res.Prompt)
	t.Notes = append(t.Notes, "model output:\n"+res.Text)
	return t
}

// figure14 regenerates Figure 14: the 3×3 ICL transfer matrix — LoRA
// fine-tune Mistral on one workflow, then evaluate on each workflow with 10
// in-prompt examples drawn from the evaluation workflow.
func (l *Lab) figure14() *Table {
	t := &Table{
		ID:     "fig14",
		Title:  "ICL transfer matrix, mistral (Figure 14)",
		Header: []string{"train\\eval", "1000-genome", "montage", "predict-future-sales"},
	}
	const shots = 10
	for _, trainWF := range flowbench.Workflows {
		d := l.newDetector("mistral")
		icl.FineTune(d, l.Dataset(trainWF).Train, l.iclFTConfig())
		row := []interface{}{string(trainWF)}
		for _, evalWF := range flowbench.Workflows {
			exs := icl.PromptExamples(icl.SelectExamples(l.Dataset(evalWF).Train, shots, icl.Mixed, l.Scale.Seed))
			row = append(row, icl.Evaluate(d, l.iclTest(evalWF), exs).Accuracy())
		}
		t.Add(row...)
	}
	return t
}
