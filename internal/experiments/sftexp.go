package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/baselines"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/sft"
)

// table1 regenerates Table I: dataset statistics per workflow and split at
// full Flow-Bench scale (independent of the lab's subsampling).
func (l *Lab) table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Dataset statistics (Table I)",
		Header: []string{"dataset", "split", "#normal", "#anomalous", "%anomalies"},
	}
	for _, wf := range flowbench.Workflows {
		ds := flowbench.Generate(wf, l.Scale.Seed)
		for _, st := range ds.Stats() {
			t.Add(string(wf), st.Split, st.Normal, st.Anomalous, st.Fraction())
		}
	}
	t.Notes = append(t.Notes, "counts match the paper's Table I exactly by construction; see internal/flowbench")
	return t
}

// newClassifier builds a fine-tunable classifier from a pre-trained
// checkpoint clone.
func (l *Lab) newClassifier(model string) *sft.Classifier {
	return sft.NewClassifier(l.pretrained(model), l.Tokenizer())
}

// sftConfig is the default fine-tuning recipe at lab scale.
func (l *Lab) sftConfig() sft.TrainConfig {
	cfg := sft.DefaultTrainConfig()
	cfg.Epochs = l.Scale.Epochs
	cfg.Seed = l.Scale.Seed
	return cfg
}

// figure4 regenerates Figure 4: test accuracy of every encoder before
// (pre-trained backbone, untrained head) and after SFT on 1000 Genome, with
// the MLP and GNN baselines.
func (l *Lab) figure4() *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Pre-trained vs SFT accuracy on 1000 Genome (Figure 4)",
		Header: []string{"model", "pretrain_acc", "sft_acc"},
	}
	ds := l.Dataset(flowbench.Genome)
	train := sft.JobExamples(ds.Train)
	for _, spec := range modelsEncoderOrder() {
		c := l.newClassifier(spec)
		pre := sft.Evaluate(c, ds.Test).Accuracy()
		sft.Train(c, train, nil, l.sftConfig())
		post := sft.Evaluate(c, ds.Test).Accuracy()
		t.Add(spec, pre, post)
	}
	mlp := baselines.TrainMLP(ds.Train, baselines.DefaultMLPConfig())
	t.Add("MLP (baseline)", "-", mlp.Evaluate(ds.Test).Accuracy())
	gcn := baselines.TrainGCN(ds.DAG, ds.Train, baselines.DefaultGCNConfig())
	t.Add("GNN (baseline)", "-", gcn.Evaluate(ds.DAG, ds.Test).Accuracy())
	return t
}

// figure5 regenerates Figure 5: SFT wall-clock training time versus
// parameter count for every encoder on 1000 Genome.
func (l *Lab) figure5() *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "Training time vs number of parameters (Figure 5)",
		Header: []string{"model", "params", "train_time_sec", "sft_acc"},
	}
	ds := l.Dataset(flowbench.Genome)
	train := sft.JobExamples(ds.Train)
	for _, spec := range modelsEncoderOrder() {
		c := l.newClassifier(spec)
		start := time.Now()
		sft.Train(c, train, nil, l.sftConfig())
		elapsed := time.Since(start)
		acc := sft.Evaluate(c, ds.Test).Accuracy()
		t.Add(spec, c.Model.ParamCount(), fmt.Sprintf("%.2f", elapsed.Seconds()), acc)
	}
	return t
}

// figure6 regenerates Figure 6: validation accuracy/precision/recall/F1
// across a long fine-tuning run on 1000 Genome.
func (l *Lab) figure6() *Table {
	t := &Table{
		ID:     "fig6",
		Title:  "Validation scores vs SFT epoch (Figure 6)",
		Header: []string{"epoch", "accuracy", "precision", "recall", "f1"},
	}
	ds := l.Dataset(flowbench.Genome)
	c := l.newClassifier("bert-base-uncased")
	cfg := l.sftConfig()
	cfg.Epochs = l.Scale.Fig6Epochs
	cfg.ValEvery = 1
	// A small training subset makes the overfitting regime reachable.
	trainN := min(len(ds.Train), 200)
	stats := sft.Train(c, sft.JobExamples(ds.Train[:trainN]), sft.JobExamples(ds.Val), cfg)
	for _, st := range stats {
		t.Add(st.Epoch, st.Val.Accuracy, st.Val.Precision, st.Val.Recall, st.Val.F1)
	}
	return t
}

// figure7 regenerates Figure 7: an online-detection timeline over one
// anomalous test job, prefix by prefix.
func (l *Lab) figure7() *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Online detection example (Figure 7)",
		Header: []string{"step", "sentence", "label", "score"},
	}
	ds := l.Dataset(flowbench.Genome)
	c := l.trainedGenomeClassifier()
	// Pick an anomalous job whose full sentence the model classifies
	// correctly, so the timeline shows the flip to LABEL_1.
	job := ds.Test[0]
	var anomalous []flowbench.Job
	var sentences []string
	for _, j := range ds.Test {
		if j.Label == 1 {
			anomalous = append(anomalous, j)
			sentences = append(sentences, logparse.Sentence(j))
		}
	}
	preds, _ := c.PredictBatchWS(sentences, nil)
	if i := slices.Index(preds, 1); i >= 0 {
		job = anomalous[i]
	}
	for _, step := range sft.OnlineTrace(c, job) {
		t.Add(fmt.Sprintf("T%d", step.K), step.Sentence, fmt.Sprintf("LABEL_%d", step.Label), step.Score)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("true label: LABEL_%d (%s)", job.Label, job.Anomaly))
	return t
}

// figure8 regenerates Figure 8: the early-detection histogram — how many
// test jobs are first classified correctly at each feature prefix.
func (l *Lab) figure8() *Table {
	t := &Table{
		ID:     "fig8",
		Title:  "Early detection histogram (Figure 8)",
		Header: []string{"feature", "#samples_first_correct"},
	}
	ds := l.Dataset(flowbench.Genome)
	c := l.trainedGenomeClassifier()
	hist, missed := sft.EarlyDetection(c, ds.Test)
	for i, name := range flowbench.FeatureNames {
		t.Add(name, hist[i])
	}
	t.Notes = append(t.Notes, fmt.Sprintf("never correct at any prefix: %d", missed))
	return t
}

// trainedGenomeClassifier returns a bert-base-uncased classifier fine-tuned
// on the genome training split (shared by Figures 7 and 8).
func (l *Lab) trainedGenomeClassifier() *sft.Classifier {
	ds := l.Dataset(flowbench.Genome)
	c := l.newClassifier("bert-base-uncased")
	sft.Train(c, sft.JobExamples(ds.Train), nil, l.sftConfig())
	return c
}

// figure9 regenerates Figure 9: the empty-input prediction probe across
// encoders, averaged over independent fine-tuning runs, with and without
// the label-balanced empty-sentence augmentation.
func (l *Lab) figure9() *Table {
	t := &Table{
		ID:    "fig9",
		Title: "Empty-string bias before/after debias augmentation (Figure 9)",
		Header: []string{
			"model", "p_normal_plain", "p_abnormal_plain", "gap_plain", "gap_augmented",
		},
	}
	ds := l.Dataset(flowbench.Genome)
	trainN := min(len(ds.Train), 150)
	examples := sft.JobExamples(ds.Train[:trainN])
	for _, spec := range modelsEncoderOrder() {
		var pN, pA, gapPlain, gapAug float64
		for run := 0; run < l.Scale.Runs; run++ {
			cfg := l.sftConfig()
			cfg.Epochs = max(2, l.Scale.Epochs)
			cfg.Seed = l.Scale.Seed + uint64(run)*31

			c := l.newClassifier(spec)
			sft.Train(c, examples, nil, cfg)
			probe := sft.BiasProbe(c)
			pN += float64(probe[0])
			pA += float64(probe[1])
			gapPlain += math.Abs(float64(probe[0] - probe[1]))

			c2 := l.newClassifier(spec)
			cfg.Augment = sft.DebiasAugmentation(80)
			sft.Train(c2, examples, nil, cfg)
			probe2 := sft.BiasProbe(c2)
			gapAug += math.Abs(float64(probe2[0] - probe2[1]))
		}
		runs := float64(l.Scale.Runs)
		t.Add(spec, pN/runs, pA/runs, gapPlain/runs, gapAug/runs)
	}
	return t
}

// figure10 regenerates Figure 10: the 3×3 SFT transfer matrix — train
// bert-base-uncased on one workflow, evaluate on every workflow's test set.
func (l *Lab) figure10() *Table {
	t := &Table{
		ID:     "fig10",
		Title:  "SFT transfer matrix, bert-base-uncased (Figure 10)",
		Header: []string{"train\\eval", "1000-genome", "montage", "predict-future-sales"},
	}
	for _, trainWF := range flowbench.Workflows {
		c := l.newClassifier("bert-base-uncased")
		sft.Train(c, sft.JobExamples(l.Dataset(trainWF).Train), nil, l.sftConfig())
		row := []interface{}{string(trainWF)}
		for _, evalWF := range flowbench.Workflows {
			row = append(row, sft.Evaluate(c, l.Dataset(evalWF).Test).Accuracy())
		}
		t.Add(row...)
	}
	return t
}

// figure11 regenerates Figure 11: accuracy on Montage of a genome-trained
// model after fine-tuning on increasing fractions of Montage training data.
func (l *Lab) figure11() *Table {
	t := &Table{
		ID:     "fig11",
		Title:  "Transfer fine-tuning on target-domain data (Figure 11)",
		Header: []string{"pct_target_train_data", "montage_test_accuracy"},
	}
	base := l.newClassifier("bert-base-uncased")
	genome := l.Dataset(flowbench.Genome)
	montage := l.Dataset(flowbench.Montage)
	sft.Train(base, sft.JobExamples(genome.Train), nil, l.sftConfig())
	for _, pct := range []int{0, 20, 40, 60, 80, 100} {
		c := sft.NewClassifier(base.Model.Clone(), base.Tok)
		n := len(montage.Train) * pct / 100
		if n > 0 {
			cfg := l.sftConfig()
			cfg.Epochs = max(1, l.Scale.Epochs-1)
			sft.Train(c, sft.JobExamples(montage.Train[:n]), nil, cfg)
		}
		t.Add(pct, sft.Evaluate(c, montage.Test).Accuracy())
	}
	return t
}

// table2 regenerates Table II: catastrophic forgetting under sequential
// fine-tuning (D1 = 1000 Genome, D2 = Montage) and its mitigation by
// freezing everything but the final linear head.
func (l *Lab) table2() *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Freezing parameters vs catastrophic forgetting (Table II)",
		Header: []string{"strategy", "params_updated", "genome_acc", "genome_prec", "train_time_sec"},
	}
	d1 := l.Dataset(flowbench.Genome)
	d2 := l.Dataset(flowbench.Montage)
	d1train := sft.JobExamples(d1.Train)
	d2train := sft.JobExamples(d2.Train)

	evalD1 := func(c *sft.Classifier) (float64, float64) {
		conf := sft.Evaluate(c, d1.Test)
		return conf.Accuracy(), conf.Precision()
	}

	// SFT(D1), all parameters.
	c1 := l.newClassifier("bert-base-uncased")
	start := time.Now()
	sft.Train(c1, d1train, nil, l.sftConfig())
	t1 := time.Since(start)
	acc1, prec1 := evalD1(c1)
	t.Add("SFT (D1)", "All", acc1, prec1, fmt.Sprintf("%.2f", t1.Seconds()))

	// SFT(D1+D2), all parameters: continue training on D2, then re-evaluate
	// on D1 — catastrophic forgetting shows as an accuracy drop.
	c2 := sft.NewClassifier(c1.Model.Clone(), c1.Tok)
	start = time.Now()
	sft.Train(c2, d2train, nil, l.sftConfig())
	t2 := time.Since(start)
	acc2, prec2 := evalD1(c2)
	t.Add("SFT (D1+D2)", "All", acc2, prec2, fmt.Sprintf("%.2f", (t1+t2).Seconds()))

	// SFT(D1+D2), linear head only: the backbone is frozen and features are
	// cached, so head epochs are nearly free — the linear strategy gets a
	// much larger epoch budget and still finishes far faster.
	c3 := l.newClassifier("bert-base-uncased")
	linCfg := l.sftConfig()
	linCfg.Epochs = l.Scale.Epochs * 10
	start = time.Now()
	sft.TrainHeadOnly(c3, d1train, linCfg)
	sft.TrainHeadOnly(c3, d2train, linCfg)
	t3 := time.Since(start)
	acc3, prec3 := evalD1(c3)
	t.Add("SFT (D1+D2)", "Linear", acc3, prec3, fmt.Sprintf("%.2f", t3.Seconds()))
	return t
}

// modelsEncoderOrder returns the encoder names in Figure 4's order.
func modelsEncoderOrder() []string {
	return []string{
		"albert-base-v2", "albert-large-v2",
		"bert-base-cased", "bert-base-uncased",
		"bert-large-cased", "bert-large-uncased",
		"distilbert-base-cased", "distilbert-base-uncased",
		"roberta-base", "roberta-large",
		"xlnet-base-cased", "xlnet-large-cased",
	}
}
