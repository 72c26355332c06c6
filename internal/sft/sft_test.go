package sft

import (
	"math"
	"strings"
	"testing"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/tokenizer"
)

// testSetup builds a small classifier and dataset shared by training tests.
func testSetup(t *testing.T, nTrain int) (*Classifier, *flowbench.Dataset) {
	t.Helper()
	ds := flowbench.Generate(flowbench.Genome, 42).Subsample(nTrain, 100, 150, 7)
	corpus := logparse.Corpus(append(append([]flowbench.Job{}, ds.Train...), ds.Test...))
	tok := tokenizer.Build(corpus)
	m := models.MustGet("distilbert-base-uncased").Build(tok.VocabSize())
	return NewClassifier(m, tok), ds
}

func TestJobExamples(t *testing.T) {
	_, ds := testSetup(t, 10)
	exs := JobExamples(ds.Train)
	if len(exs) != 10 {
		t.Fatalf("examples = %d", len(exs))
	}
	for i, ex := range exs {
		if ex.Label != ds.Train[i].Label {
			t.Fatal("label mismatch")
		}
		if !strings.HasPrefix(ex.Text, "wms_delay is ") {
			t.Fatalf("example text = %q", ex.Text)
		}
		if strings.Contains(ex.Text, "normal") {
			t.Fatal("training text must not embed the label word (it is the target)")
		}
	}
}

func TestDebiasAugmentation(t *testing.T) {
	aug := DebiasAugmentation(6)
	if len(aug) != 6 {
		t.Fatalf("augmentation size %d", len(aug))
	}
	zeros, ones := 0, 0
	for _, ex := range aug {
		if ex.Text != "" {
			t.Fatal("debias examples must be empty sentences")
		}
		if ex.Label == 0 {
			zeros++
		} else {
			ones++
		}
	}
	if zeros != 3 || ones != 3 {
		t.Fatalf("labels unbalanced: %d/%d", zeros, ones)
	}
}

func TestTrainImprovesOverMajority(t *testing.T) {
	c, ds := testSetup(t, 300)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 4
	stats := Train(c, JobExamples(ds.Train), nil, cfg)
	if len(stats) != 4 {
		t.Fatalf("stats for %d epochs", len(stats))
	}
	if stats[len(stats)-1].TrainLoss >= stats[0].TrainLoss {
		t.Fatalf("loss did not fall: %v -> %v", stats[0].TrainLoss, stats[len(stats)-1].TrainLoss)
	}
	conf := Evaluate(c, ds.Test)
	majority := 1 - ds.Stats()[2].Fraction() // always-normal baseline
	if conf.Accuracy() <= majority {
		t.Fatalf("SFT accuracy %.3f not above majority baseline %.3f", conf.Accuracy(), majority)
	}
}

func TestTrainValidationTracking(t *testing.T) {
	c, ds := testSetup(t, 60)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.ValEvery = 1
	stats := Train(c, JobExamples(ds.Train), JobExamples(ds.Val[:40]), cfg)
	for _, st := range stats {
		if !st.HasVal {
			t.Fatal("ValEvery=1 must evaluate every epoch")
		}
		if st.Val.Accuracy < 0 || st.Val.Accuracy > 1 {
			t.Fatalf("val accuracy %v", st.Val.Accuracy)
		}
		if st.Duration <= 0 {
			t.Fatal("epoch duration not recorded")
		}
	}
}

func TestTrainZeroEpochsPanics(t *testing.T) {
	c, ds := testSetup(t, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Train(c, JobExamples(ds.Train), nil, TrainConfig{Epochs: 0})
}

func TestEvaluateMatchesPredict(t *testing.T) {
	c, ds := testSetup(t, 5)
	conf := Evaluate(c, ds.Test[:20])
	total := conf.TP + conf.FP + conf.TN + conf.FN
	if total != 20 {
		t.Fatalf("confusion total %d", total)
	}
}

func TestPredictProbsSumToOne(t *testing.T) {
	c, ds := testSetup(t, 5)
	_, probs := c.PredictBatchWS([]string{logparse.Sentence(ds.Test[0])}, nil)
	if p := probs[0]; math.Abs(float64(p[0]+p[1])-1) > 1e-5 {
		t.Fatalf("probs = %v", probs[0])
	}
}

func TestBiasProbeAndDebiasing(t *testing.T) {
	// Train on normal-only data: the model becomes biased toward "normal"
	// for the empty input.
	c, ds := testSetup(t, 400)
	var normalOnly []Example
	for _, j := range ds.Train {
		if j.Label == 0 && len(normalOnly) < 120 {
			normalOnly = append(normalOnly, Example{Text: logparse.Sentence(j), Label: 0})
		}
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	Train(c, normalOnly, nil, cfg)
	biased := BiasProbe(c)
	gapBiased := math.Abs(float64(biased[0] - biased[1]))
	if biased[0] < biased[1] {
		t.Fatalf("normal-only training should bias toward normal: %v", biased)
	}

	// Same data plus debias augmentation: the gap must shrink.
	c2, _ := testSetup(t, 5)
	cfg.Augment = DebiasAugmentation(40)
	Train(c2, normalOnly, nil, cfg)
	debiased := BiasProbe(c2)
	gapDebiased := math.Abs(float64(debiased[0] - debiased[1]))
	if gapDebiased >= gapBiased {
		t.Fatalf("debiasing did not shrink bias gap: %.3f -> %.3f", gapBiased, gapDebiased)
	}
}

func TestFreezeBackboneOnlyMovesHead(t *testing.T) {
	c, ds := testSetup(t, 40)
	c.Model.FreezeBackbone()
	before := c.Model.TokEmb.Table.W.Clone()
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	Train(c, JobExamples(ds.Train), nil, cfg)
	if !c.Model.TokEmb.Table.W.Equal(before) {
		t.Fatal("frozen backbone moved during training")
	}
}

func TestOnlineTrace(t *testing.T) {
	c, ds := testSetup(t, 5)
	steps := OnlineTrace(c, ds.Test[0])
	if len(steps) != flowbench.NumFeatures {
		t.Fatalf("steps = %d", len(steps))
	}
	for i, st := range steps {
		if st.K != i+1 || st.Feature != flowbench.FeatureNames[i] {
			t.Fatalf("step %d = %+v", i, st)
		}
		if st.Label != 0 && st.Label != 1 {
			t.Fatalf("bad label %d", st.Label)
		}
		if i > 0 && !strings.HasPrefix(st.Sentence, steps[i-1].Sentence) {
			t.Fatal("prefix sentences must grow")
		}
	}
}

func TestEarlyDetectionAccounting(t *testing.T) {
	c, ds := testSetup(t, 5)
	jobs := ds.Test[:25]
	hist, missed := EarlyDetection(c, jobs)
	total := missed
	for _, n := range hist {
		total += n
	}
	if total != len(jobs) {
		t.Fatalf("histogram+missed = %d, want %d", total, len(jobs))
	}
}
