package sft

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/models"
	"repro/internal/tokenizer"
)

func TestTypedLabel(t *testing.T) {
	cases := []struct {
		anomaly flowbench.AnomalyClass
		want    int
	}{
		{flowbench.None, ClassNormal},
		{flowbench.CPU2, ClassCPU},
		{flowbench.CPU3, ClassCPU},
		{flowbench.CPU4, ClassCPU},
		{flowbench.HDD5, ClassHDD},
		{flowbench.HDD10, ClassHDD},
	}
	for _, c := range cases {
		if got := typedLabel(flowbench.Job{Anomaly: c.anomaly}); got != c.want {
			t.Fatalf("typedLabel(%v) = %d, want %d", c.anomaly, got, c.want)
		}
	}
}

// TestAnomalyTypeClassification trains the 3-way classifier and verifies it
// separates CPU from HDD anomalies — the extension claim: the same SFT
// machinery recovers the anomaly type, not just its presence.
func TestAnomalyTypeClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	ds := flowbench.Generate(flowbench.Genome, 42).Subsample(450, 100, 200, 7)
	corpus := logparse.Corpus(append(append([]flowbench.Job{}, ds.Train...), ds.Test...))
	tok := tokenizer.Build(corpus)
	m := models.MustGet("distilbert-base-uncased").BuildClasses(tok.VocabSize(), NumTypeClasses)
	c := NewClassifier(m, tok)

	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	stats := Train(c, TypedExamples(ds.Train), nil, cfg)
	if stats[len(stats)-1].TrainLoss >= stats[0].TrainLoss {
		t.Fatalf("multi-class loss did not fall: %v -> %v",
			stats[0].TrainLoss, stats[len(stats)-1].TrainLoss)
	}

	mc := EvaluateMulti(c, TypedExamples(ds.Test))
	// Majority baseline: always-normal.
	normals := 0
	for _, j := range ds.Test {
		if j.Label == 0 {
			normals++
		}
	}
	majority := float64(normals) / float64(len(ds.Test))
	if mc.Accuracy() <= majority {
		t.Fatalf("3-way accuracy %.3f not above majority %.3f", mc.Accuracy(), majority)
	}
	// CPU and HDD have disjoint feature signatures; both classes must have
	// nonzero recall.
	if mc.Recall(ClassCPU) == 0 || mc.Recall(ClassHDD) == 0 {
		t.Fatalf("type recalls: cpu=%.3f hdd=%.3f", mc.Recall(ClassCPU), mc.Recall(ClassHDD))
	}
}

// TestTypeClassifierDigest pins the bits the 3-class training path produces:
// the SHA-256 of a small anomaly-type checkpoint after a fixed fine-tune of
// two epochs whose last mini-batch is short (60 sentences, windows of 8).
// amd64 only, as the other checkpoint digests: elsewhere the compiler may
// fuse x*y+z.
func TestTypeClassifierDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the checkpoint digest is recorded on amd64; the compiler may fuse x*y+z on %s", runtime.GOARCH)
	}
	ds := flowbench.Generate(flowbench.Genome, 42).Subsample(60, 0, 0, 7)
	tok := tokenizer.Build(logparse.Corpus(ds.Train))
	m := models.MustGet("distilbert-base-uncased").BuildClasses(tok.VocabSize(), NumTypeClasses)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	Train(NewClassifier(m, tok), TypedExamples(ds.Train), nil, cfg)
	h := sha256.New()
	if err := m.Save(h); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "c7a3416d3562799d0beb6bc7bf4f9438067d78fc29ac7d42870f08aa7ebdcff3"; got != want {
		t.Errorf("3-class checkpoint SHA-256 %s, want %s", got, want)
	}
}

func TestTrainMultiRejectsBadLabel(t *testing.T) {
	tok := tokenizer.Build([]string{"a"})
	m := models.MustGet("distilbert-base-uncased").BuildClasses(tok.VocabSize(), 3)
	c := NewClassifier(m, tok)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	Train(c, []Example{{Text: "a", Label: 7}}, nil, TrainConfig{Epochs: 1})
}

func TestMultiConfusionMetrics(t *testing.T) {
	mc := MultiConfusion{Classes: 3, Counts: [][]int{
		{8, 1, 1},
		{2, 7, 1},
		{0, 0, 10},
	}}
	if got := mc.Accuracy(); got != 25.0/30 {
		t.Fatalf("accuracy = %v", got)
	}
	if got := mc.Recall(0); got != 0.8 {
		t.Fatalf("recall(0) = %v", got)
	}
	if got := mc.Recall(2); got != 1.0 {
		t.Fatalf("recall(2) = %v", got)
	}
	empty := MultiConfusion{Classes: 1, Counts: [][]int{{0}}}
	if empty.Accuracy() != 0 || empty.Recall(0) != 0 {
		t.Fatal("empty confusion must score 0")
	}
}
