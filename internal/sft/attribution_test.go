package sft

import (
	"strings"
	"testing"

	"repro/internal/flowbench"
	"repro/internal/logparse"
)

func TestSentenceWithout(t *testing.T) {
	var j flowbench.Job
	for i := range j.Features {
		j.Features[i] = float64(i + 1)
	}
	s := sentenceWithout(j, flowbench.FRuntime)
	if strings.Contains(s, "runtime") {
		t.Fatalf("occluded sentence still mentions runtime: %q", s)
	}
	if !strings.Contains(s, "wms_delay") || !strings.Contains(s, "cpu_time") {
		t.Fatalf("occlusion removed too much: %q", s)
	}
	// Occluding the first feature must not leave a leading space.
	s0 := sentenceWithout(j, 0)
	if strings.HasPrefix(s0, " ") {
		t.Fatalf("leading space after occluding first feature: %q", s0)
	}
}

func TestAttributeCoversAllFeatures(t *testing.T) {
	c, ds := testSetup(t, 5)
	attrs := Attribute(c, ds.Test[0])
	if len(attrs) != flowbench.NumFeatures {
		t.Fatalf("attributions = %d", len(attrs))
	}
	seen := map[string]bool{}
	for _, a := range attrs {
		seen[a.Feature] = true
	}
	for _, name := range flowbench.FeatureNames {
		if !seen[name] {
			t.Fatalf("missing attribution for %s", name)
		}
	}
	// Sorted by |Delta| descending.
	abs := func(v float64) float64 {
		if v < 0 {
			return -v
		}
		return v
	}
	for i := 1; i < len(attrs); i++ {
		if abs(attrs[i].Delta) > abs(attrs[i-1].Delta)+1e-12 {
			t.Fatal("attributions not sorted by magnitude")
		}
	}
}

// TestAttributionFindsCPUAnomalySignal trains a classifier, then checks the
// occlusion attribution for CPU-anomalous jobs points at runtime/cpu_time
// signals more often than chance.
func TestAttributionFindsCPUAnomalySignal(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	c, ds := testSetup(t, 300)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	Train(c, JobExamples(ds.Train), nil, cfg)

	var cpu []flowbench.Job
	var sentences []string
	for _, j := range ds.Test {
		if j.Anomaly.IsCPU() {
			cpu = append(cpu, j)
			sentences = append(sentences, logparse.Sentence(j))
		}
	}
	preds, _ := c.PredictBatchWS(sentences, nil)
	hits, total := 0, 0
	for i, j := range cpu {
		if preds[i] != 1 {
			continue // only explain detected anomalies
		}
		total++
		culprit := TopCulprit(Attribute(c, j))
		if culprit == "runtime" || culprit == "cpu_time" {
			hits++
		}
	}
	if total == 0 {
		t.Skip("no detected CPU anomalies at this scale")
	}
	// Chance level would be ~2/9 ≈ 0.22; require a clear majority.
	if frac := float64(hits) / float64(total); frac < 0.5 {
		t.Fatalf("runtime/cpu_time blamed for only %.0f%% of CPU anomalies", 100*frac)
	}
}

func TestTopCulprit(t *testing.T) {
	attrs := []FeatureAttribution{
		{Feature: "a", Delta: -0.5},
		{Feature: "b", Delta: 0.3},
		{Feature: "c", Delta: 0.1},
	}
	if got := TopCulprit(attrs); got != "b" {
		t.Fatalf("TopCulprit = %q", got)
	}
	if got := TopCulprit([]FeatureAttribution{{Feature: "a", Delta: -1}}); got != "" {
		t.Fatalf("all-negative TopCulprit = %q", got)
	}
}

func TestEarlyStoppingPatience(t *testing.T) {
	c, ds := testSetup(t, 120)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 12
	cfg.ValEvery = 1
	cfg.Patience = 2
	stats := Train(c, JobExamples(ds.Train), JobExamples(ds.Val[:50]), cfg)
	if len(stats) == 0 {
		t.Fatal("no epochs ran")
	}
	// With patience 2 on a quickly saturating task, training should stop
	// before the full 12 epochs (or at worst run them all — but the stop
	// logic must never produce more).
	if len(stats) > 12 {
		t.Fatalf("ran %d epochs, budget 12", len(stats))
	}
}

func TestShouldStopLogic(t *testing.T) {
	mk := func(accs ...float64) []EpochStats {
		out := make([]EpochStats, len(accs))
		for i, a := range accs {
			out[i] = EpochStats{Epoch: i, HasVal: true}
			out[i].Val.Accuracy = a
		}
		return out
	}
	if shouldStop(mk(0.5, 0.6), 2) {
		t.Fatal("must not stop while improving")
	}
	if !shouldStop(mk(0.7, 0.6, 0.6), 2) {
		t.Fatal("must stop after 2 non-improving evals")
	}
	if shouldStop(mk(0.5, 0.6, 0.7), 2) {
		t.Fatal("must not stop when best is latest")
	}
}
