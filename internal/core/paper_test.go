package core

import (
	"testing"

	"repro/internal/flowbench"
	"repro/internal/icl"
	"repro/internal/logparse"
	"repro/internal/metrics"
	"repro/internal/sft"
)

// servedConfusion scores the verdicts a detector serves for jobs.
func servedConfusion(det Detector, jobs []flowbench.Job) metrics.Confusion {
	sentences := make([]string, len(jobs))
	labels := make([]int, len(jobs))
	for i, j := range jobs {
		sentences[i] = logparse.Sentence(j)
		labels[i] = j.Label
	}
	results := det.DetectBatch(sentences)
	preds := make([]int, len(jobs))
	for i, r := range results {
		preds[i] = r.Label
	}
	return metrics.NewConfusion(labels, preds)
}

// TestSFTEvaluateMatchesServedVerdicts pins that the paper's SFT numbers
// (sft.Evaluate, behind Figures 4–11 and Table II) are computed from the
// verdicts the service would return for the same jobs.
func TestSFTEvaluateMatchesServedVerdicts(t *testing.T) {
	det, ds := detector(t)
	d, ok := det.(*localDetector)
	if !ok || d.approach != SFT {
		t.Fatalf("test detector is %T", det)
	}
	if got, want := sft.Evaluate(sft.NewClassifier(d.model, d.tok), ds.Test), servedConfusion(det, ds.Test); got != want {
		t.Fatalf("sft.Evaluate %+v != served %+v", got, want)
	}
}

// TestICLEvaluateMatchesServedVerdicts is the same pin for the ICL numbers
// (icl.Evaluate, behind Tables III–IV and Figures 12 and 14).
func TestICLEvaluateMatchesServedVerdicts(t *testing.T) {
	det := iclDetectorForTest(t)
	d, ok := det.(*localDetector)
	if !ok || d.approach != ICL {
		t.Fatalf("test detector is %T", det)
	}
	jobs := flowbench.Generate(flowbench.Genome, 9).Subsample(10, 10, 40, 10).Test
	if got, want := icl.Evaluate(icl.NewDetector(d.model, d.tok), jobs, d.examples), servedConfusion(det, jobs); got != want {
		t.Fatalf("icl.Evaluate %+v != served %+v", got, want)
	}
}
