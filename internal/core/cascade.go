package core

// Two-stage cascade inference for the detection hot path. The cascade runs a
// calibrated cheap scorer — a supervised n-gram over the tokenizer's
// magnitude buckets — as an always-on *first stage* in front of the
// transformer; under sustained saturation the same gate is the brownout tier
// (overload.go), answering every line alone. The calibrated gate
// (internal/cascade) short-circuits confident lines to a verdict inside
// runBatch — the one place, which monitor chunks pass through like every
// detect request — so only the uncertain band pays full encoder cost,
// pinned to ≥99% verdict agreement with transformer-only serving. The gate
// is an atomic pointer on the model's engine, so SetCascade takes effect on
// the next batch.

import (
	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/tensor"
)

// FitCascade fits and calibrates a stage-1 gate against det's own verdicts
// on the training jobs: the detector classifies every training sentence
// once (a one-time training-side cost, through detectLabels), and the gate's
// confident-normal threshold is placed so at least cfg.TargetRecall of
// everything the detector flags still reaches the transformer at serve time.
// The returned gate is ready for Registry.SetCascade or artifact persistence.
func FitCascade(det Detector, cfg cascade.Config, train []flowbench.Job) (*cascade.Gate, error) {
	return cascade.Fit(cfg, train, detectLabels(det, train))
}

// detectLabels is det's label for each job's sentence, scored in
// fitChunk-sentence batches fanned out over GOMAXPROCS goroutines. A
// sentence's verdict does not depend on the batch it is in, so the labels do
// not depend on the schedule.
func detectLabels(det Detector, jobs []flowbench.Job) []int {
	labels := make([]int, len(jobs))
	tensor.FanOut(len(jobs), fitChunk, func(lo, hi int) {
		sentences := make([]string, hi-lo)
		for k, j := range jobs[lo:hi] {
			sentences[k] = logparse.Sentence(j)
		}
		for k, r := range det.DetectBatch(sentences) {
			labels[lo+k] = r.Label
		}
	})
	return labels
}

// fitChunk is sft's evaluation chunk and the default MaxBatch. That it is no
// larger than a served batch keeps the arenas detectLabels returns to the
// workspace pool at a served batch's size: a pooled workspace keeps the size
// of the largest batch that used it, and 256-sentence calibration batches
// once left arenas eight times a served batch's size resident for the life
// of the process. (An SFT encoder's forward runs in fixed-size groups, so for
// it a chunk sizes only the pooled output; an ICL decoder's packs the whole
// chunk.)
const fitChunk = 32
