package core

// Two-stage cascade inference for the detection hot path. The brownout tier
// (overload.go) answers traffic with a cheap scorer only under sustained
// saturation; the cascade runs a calibrated cheap scorer — by default a
// supervised n-gram over the tokenizer's magnitude buckets, optionally the
// same PCA/iForest family the brownout uses — as an always-on *first stage*
// in front of the transformer. The calibrated gate
// (internal/cascade) short-circuits confidently-normal lines to a verdict
// inside runBatch — the one place, which monitor chunks pass through like
// every detect request — so only the uncertain band pays full encoder cost,
// pinned to ≥99% verdict agreement with transformer-only serving.

import (
	"sync"

	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// cascadeSlot is the registry-slot holder of a model's stage-1 gate. Like
// the trace tracker, stats recorder, and fallback slot it belongs to the
// servedModel, not the engine, so SetCascade takes effect immediately and
// the gate survives hot-swaps. Guarded by a mutex rather than an atomic so a
// nil gate (cascade off) stays representable.
type cascadeSlot struct {
	mu sync.RWMutex
	g  *cascade.Gate
}

func (s *cascadeSlot) load() *cascade.Gate {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.g
}

func (s *cascadeSlot) store(g *cascade.Gate) {
	s.mu.Lock()
	s.g = g
	s.mu.Unlock()
}

// FitCascade fits and calibrates a stage-1 gate against det's own verdicts
// on the training jobs: the detector classifies every training sentence
// once (a one-time training-side cost), and the gate's confident-normal
// threshold is placed so at least cfg.TargetRecall of everything the
// detector flags still reaches the transformer at serve time. The returned
// gate is ready for Registry.SetCascade or artifact persistence.
func FitCascade(det Detector, cfg cascade.Config, train []flowbench.Job) (*cascade.Gate, error) {
	verdicts := make([]int, len(train))
	sentences := make([]string, len(train))
	for i, j := range train {
		sentences[i] = logparse.Sentence(j)
	}
	const chunk = 256
	for lo := 0; lo < len(sentences); lo += chunk {
		hi := min(lo+chunk, len(sentences))
		for k, r := range det.DetectBatch(sentences[lo:hi]) {
			verdicts[lo+k] = r.Label
		}
	}
	return cascade.Fit(cfg, train, verdicts)
}
