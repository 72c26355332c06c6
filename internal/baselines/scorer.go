package baselines

import (
	"fmt"
	"sort"

	"repro/internal/flowbench"
)

// JobScorer is the interface the scenario load lab drives the seed baselines
// through: a fitted detector that scores jobs with higher = more anomalous.
// PCA and the isolation forest satisfy the Score half natively; named wraps
// them with the identifier used in report rows.
type JobScorer interface {
	Name() string
	Score(jobs []flowbench.Job) []float64
}

type namedScorer struct {
	name  string
	score func([]flowbench.Job) []float64
}

func (n namedScorer) Name() string                         { return n.name }
func (n namedScorer) Score(jobs []flowbench.Job) []float64 { return n.score(jobs) }

// named wraps any Score function as a JobScorer.
func named(name string, score func([]flowbench.Job) []float64) JobScorer {
	return namedScorer{name: name, score: score}
}

// FitScorer fits the named seed baseline on train. Supported names: "pca",
// "iforest", "mlpae" (the Table IV MLP autoencoder). These are the cheap
// unsupervised comparison detectors the load lab reports next to the
// transformer.
func FitScorer(name string, train []flowbench.Job, seed uint64) (JobScorer, error) {
	switch name {
	case "pca":
		p := FitPCA(train, 4, seed)
		return named("pca", p.Score), nil
	case "iforest":
		cfg := DefaultIForestConfig()
		cfg.Seed = seed
		f := FitIsolationForest(train, cfg)
		return named("iforest", f.Score), nil
	case "mlpae":
		cfg := DefaultAEConfig()
		cfg.Seed = seed
		m := FitMLPAE(train, cfg)
		return named("mlpae", m.Score), nil
	}
	return nil, fmt.Errorf("baselines: unknown scorer %q (want pca, iforest, or mlpae)", name)
}

// CalibrateThreshold returns the score cutoff above which a sample is
// predicted anomalous, chosen so the predicted-positive rate on the
// calibration scores equals rate — the standard way to turn an unsupervised
// anomaly score into hard labels when the contamination level is known (here
// from the training split's ground truth).
func CalibrateThreshold(scores []float64, rate float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s := make([]float64, len(scores))
	copy(s, scores)
	sort.Float64s(s)
	cut := int(float64(len(s)) * (1 - rate))
	if cut >= len(s) {
		return s[len(s)-1] + 1 // rate 0: nothing reaches the cutoff
	}
	if cut < 0 {
		cut = 0
	}
	return s[cut]
}

// Threshold applies a calibrated cutoff, returning 0/1 predictions
// (score >= cutoff ⇒ anomalous).
func Threshold(scores []float64, cutoff float64) []int {
	out := make([]int, len(scores))
	for i, v := range scores {
		if v >= cutoff {
			out[i] = 1
		}
	}
	return out
}

// AnomalyRate is the labeled anomalous fraction of jobs — the contamination
// estimate CalibrateThreshold consumes.
func AnomalyRate(jobs []flowbench.Job) float64 {
	if len(jobs) == 0 {
		return 0
	}
	n := 0
	for _, j := range jobs {
		n += j.Label
	}
	return float64(n) / float64(len(jobs))
}
