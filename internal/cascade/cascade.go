// Package cascade implements two-stage inference for the detection hot path
// (ROADMAP item 5): a calibrated cheap first stage short-circuits
// confidently-normal and confidently-abnormal log lines to a verdict and
// passes only the uncertain band to the transformer. The stage-1 scorer is a
// supervised n-gram over the tokenizer's magnitude buckets (ngram.go) — the
// transformer's own discretized view of a job. The gate is calibrated on
// training data against the transformer's own verdicts so end-to-end
// verdicts stay in ≥99% agreement with transformer-only serving; the serving
// integration lives in internal/core (engine pre-filter, monitor chunk
// pre-filter, artifact v3 persistence, per-model counters).
//
// Calibration is a pure function of (config, training jobs, stage-2
// verdicts): no clocks, no global randomness.
//
//repro:deterministic
package cascade

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// DefaultTargetRecall is the calibration target a zero Config.TargetRecall
// means.
const DefaultTargetRecall = 0.995

// scorerName is the one stage-1 scorer's name on the wire (Params.Scorer).
const scorerName = "ngram"

// Config calibrates the first stage.
type Config struct {
	// TargetRecall is the fraction of calibration positives (the
	// transformer-flagged training jobs) whose stage-1 score must clear the
	// confident-normal threshold and reach the transformer. The same bound
	// caps the false-abnormal rate on calibration negatives at
	// (1 − TargetRecall). Default DefaultTargetRecall.
	TargetRecall float64
	// Seed is ignored: the ngram fit draws no randomness.
	//
	// Deprecated: ignored. Kept only so existing callers compile.
	Seed uint64
}

// Gate is a calibrated two-threshold first stage. Scores below Low
// short-circuit to a normal verdict, scores at or above High short-circuit
// to an abnormal verdict, and the band in between passes to the
// transformer. Both bands are calibrated because on Flow-Bench streams a
// large share of traffic is confidently abnormal, and passing it through
// would forfeit most of the cascade speedup.
type Gate struct {
	low       float64
	high      float64 // math.MaxFloat64 when calibration saw no negatives
	scale     float64
	recall    float64
	positives int
	ngram     *ngramModel
}

// Fit fits the stage-1 scorer on train and calibrates the thresholds.
// verdicts are the stage-2 (transformer) 0/1 verdicts over the same jobs, in
// order, and are the calibration positives: the gate protects exactly what
// stage 2 would flag, not the synthetic ground-truth labels. (A label the
// transformer does not flag scores like a normal line by construction;
// calibrating on it would only collapse the confident-normal band without
// changing any serving verdict.)
func Fit(cfg Config, train []flowbench.Job, verdicts []int) (*Gate, error) {
	if cfg.TargetRecall == 0 {
		cfg.TargetRecall = DefaultTargetRecall
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("cascade: no training jobs")
	}
	if len(verdicts) != len(train) {
		return nil, fmt.Errorf("cascade: %d verdicts for %d jobs", len(verdicts), len(train))
	}
	if cfg.TargetRecall <= 0 || cfg.TargetRecall > 1 {
		return nil, fmt.Errorf("cascade: target recall %v out of (0, 1]", cfg.TargetRecall)
	}
	g := &Gate{recall: cfg.TargetRecall, high: math.MaxFloat64, ngram: fitNGram(train, verdicts)}

	scores := make([]float64, len(train))
	var pos, neg []float64
	for i, j := range train {
		s := g.ScoreJob(j)
		scores[i] = s
		if verdicts[i] == 1 {
			pos = append(pos, s)
		} else {
			neg = append(neg, s)
		}
	}
	g.positives = len(pos)
	g.scale = stddev(scores)
	if g.scale <= 0 {
		g.scale = 1
	}

	// Low: the (1−recall) quantile of positive scores, so at least recall of
	// the positives score >= low and reach the transformer. No positives at
	// all means nothing to protect — but also nothing to calibrate against,
	// so fail open: pass everything.
	if len(pos) == 0 {
		g.low = -math.MaxFloat64
		return g, nil
	}
	sort.Float64s(pos)
	idx := int(float64(len(pos)) * (1 - cfg.TargetRecall))
	if idx >= len(pos) {
		idx = len(pos) - 1
	}
	g.low = pos[idx]
	// The scorer assigns exactly ngramUnseen to keys with no calibration
	// evidence; those must always reach stage 2, so the confident-normal band
	// is structurally capped below that score no matter where the recall
	// quantile lands. (Capping only lowers the threshold — the recall
	// guarantee, a lower bound, is preserved.)
	if g.low > ngramUnseen {
		g.low = ngramUnseen
	}

	// High: the quantile of negative scores that bounds false-abnormal short
	// circuits to (1−recall) of the negatives. Without negatives it stays
	// beyond every score.
	if len(neg) > 0 {
		sort.Float64s(neg)
		hi := int(math.Ceil(float64(len(neg)) * cfg.TargetRecall))
		if hi >= len(neg) {
			g.high = neg[len(neg)-1] + 1
		} else {
			g.high = neg[hi]
		}
		// Mirror of the Low cap: a key with no calibration evidence scores
		// exactly ngramUnseen and must pass to stage 2, never short abnormal.
		// Raising the threshold only tightens the calibrated false-abnormal
		// bound.
		if g.high <= ngramUnseen {
			g.high = math.Nextafter(ngramUnseen, 1)
		}
		if g.high < g.low {
			g.high = g.low
		}
	}
	return g, nil
}

func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return math.Sqrt(v / float64(len(xs)))
}

// ScoreJob returns the stage-1 score of one parsed job. Alloc-free.
//
//repro:hotpath
func (g *Gate) ScoreJob(j flowbench.Job) float64 {
	return g.ngram.score(&j.Features)
}

// ScoreSentence scores one feature sentence. ok is false when the sentence
// does not parse as feature triples; such lines must pass to stage 2.
// Alloc-free.
//
//repro:hotpath
func (g *Gate) ScoreSentence(s string) (score float64, ok bool) {
	var j flowbench.Job
	if !logparse.ScanSentence(s, &j.Features) {
		return 0, false
	}
	return g.ScoreJob(j), true
}

// Decision is the gate's routing verdict for one line.
type Decision int

// Decisions: short-circuit to a normal verdict, pass to the transformer, or
// (abnormal band only) short-circuit to an abnormal verdict.
const (
	ShortNormal Decision = iota
	PassThrough
	ShortAbnormal
)

// Decide routes a stage-1 score.
//
//repro:hotpath
func (g *Gate) Decide(score float64) Decision {
	if score < g.low {
		return ShortNormal
	}
	if score >= g.high {
		return ShortAbnormal
	}
	return PassThrough
}

// Majority is the gate's verdict on its own, with no stage 2 behind it —
// what a model's brownout tier answers: 1 when the line's key was flagged by
// stage 2 at least as often as not during calibration, so a key with no
// calibration evidence (scoring exactly the unseen ½) is flagged too. Since
// Fit caps Low at ½ and raises High above it, Majority agrees with Decide on
// both short-circuit bands.
//
//repro:hotpath
func (g *Gate) Majority(score float64) int {
	if score >= ngramUnseen {
		return 1
	}
	return 0
}

// Prob maps a stage-1 score to the logistic pseudo-probability reported on
// short-circuited verdicts. It crosses ½ at Low; the brownout tier reports
// the score itself, the key's smoothed positive rate.
//
//repro:hotpath
func (g *Gate) Prob(score float64) float64 {
	return 1 / (1 + math.Exp(-(score-g.low)/g.scale))
}

// Low is the calibrated confident-normal threshold.
func (g *Gate) Low() float64 { return g.low }

// TargetRecall is the recall the gate was calibrated to.
func (g *Gate) TargetRecall() float64 { return g.recall }

// Positives is the number of calibration positives behind Low.
func (g *Gate) Positives() int { return g.positives }

// Params is the serialized form of a calibrated gate — what the artifact v3
// cascade section stores. Scorer is always "ngram"; it stays on the wire so
// an artifact names the scorer its thresholds were calibrated for.
type Params struct {
	Scorer       string       `json:"scorer"`
	Low          float64      `json:"low"`
	High         float64      `json:"high"`
	Scale        float64      `json:"scale"`
	TargetRecall float64      `json:"target_recall"`
	Positives    int          `json:"positives"`
	NGram        *NGramParams `json:"ngram,omitempty"`
}

// Params exports the gate for serialization.
func (g *Gate) Params() Params {
	np := g.ngram.params()
	return Params{
		Scorer:       scorerName,
		Low:          g.low,
		High:         g.high,
		Scale:        g.scale,
		TargetRecall: g.recall,
		Positives:    g.positives,
		NGram:        &np,
	}
}

// FromParams reconstructs a gate from serialized parameters, validating them
// (artifacts are untrusted input).
func FromParams(p Params) (*Gate, error) {
	if p.Scorer != scorerName {
		return nil, fmt.Errorf("cascade: gate names stage-1 scorer %q, but this build has only %q; write a new artifact with anomalyd -train-out <path> -cascade", p.Scorer, scorerName)
	}
	for _, v := range [...]float64{p.Low, p.High, p.Scale, p.TargetRecall} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("cascade: non-finite threshold in gate params")
		}
	}
	if p.Scale <= 0 {
		return nil, fmt.Errorf("cascade: scale %v must be positive", p.Scale)
	}
	if p.NGram == nil {
		return nil, fmt.Errorf("cascade: ngram gate params carry no count table")
	}
	m, err := ngramFromParams(*p.NGram)
	if err != nil {
		return nil, err
	}
	return &Gate{
		low:       p.Low,
		high:      p.High,
		scale:     p.Scale,
		recall:    p.TargetRecall,
		positives: p.Positives,
		ngram:     m,
	}, nil
}
