package core

// Overload safety for the serving engine: admission control (shed with
// Retry-After before compute), queue-wait budgets and request deadlines
// (enforced at dequeue so already-dead requests are dropped, not computed),
// and the brownout tier — a cheap fallback detector that answers saturated
// traffic with a degraded-but-immediate result instead of a timeout. These
// are the primitives a multi-replica gateway needs from each replica: a
// clear "back off" signal (429), a bounded worst-case queue, and a readiness
// signal (/readyz) that reflects per-model saturation.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// errOverloaded is the sentinel all shed decisions wrap: matched with
// errors.Is, carried with details by OverloadedError.
var errOverloaded = errors.New("core: overloaded")

// OverloadedError reports a request shed by admission control (the queue was
// at its budgeted depth) or by the queue-wait budget (the job sat queued past
// MaxQueueWait). RetryAfter is the server's estimate of when the backlog will
// have drained enough to accept new work — the HTTP layer surfaces it as the
// 429's Retry-After header.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("core: overloaded, retry after %s", e.RetryAfter)
}

// Unwrap makes errors.Is(err, errOverloaded) match.
func (e *OverloadedError) Unwrap() error { return errOverloaded }

// brownout is the graceful-degradation state machine: a high/low watermark
// hysteresis over observed queue depth. It engages when the depth has stayed
// at or above the high watermark for at least hold (sustained saturation, not
// a single spike) and disengages when the depth falls to the low watermark —
// so the tier doesn't flap at the threshold. Observation happens on the
// request path, which means recovery is detected on the first request after
// the queue drains; an idle engine carries no timers.
type brownout struct {
	mu      sync.Mutex
	high    int           // engage at depth >= high (0 disables)
	low     int           // disengage at depth <= low
	hold    time.Duration // how long depth must stay >= high before engaging
	over    time.Time     // when depth was first observed >= high (zero: not over)
	engaged bool
}

// observe folds one queue-depth observation in and reports whether the
// brownout tier is engaged for this request.
func (b *brownout) observe(depth int, now time.Time) bool {
	if b.high <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.engaged {
		if depth <= b.low {
			b.engaged = false
			b.over = time.Time{}
		}
		return b.engaged
	}
	if depth >= b.high {
		if b.over.IsZero() {
			b.over = now
		}
		if now.Sub(b.over) >= b.hold {
			b.engaged = true
		}
	} else {
		b.over = time.Time{}
	}
	return b.engaged
}

// active reports the current engagement without folding in an observation.
func (b *brownout) active() bool {
	if b.high <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.engaged
}

// scorerDetector adapts a fitted baselines.JobScorer (the PCA baseline)
// into the Detector interface: sentences are parsed back into feature
// vectors, scored in one call, and thresholded at the calibrated cutoff.
// This is the brownout tier's engine — microseconds per line instead of the
// transformer's milliseconds — and deliberately shares zero code with the
// primary path, so a saturated or wedged model cannot take the fallback down
// with it.
type scorerDetector struct {
	sc     baselines.JobScorer
	cutoff float64
	scale  float64
}

// newScorerDetector wraps a fitted baseline scorer as a Detector. cutoff is
// the calibrated decision threshold (baselines.CalibrateThreshold); scale
// converts score distance from the cutoff into a pseudo-probability via a
// logistic, so Result.Score stays in (0, 1) like the transformer's (<= 0
// means unit scale). The resulting detector reports Approach "baseline".
func newScorerDetector(sc baselines.JobScorer, cutoff, scale float64) Detector {
	if scale <= 0 {
		scale = 1
	}
	return &scorerDetector{sc: sc, cutoff: cutoff, scale: scale}
}

// ApproachBaseline is the Approach reported by scorer-backed (brownout)
// detectors.
const ApproachBaseline Approach = "baseline"

func (d *scorerDetector) DetectBatch(sentences []string) []Result {
	jobs := make([]flowbench.Job, len(sentences))
	parsed := make([]bool, len(sentences))
	for i, s := range sentences {
		if j, err := logparse.ParseSentence(s); err == nil {
			jobs[i] = j
			parsed[i] = true
		}
	}
	scores := d.sc.Score(jobs)
	out := make([]Result, len(sentences))
	for i, s := range scores {
		if !parsed[i] {
			// Unparseable feature sentence: the scorer saw a zero vector.
			// Answer "normal, zero confidence" rather than invent a verdict.
			out[i] = Result{Label: 0, Score: 0}
			continue
		}
		label := 0
		if s >= d.cutoff {
			label = 1
		}
		out[i] = Result{Label: label, Score: 1 / (1 + math.Exp(-(s-d.cutoff)/d.scale))}
	}
	return out
}

func (d *scorerDetector) DetectSentence(sentence string) Result {
	return d.DetectBatch([]string{sentence})[0]
}

func (d *scorerDetector) DetectJob(j flowbench.Job) Result {
	s := d.sc.Score([]flowbench.Job{j})[0]
	label := 0
	if s >= d.cutoff {
		label = 1
	}
	return Result{Label: label, Score: 1 / (1 + math.Exp(-(s-d.cutoff)/d.scale))}
}

func (d *scorerDetector) Approach() Approach { return ApproachBaseline }

// FitFallback fits the PCA seed baseline on train, calibrates its decision
// threshold to the training contamination, and wraps it as a brownout
// Detector ready for Registry.SetFallback. The logistic scale is the
// standard deviation of the training scores, so the degraded Score
// saturates over the score range actually observed.
func FitFallback(train []flowbench.Job, seed uint64) (Detector, error) {
	sc, err := baselines.FitScorer("pca", train, seed)
	if err != nil {
		return nil, err
	}
	scores := sc.Score(train)
	cutoff := baselines.CalibrateThreshold(scores, baselines.AnomalyRate(train))
	var mean, sq float64
	for _, s := range scores {
		mean += s
	}
	mean /= float64(len(scores))
	for _, s := range scores {
		sq += (s - mean) * (s - mean)
	}
	scale := math.Sqrt(sq / float64(len(scores)))
	return newScorerDetector(sc, cutoff, scale), nil
}
