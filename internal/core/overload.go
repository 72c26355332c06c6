package core

// Overload safety for the serving engine: admission control (shed with
// Retry-After before compute), queue-wait budgets and request deadlines
// (enforced at dequeue so already-dead requests are dropped, not computed),
// and the brownout tier — the model's own cascade gate answering saturated
// traffic with a degraded-but-immediate result instead of a timeout. These
// are the primitives a multi-replica gateway needs from each replica: a
// clear "back off" signal (429), a bounded worst-case queue, and a readiness
// signal (/readyz) that reflects per-model saturation.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cascade"
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

// gateAnswers is the brownout tier: every sentence answered by the model's
// cascade gate alone, labelled by its majority rule and scored with its key's
// smoothed positive rate — microseconds per line instead of the
// transformer's milliseconds. A sentence that does not parse is answered
// "normal, zero confidence" rather than with an invented verdict.
func gateAnswers(g *cascade.Gate, sentences []string) []Result {
	out := make([]Result, len(sentences))
	for i, s := range sentences {
		if score, ok := g.ScoreSentence(s); ok {
			out[i] = Result{Label: g.Majority(score), Score: score}
		}
	}
	return out
}
