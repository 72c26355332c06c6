// Package resilience is the client half of the serving tier's overload
// contract: the server sheds with 429 Retry-After and browns out under
// saturation (internal/core); this package is how well-behaved clients react
// — jittered exponential backoff that honors the server's drain estimate, a
// retry budget so retries cannot amplify an outage, and a circuit breaker
// that stops hammering a replica that is failing fast. cmd/loadlab uses it
// for replay-with-retries today; the multi-replica gateway (ROADMAP item 1)
// is its intended second consumer.
//
// Everything is deterministic under a fixed Seed: jitter comes from the
// repo's splittable RNG, not math/rand, so a chaos replay with retries is
// reproducible bit-for-bit.
package resilience

import (
	"sync"
	"time"

	"repro/internal/tensor"
)

// Policy describes a retry schedule: capped exponential backoff with
// proportional jitter. The zero value retries nothing; DefaultPolicy is a
// sane serving-client schedule.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (1 = no retries).
	MaxAttempts int
	// Base is the pre-jitter backoff before the first retry; each further
	// retry multiplies it by Multiplier, capped at Max.
	Base       time.Duration
	Max        time.Duration
	Multiplier float64
	// Jitter is the proportional jitter width: the delay is drawn uniformly
	// from [d·(1−Jitter), d·(1+Jitter)], clamped at Max. Zero means no
	// jitter; 0.2 is the usual herd-breaking default.
	Jitter float64
	// Seed makes the jitter sequence deterministic. Two clients with the
	// same Seed draw the same delays — what a reproducible chaos replay
	// needs, and distinct seeds are what break the thundering herd.
	Seed uint64
}

// DefaultPolicy is 4 attempts backing off 50ms → 100ms → 200ms (±20%),
// capped at 2s.
func DefaultPolicy(seed uint64) Policy {
	return Policy{MaxAttempts: 4, Base: 50 * time.Millisecond, Max: 2 * time.Second, Multiplier: 2, Jitter: 0.2, Seed: seed}
}

// Backoff is the stateful delay sequence of one Policy. Not safe for
// concurrent use; each request (or each worker) takes its own.
type Backoff struct {
	p    Policy
	rng  *tensor.RNG
	next time.Duration
	try  int
}

// NewBackoff starts a fresh delay sequence.
func NewBackoff(p Policy) *Backoff {
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	return &Backoff{p: p, rng: tensor.NewRNG(p.Seed ^ 0xb0ffed), next: p.Base}
}

// Next returns the delay before the upcoming retry and whether a retry is
// allowed at all. hint is the server's Retry-After when it sent one: the
// server knows its backlog better than any client-side schedule, so a hint
// replaces the exponential delay (jitter still applies — synchronized
// hint-followers are a herd too).
func (b *Backoff) Next(hint time.Duration) (time.Duration, bool) {
	b.try++
	if b.try >= b.p.MaxAttempts {
		return 0, false
	}
	d := b.next
	b.next = time.Duration(float64(b.next) * b.p.Multiplier)
	if b.p.Max > 0 && b.next > b.p.Max {
		b.next = b.p.Max
	}
	if hint > 0 {
		d = hint
	}
	if j := b.p.Jitter; j > 0 {
		lo := float64(d) * (1 - j)
		width := float64(d) * 2 * j
		d = time.Duration(lo + b.rng.Float64()*width)
	}
	if b.p.Max > 0 && d > b.p.Max {
		d = b.p.Max
	}
	return d, true
}

// Budget is a retry token bucket in the Finagle/gRPC style: first attempts
// deposit a fraction of a token, retries withdraw a whole one. When the
// server is healthy the bucket stays full and every retry is allowed; when
// most requests fail, deposits dry up and the retry rate self-limits to
// Ratio× the first-attempt rate — retries stop amplifying an outage into a
// bigger one. Safe for concurrent use.
type Budget struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	ratio  float64
}

// NewBudget starts a full bucket holding capacity tokens; each first attempt
// deposits ratio tokens (capped), each retry costs 1. Non-positive capacity
// or ratio fall back to 10 and 0.1.
func NewBudget(capacity, ratio float64) *Budget {
	if capacity <= 0 {
		capacity = 10
	}
	if ratio <= 0 {
		ratio = 0.1
	}
	return &Budget{tokens: capacity, cap: capacity, ratio: ratio}
}

// Attempt records a first attempt (deposit).
func (b *Budget) Attempt() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.mu.Unlock()
}

// Withdraw takes one retry token, reporting whether the retry is within
// budget. A refused retry costs nothing.
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens returns the current balance (tests and telemetry).
func (b *Budget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// Closed: traffic flows, failures are counted.
	Closed BreakerState = iota
	// Open: traffic is refused locally until the cooldown passes.
	Open
	// HalfOpen: one probe is allowed through to test recovery.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker: Threshold failures in a
// row open it, Cooldown later one probe is let through (half-open), and that
// probe's outcome either closes the circuit or re-opens it for another
// cooldown. It protects a failing replica from retry pressure and the client
// from burning its retry budget on a replica that is down. Safe for
// concurrent use.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker opens after threshold consecutive failures and probes again
// after cooldown. Non-positive arguments fall back to 5 failures / 1s.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	//lint:ignore determinism injectable clock's production default; deterministic chaos replays inject a fake
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. In the open state it starts
// returning true again once the cooldown has passed — but only for one probe
// at a time (half-open); concurrent requests stay refused until the probe
// reports.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record reports a request outcome. A success closes the circuit and zeroes
// the failure count; a failure counts toward the threshold (closed) or
// re-opens the circuit (half-open probe failed).
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.state = Closed
		b.failures = 0
		b.probing = false
		return
	}
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = Open
			b.openedAt = b.now()
		}
	case HalfOpen:
		b.state = Open
		b.openedAt = b.now()
		b.probing = false
	case Open:
		// A straggler from before the trip; the circuit is already open.
	}
}

// Abandon reports that an allowed request ended with no outcome to judge the
// replica by — its caller gave up first. Nothing is counted and the state
// stays put; a half-open probe slot is handed back so the next request can
// probe instead of the circuit waiting forever on a probe that never reports.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State returns the breaker's current position (telemetry; the answer may be
// stale by the time it is read).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
