package resilience

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// ErrCircuitOpen is returned by Client.Do when the circuit breaker refuses
// the request without sending it.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// Client retries HTTP requests under a Policy, within a retry Budget, behind
// a circuit Breaker. It retries transport errors and retryable statuses
// (429, 502, 503, 504), honoring the server's Retry-After / Retry-After-Ms
// drain estimate over its own schedule. Requests with a body must carry
// GetBody (http.NewRequest sets it for the common in-memory readers) —
// a consumed body that cannot be rebuilt fails rather than retrying with an
// empty payload.
//
// Budget and Breaker are optional and may be shared across Clients: the
// budget is per-destination-service in spirit, the breaker per-replica.
type Client struct {
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
	// Policy is the backoff schedule; a zero MaxAttempts means DefaultPolicy
	// with Policy.Seed.
	Policy Policy
	// Budget, when set, bounds the retry rate; exhausting it fails the
	// request with the last response/error rather than retrying.
	Budget *Budget
	// Breaker, when set, is consulted before every attempt and fed every
	// outcome.
	Breaker *Breaker
	// Sleep is injectable for tests (time.Sleep when nil).
	Sleep func(time.Duration)

	// Counters (atomic): total retries sent, retries denied by the budget,
	// requests refused by the breaker.
	RetriesSent  atomic.Int64
	BudgetDenied atomic.Int64
	BreakerOpen  atomic.Int64
}

// SetRetryAfter writes a 429's two retry headers, the pair RetryAfterHint
// reads: Retry-After in whole seconds, rounded up and at least 1 (RFC 9110),
// and Retry-After-Ms with the exact milliseconds, for clients that can back
// off finer than a second. core's sheds, the fleet front's included, write it
// here.
func SetRetryAfter(h http.Header, d time.Duration) {
	secs := max(1, int64((d+time.Second-1)/time.Second))
	h.Set("Retry-After", strconv.FormatInt(secs, 10))
	h.Set("Retry-After-Ms", strconv.FormatInt(d.Milliseconds(), 10))
}

// retryableStatus reports whether a response status is worth retrying: the
// server shed (429) or a hop failed transiently (502/503/504). Other 5xx
// (500, 501) are bugs, not load.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// RetryAfterHint extracts a response's server-side drain estimate, or zero:
// Retry-After-Ms (milliseconds, the sub-second channel SetRetryAfter writes)
// wins over the RFC 9110 Retry-After in whole seconds, which SetRetryAfter
// rounds up to at least 1 — so a present Retry-After-Ms of 0 means zero, not
// the 1s beside it. Client.Do backs off by it; the gateway passes the smallest
// hint of the replicas that refused a batch on to its own client.
func RetryAfterHint(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After-Ms"); v != "" {
		if ms, err := strconv.Atoi(v); err == nil && ms >= 0 {
			return time.Duration(ms) * time.Millisecond
		}
	}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if s, err := strconv.Atoi(v); err == nil && s > 0 {
			return time.Duration(s) * time.Second
		}
	}
	return 0
}

// Do sends req with retries. It returns the first success (any
// non-retryable status counts: a 404 is an answer, not a failure), or the
// last response/error once attempts, budget, or the request context run out.
// On a returned response the body is open and owned by the caller, as with
// http.Client.Do.
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	pol := c.Policy
	if pol.MaxAttempts <= 0 {
		pol = DefaultPolicy(pol.Seed)
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	bo := newBackoff(pol)

	if c.Budget != nil {
		c.Budget.Attempt()
	}
	var resp *http.Response
	var err error
	for {
		if c.Breaker != nil && !c.Breaker.Allow() {
			c.BreakerOpen.Add(1)
			return nil, ErrCircuitOpen
		}
		resp, err = httpc.Do(req)
		success := err == nil && !retryableStatus(resp.StatusCode)
		if c.Breaker != nil {
			if err != nil && req.Context().Err() != nil {
				// The caller gave up, which says nothing about the server:
				// neither success nor failure.
				c.Breaker.Abandon()
			} else {
				// Transport errors and retryable statuses are replica-health
				// signals; application-level 4xx are not failures of the replica.
				c.Breaker.Record(err == nil && (resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests))
			}
		}
		if success {
			return resp, nil
		}
		var hint time.Duration
		if err == nil {
			hint = RetryAfterHint(resp)
		}
		delay, ok := bo.Next(hint)
		if !ok {
			return resp, err // attempts exhausted: surface the last outcome
		}
		if req.Context().Err() != nil {
			return resp, errOr(err, req.Context().Err())
		}
		if c.Budget != nil && !c.Budget.Withdraw() {
			c.BudgetDenied.Add(1)
			return resp, err // out of retry budget: fail fast, don't amplify
		}
		// This attempt's response is superseded; release its connection.
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		if req.GetBody != nil {
			body, berr := req.GetBody()
			if berr != nil {
				return nil, berr
			}
			req.Body = body
		} else if req.Body != nil {
			// A consumed one-shot body cannot be replayed; retrying would
			// send an empty payload.
			return nil, errors.New("resilience: request body is not replayable (no GetBody)")
		}
		sleep(delay)
		c.RetriesSent.Add(1)
	}
}

func errOr(err, fallback error) error {
	if err != nil {
		return err
	}
	return fallback
}
