package resilience

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffSchedule pins the exponential shape, the cap, and determinism
// under a fixed seed.
func TestBackoffSchedule(t *testing.T) {
	p := Policy{MaxAttempts: 5, Base: 100 * time.Millisecond, Max: 500 * time.Millisecond, Multiplier: 2, Seed: 3}
	b := newBackoff(p)
	var delays []time.Duration
	for {
		d, ok := b.Next(0)
		if !ok {
			break
		}
		delays = append(delays, d)
	}
	want := []time.Duration{100, 200, 400, 500} // ms; 800 capped to 500
	if len(delays) != len(want) {
		t.Fatalf("retries = %d, want %d", len(delays), len(want))
	}
	for i, d := range delays {
		if d != want[i]*time.Millisecond {
			t.Fatalf("delay[%d] = %s, want %s (no jitter)", i, d, want[i]*time.Millisecond)
		}
	}

	// Jitter stays within the proportional band and repeats under the seed.
	p.Jitter = 0.2
	j1, j2 := newBackoff(p), newBackoff(p)
	for i := 0; ; i++ {
		d1, ok1 := j1.Next(0)
		d2, ok2 := j2.Next(0)
		if ok1 != ok2 {
			t.Fatal("seeded sequences diverge in length")
		}
		if !ok1 {
			break
		}
		if d1 != d2 {
			t.Fatalf("seeded jitter not deterministic: %s vs %s", d1, d2)
		}
		base := want[i] * time.Millisecond
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if hi > p.Max {
			hi = p.Max
		}
		if d1 < lo || d1 > hi {
			t.Fatalf("jittered delay[%d] = %s outside [%s, %s]", i, d1, lo, hi)
		}
	}
}

// TestBackoffHonorsHint checks that a server Retry-After hint replaces the
// schedule's own delay.
func TestBackoffHonorsHint(t *testing.T) {
	b := newBackoff(Policy{MaxAttempts: 3, Base: 10 * time.Millisecond, Max: 5 * time.Second, Multiplier: 2})
	d, ok := b.Next(1300 * time.Millisecond)
	if !ok || d != 1300*time.Millisecond {
		t.Fatalf("hinted delay = %s, want 1.3s", d)
	}
	// Without a hint the schedule resumes where it would have been.
	d, ok = b.Next(0)
	if !ok || d != 20*time.Millisecond {
		t.Fatalf("post-hint delay = %s, want 20ms", d)
	}
}

// TestBudgetSelfLimits pins the token-bucket arithmetic: a healthy stream
// keeps retries available; a failing stream drains the bucket to the deposit
// ratio.
func TestBudgetSelfLimits(t *testing.T) {
	b := NewBudget(10, 0.1)
	for i := 0; i < 10; i++ {
		if !b.Withdraw() {
			t.Fatalf("full bucket refused withdrawal %d", i)
		}
	}
	if b.Withdraw() {
		t.Fatal("empty bucket allowed a retry")
	}
	// ~10 first attempts deposit one token's worth (15 clears float
	// accumulation error at the 1.0 boundary).
	for i := 0; i < 15; i++ {
		b.Attempt()
	}
	if !b.Withdraw() {
		t.Fatal("deposits did not refill the bucket")
	}
	if b.Withdraw() {
		t.Fatal("bucket over-refilled")
	}
	// Deposits cap at capacity.
	for i := 0; i < 1000; i++ {
		b.Attempt()
	}
	if got := b.tokens; got != 10 {
		t.Fatalf("tokens = %v, want cap 10", got)
	}
}

// TestBreakerLifecycle walks closed → open → half-open → closed and the
// re-open path, with a fake clock.
func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	br := NewBreaker(3, time.Second)
	br.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !br.Allow() {
			t.Fatal("closed breaker refused traffic")
		}
		br.Record(false)
	}
	if br.State() != Closed {
		t.Fatalf("state = %s before threshold", br.State())
	}
	br.Allow()
	br.Record(false) // third consecutive failure trips it
	if br.State() != Open {
		t.Fatalf("state = %s after threshold, want open", br.State())
	}
	if br.Allow() {
		t.Fatal("open breaker allowed traffic inside cooldown")
	}

	now = now.Add(1500 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("cooldown passed but probe refused")
	}
	if br.State() != HalfOpen {
		t.Fatalf("state = %s during probe, want half-open", br.State())
	}
	if br.Allow() {
		t.Fatal("second concurrent probe allowed")
	}
	br.Record(false) // probe failed: re-open
	if br.State() != Open {
		t.Fatalf("state = %s after failed probe, want open", br.State())
	}

	now = now.Add(2 * time.Second)
	if !br.Allow() {
		t.Fatal("second probe refused")
	}
	br.Record(true)
	if br.State() != Closed {
		t.Fatalf("state = %s after successful probe, want closed", br.State())
	}
	if !br.Allow() {
		t.Fatal("closed breaker refused traffic after recovery")
	}
}

// TestClientRetriesUntilSuccess drives the full client against a server that
// sheds twice with Retry-After-Ms before answering, and checks the request
// body is replayed intact on every attempt.
func TestClientRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	var bodies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b := make([]byte, 64)
		n, _ := r.Body.Read(b)
		bodies = append(bodies, string(b[:n]))
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Retry-After-Ms", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	var slept []time.Duration
	c := &Client{
		Policy: Policy{MaxAttempts: 4, Base: 50 * time.Millisecond, Max: time.Second, Multiplier: 2, Seed: 1},
		Sleep:  func(d time.Duration) { slept = append(slept, d) },
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL, strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d after retries, want 200", resp.StatusCode)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if c.RetriesSent.Load() != 2 {
		t.Fatalf("retries sent = %d, want 2", c.RetriesSent.Load())
	}
	for i, b := range bodies {
		if b != `{"x":1}` {
			t.Fatalf("attempt %d body = %q; not replayed", i, b)
		}
	}
	// The millisecond hint wins over both the 1s Retry-After and the 50ms
	// schedule.
	for i, d := range slept {
		if d != 7*time.Millisecond {
			t.Fatalf("sleep[%d] = %s, want the server's 7ms hint", i, d)
		}
	}
}

// TestClientStopsAtBudget checks that an exhausted retry budget surfaces the
// last shed response instead of retrying forever.
func TestClientStopsAtBudget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	budget := NewBudget(1, 0.0001) // one retry, effectively no refill
	c := &Client{
		Policy: Policy{MaxAttempts: 10, Base: time.Millisecond, Max: time.Millisecond, Multiplier: 1},
		Budget: budget,
		Sleep:  func(time.Duration) {},
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the last 503", resp.StatusCode)
	}
	if c.RetriesSent.Load() != 1 || c.BudgetDenied.Load() != 1 {
		t.Fatalf("retries = %d, denied = %d; want 1 and 1", c.RetriesSent.Load(), c.BudgetDenied.Load())
	}
}

// TestClientBreakerRefusesFast checks that a tripped breaker fails without
// touching the network.
func TestClientBreakerRefusesFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	br := NewBreaker(2, time.Hour)
	c := &Client{
		Policy:  Policy{MaxAttempts: 1},
		Breaker: br,
		Sleep:   func(time.Duration) {},
	}
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if br.State() != Open {
		t.Fatalf("breaker state = %s after failures, want open", br.State())
	}
	before := calls.Load()
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	if _, err := c.Do(req); err != ErrCircuitOpen {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still sent traffic")
	}
	if c.BreakerOpen.Load() != 1 {
		t.Fatalf("breaker-open counter = %d, want 1", c.BreakerOpen.Load())
	}
}

// TestBreakerAbandon pins the third outcome: an attempt whose caller gave up
// is neither success nor failure — it leaves the streak and the state alone —
// and an abandoned half-open probe hands its slot to the next request.
func TestBreakerAbandon(t *testing.T) {
	now := time.Unix(0, 0)
	br := NewBreaker(2, time.Second)
	br.now = func() time.Time { return now }

	br.Allow()
	br.Record(false)
	for i := 0; i < 5; i++ {
		br.Allow()
		br.Abandon()
	}
	if br.State() != Closed {
		t.Fatalf("state = %s after abandoned attempts, want closed", br.State())
	}
	br.Allow()
	br.Record(false) // the streak of one was neither extended nor reset
	if br.State() != Open {
		t.Fatalf("state = %s after second failure, want open", br.State())
	}

	now = now.Add(2 * time.Second)
	if !br.Allow() {
		t.Fatal("cooldown passed but probe refused")
	}
	br.Abandon()
	if br.State() != HalfOpen {
		t.Fatalf("state = %s after abandoned probe, want half-open", br.State())
	}
	if !br.Allow() {
		t.Fatal("abandoned probe kept its slot: next request refused")
	}
	if br.Allow() {
		t.Fatal("second concurrent probe allowed")
	}
	br.Record(true)
	if br.State() != Closed {
		t.Fatalf("state = %s after successful probe, want closed", br.State())
	}
}

// roundTripFunc is an http.RoundTripper that answers in-process.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientCancelledIsNotAServerFailure pins Abandon at its second call
// site: requests that fail because their caller cancelled leave the client's
// breaker closed, while the same transport error under a live context opens
// it at the threshold.
func TestClientCancelledIsNotAServerFailure(t *testing.T) {
	br := NewBreaker(2, time.Hour)
	c := &Client{
		HTTP: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if err := r.Context().Err(); err != nil {
				return nil, err
			}
			return nil, http.ErrHandlerTimeout // any transport-level failure
		})},
		Policy:  Policy{MaxAttempts: 1},
		Breaker: br,
		Sleep:   func(time.Duration) {},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		req, _ := http.NewRequestWithContext(cancelled, http.MethodGet, "http://replica.invalid/", nil)
		if _, err := c.Do(req); err == nil {
			t.Fatal("cancelled request succeeded")
		}
	}
	if br.State() != Closed {
		t.Fatalf("breaker state = %s after cancelled requests, want closed", br.State())
	}
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodGet, "http://replica.invalid/", nil)
		if _, err := c.Do(req); err == nil {
			t.Fatal("failing transport succeeded")
		}
	}
	if br.State() != Open {
		t.Fatalf("breaker state = %s after two live failures, want open", br.State())
	}
}

// TestRetryAfterRoundTrip pins the writer against its parser: whatever
// SetRetryAfter writes, RetryAfterHint reads back to the millisecond, and the
// whole-second header never says less than 1.
func TestRetryAfterRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		d        time.Duration
		wantSecs string
	}{
		{0, "1"},
		{time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{5 * time.Second, "5"},
	} {
		resp := &http.Response{Header: http.Header{}}
		SetRetryAfter(resp.Header, tc.d)
		if got := resp.Header.Get("Retry-After"); got != tc.wantSecs {
			t.Errorf("%v: Retry-After %q, want %q", tc.d, got, tc.wantSecs)
		}
		if got := RetryAfterHint(resp); got != tc.d {
			t.Errorf("%v: RetryAfterHint read back %v", tc.d, got)
		}
	}
}
