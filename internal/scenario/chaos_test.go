package scenario

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/resilience"
)

func TestChaosNamesRoundTrip(t *testing.T) {
	if got := ChaosName("bursty"); got != "chaos-bursty" {
		t.Fatalf("ChaosName = %q", got)
	}
	base, chaos := SplitChaos("chaos-bursty")
	if !chaos || base != "bursty" {
		t.Fatalf("SplitChaos(chaos-bursty) = %q, %v", base, chaos)
	}
	base, chaos = SplitChaos("bursty")
	if chaos || base != "bursty" {
		t.Fatalf("SplitChaos(bursty) = %q, %v", base, chaos)
	}
}

// TestChaosPlanShape pins the campaign derivation: the fault window is the
// middle third of the compressed schedule, the detect path is targeted, and
// the plan is a pure function of stream and seed.
func TestChaosPlanShape(t *testing.T) {
	d, _ := Lookup("bursty")
	s := d.Generate(tinyCfg())
	plan := ChaosPlan(s, 10, 42)
	compressed := time.Duration(float64(s.Duration()) / 10)
	if plan.Window.Start != compressed/3 || plan.Window.End != 2*compressed/3 {
		t.Fatalf("window = %+v, want middle third of %s", plan.Window, compressed)
	}
	if plan.Path != "/v1/detect" {
		t.Fatalf("path = %q", plan.Path)
	}
	for _, k := range plan.Kinds {
		if k == faults.Stall {
			t.Fatal("replay palette must not include stall")
		}
	}
	if again := ChaosPlan(s, 10, 42); again.Seed != plan.Seed || again.Window != plan.Window {
		t.Fatal("ChaosPlan is not deterministic")
	}
	if other := ChaosPlan(s, 10, 43); other.Seed == plan.Seed {
		t.Fatal("seed does not vary the campaign")
	}
}

// faultScript answers each batch request by arrival number: the first few
// get scripted failures, the rest succeed with well-formed results — so the
// replay's taxonomy buckets have exact expected counts regardless of request
// interleaving.
func faultScript(t *testing.T, stallFor time.Duration) http.Handler {
	var calls atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/detect/batch" {
			io.WriteString(w, "{}") // stats reset / models snapshot housekeeping
			return
		}
		var req core.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad batch request: %v", err)
		}
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case 2:
			w.WriteHeader(http.StatusInternalServerError)
		case 3:
			panic(http.ErrAbortHandler)
		case 4:
			select {
			case <-time.After(stallFor):
			case <-r.Context().Done():
			}
			w.WriteHeader(http.StatusGatewayTimeout)
		default:
			results := make([]core.DetectResponse, len(req.Sentences))
			json.NewEncoder(w).Encode(core.BatchResponse{Results: results, Degraded: true})
		}
	})
}

// TestReplayFailureTaxonomy drives a replay into one failure of each kind
// and checks every bucket — and that degraded successes are tallied, and
// that a fault window yields phase-partitioned latencies.
func TestReplayFailureTaxonomy(t *testing.T) {
	d, _ := Lookup("steady")
	s := d.Generate(tinyCfg())
	hs := httptest.NewServer(faultScript(t, 5*time.Second))
	defer hs.Close()

	cfg := replayCfg(hs.URL)
	// Speed 1000 compresses the 400-event schedule to well under a millisecond,
	// so every request is in flight at once: the timeout leaves them room and
	// still falls well short of the scripted stall.
	cfg.Timeout = 2 * time.Second
	cfg.FaultWindow = faults.Window{Start: time.Millisecond, End: 2 * time.Millisecond}
	res, err := Replay(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Errors != 4 {
		t.Fatalf("errors = %d, want the 4 scripted failures", res.Errors)
	}
	want := Failures{Timeout: 1, Shed: 1, Server: 1, Transport: 1}
	if res.Failures != want {
		t.Fatalf("failures = %+v, want %+v", res.Failures, want)
	}
	if res.Failures.Total() != res.Errors {
		t.Fatalf("taxonomy total %d != errors %d", res.Failures.Total(), res.Errors)
	}
	if res.DegradedReqs != res.Requests-4 {
		t.Fatalf("degraded reqs = %d, want all %d successes", res.DegradedReqs, res.Requests-4)
	}
	if res.Phases == nil {
		t.Fatal("fault window set but Phases nil")
	}

	// The report row surfaces the taxonomy and phase columns.
	extra := res.Entry("sft").Extra
	for _, key := range []string{
		"err_timeout", "err_shed", "err_server", "err_transport",
		"degraded_reqs", "pre_p99_ms", "during_p99_ms", "post_p99_ms",
	} {
		if _, ok := extra[key]; !ok {
			t.Errorf("report row missing %q", key)
		}
	}
	if extra["err_timeout"] != 1 || extra["err_shed"] != 1 {
		t.Errorf("report taxonomy wrong: %v", extra)
	}
}

// TestReplayCleanRowKeepsShape checks a clean replay emits no overload
// columns: they appear only on runs that exercised them.
func TestReplayCleanRowKeepsShape(t *testing.T) {
	res := &Result{Scenario: "steady", Events: 10, Requests: 10}
	extra := res.Entry("sft").Extra
	for _, key := range []string{"err_timeout", "degraded_reqs", "pre_p99_ms"} {
		if _, ok := extra[key]; ok {
			t.Errorf("clean row grew column %q", key)
		}
	}
}

// TestReplayRetryRecoversShed wires the resilience client into a replay
// against a server that sheds every request once: with retries enabled no
// request fails, and the retry counters show the recovery work.
func TestReplayRetryRecoversShed(t *testing.T) {
	d, _ := Lookup("steady")
	s := d.Generate(tinyCfg())
	var mu sync.Mutex
	seen := map[string]bool{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/detect/batch" {
			io.WriteString(w, "{}")
			return
		}
		var req core.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad batch request: %v", err)
		}
		key := ""
		if len(req.Sentences) > 0 {
			key = req.Sentences[0]
		}
		mu.Lock()
		first := !seen[key]
		seen[key] = true
		mu.Unlock()
		if first {
			w.Header().Set("Retry-After-Ms", "5")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(core.BatchResponse{Results: make([]core.DetectResponse, len(req.Sentences))})
	}))
	defer hs.Close()

	cfg := replayCfg(hs.URL)
	cfg.Retry = &resilience.Client{Policy: resilience.Policy{
		MaxAttempts: 3, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Multiplier: 2, Seed: 9,
	}}
	res, err := Replay(context.Background(), s, cfg)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d with retries on, failures %+v", res.Errors, res.Failures)
	}
	// Streams may repeat sentences across requests (one shed covers them
	// all), so assert the retry machinery ran, not an exact count.
	if got := cfg.Retry.RetriesSent.Load(); got == 0 {
		t.Fatal("no retries sent despite universal first-attempt sheds")
	}
}
