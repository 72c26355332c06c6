package scenario

import (
	"testing"

	"repro/internal/core"
)

// TestTrackerFlagLatchUnderBursty replays the bursty stream's ground truth
// through a TraceTracker and checks the flag event latches: each flagged
// trace fires exactly once, however its jobs are interleaved, and the final
// flagged set matches the stream's trace truth under the same policy.
func TestTrackerFlagLatchUnderBursty(t *testing.T) {
	d, _ := Lookup("bursty")
	s := d.Generate(tinyCfg())
	policy := core.DefaultTracePolicy()
	tr := core.NewTraceTracker(policy, 0)

	fired := map[int]int{}
	for _, ev := range s.Events {
		if _, newly := tr.Observe(ev.Job.TraceID, ev.Job.Label == 1); newly {
			fired[ev.Job.TraceID]++
		}
	}
	for id, n := range fired {
		if n != 1 {
			t.Errorf("trace %d flag fired %d times, want latch-once", id, n)
		}
	}
	truth := traceTruth(s, policy)
	for id, flagged := range truth {
		if flagged != (fired[id] == 1) {
			t.Errorf("trace %d: tracker flagged=%v, truth=%v", id, fired[id] == 1, flagged)
		}
	}
	if tr.Evicted() != 0 {
		t.Errorf("default-capacity tracker evicted %d traces", tr.Evicted())
	}
}

// TestTrackerStateSurvivesRetriedDelivery models the chaos replay's client
// retries: a shed batch is re-sent, so the monitor path may see some jobs
// again. The latch must not re-fire for a still-tracked trace, and verdict
// counts stay monotone.
func TestTrackerStateSurvivesRetriedDelivery(t *testing.T) {
	tr := core.NewTraceTracker(core.TracePolicy{MinAnomalous: 3, MinFraction: 1}, 0)
	fires := 0
	observe := func(times int) {
		for k := 0; k < times; k++ {
			if _, newly := tr.Observe(7, true); newly {
				fires++
			}
		}
	}
	observe(3) // first delivery trips the policy
	if fires != 1 {
		t.Fatalf("flag fired %d times on first delivery, want 1", fires)
	}
	observe(3) // retried delivery of the same jobs
	if fires != 1 {
		t.Fatalf("retried delivery re-fired the flag (%d fires)", fires)
	}
	v, ok := tr.Verdict(7)
	if !ok || v.Jobs != 6 || v.Anomalous != 6 || !v.Flagged {
		t.Fatalf("verdict after retry = %+v", v)
	}
}

// TestTrackerEvictionUnderTraceChurn caps the window well below the bursty
// stream's trace count: evictions must occur, the window must stay at
// capacity, and a flagged trace that is evicted and returns may legitimately
// re-fire (bounded memory trades for re-alerts).
func TestTrackerEvictionUnderTraceChurn(t *testing.T) {
	d, _ := Lookup("bursty")
	s := d.Generate(tinyCfg())
	traces := map[int]bool{}
	for _, ev := range s.Events {
		traces[ev.Job.TraceID] = true
	}
	if len(traces) < 8 {
		t.Skipf("bursty stream has only %d traces", len(traces))
	}
	cap := 4
	tr := core.NewTraceTracker(core.DefaultTracePolicy(), cap)
	for _, ev := range s.Events {
		tr.Observe(ev.Job.TraceID, ev.Job.Label == 1)
	}
	if tr.Evicted() == 0 {
		t.Errorf("window of %d over %d traces evicted nothing", cap, len(traces))
	}
	if got := tr.Len(); got != cap {
		t.Errorf("window size = %d, want pinned at %d", got, cap)
	}

	// Eviction resets the latch: a returning trace starts fresh and re-fires
	// once it trips the policy again.
	small := core.NewTraceTracker(core.TracePolicy{MinAnomalous: 1, MinFraction: 1}, 1)
	if _, newly := small.Observe(1, true); !newly {
		t.Fatal("first trip did not fire")
	}
	small.Observe(2, false) // evicts trace 1
	if small.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", small.Evicted())
	}
	if _, newly := small.Observe(1, true); !newly {
		t.Error("returning evicted trace should re-fire its flag")
	}
}
