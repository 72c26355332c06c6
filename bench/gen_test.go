package main

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a clock the test moves by hand. SleepUntil never blocks: it
// jumps to the instant if that lies ahead.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// A server that stalls on one request delays everything scheduled behind it.
// Open-loop latency runs from the due instant, so the requests that were due
// during the stall are charged the part of it they waited out, although each
// was served in a millisecond once sent.
func TestOpenLoopChargesStallToRequestsBehindIt(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	reqs := []request{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}, {due: 30 * time.Millisecond}}
	send := func(r *request) outcome {
		if r.due == 0 {
			clk.SleepUntil(start.Add(100 * time.Millisecond)) // the stall
		} else {
			clk.advance(time.Millisecond)
		}
		return outcome{}
	}
	// One request in flight at a time: the stalled request holds the only sender.
	outs, _ := runOpen(clk, reqs, send, 1, 0, nil)

	for i, want := range []time.Duration{100, 91, 82, 73} {
		if o := outs[i]; o.latency != want*time.Millisecond || o.req != i || !o.measure {
			t.Errorf("request %d: latency %v (recorded as request %d, measured %v), want %v", i, o.latency, o.req, o.measure, want*time.Millisecond)
		}
	}
}

// overshootClock wakes late by a fixed amount, as a starved generator would.
type overshootClock struct {
	fakeClock
	by time.Duration
}

func (c *overshootClock) SleepUntil(t time.Time) { c.fakeClock.SleepUntil(t.Add(c.by)) }

// Lateness is how long after its due instant the dispatcher got to a request,
// and it is charged to that request's latency too.
func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	clk := &overshootClock{fakeClock: fakeClock{now: time.Unix(0, 0)}, by: 3 * time.Millisecond}
	reqs := []request{{due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}, {due: 30 * time.Millisecond}}
	outs, capHits := runOpen(clk, reqs, func(*request) outcome { return outcome{} }, 4, 0, nil)
	for i, o := range outs {
		if o.late != 3*time.Millisecond || o.latency < 3*time.Millisecond {
			t.Errorf("request %d: late %v latency %v, want both at least the 3ms overshoot", i, o.late, o.latency)
		}
	}
	if capHits != 0 {
		t.Errorf("%d requests found every sender busy, want none", capHits)
	}
}

func TestOpenLoopSplitsWarmupFromMeasured(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	reqs := []request{{due: 0}, {due: time.Second}, {due: 2 * time.Second}}
	fired := 0
	outs, _ := runOpen(clk, reqs, func(*request) outcome { return outcome{} }, 4, time.Second, func() { fired++ })
	if fired != 1 {
		t.Fatalf("boundary callback fired %d times, want once", fired)
	}
	if outs[0].measure || !outs[1].measure || !outs[2].measure {
		t.Errorf("measure flags %v %v %v, want false true true", outs[0].measure, outs[1].measure, outs[2].measure)
	}
}

// A request that failed, was shed or came back malformed was sent, missed the
// latency limit, and contributes no latency sample.
func TestFailedRequestsMissTheSLO(t *testing.T) {
	reqs := []request{{n: 4}, {n: 4}, {n: 4}, {n: 4}, {n: 4}}
	outs := []outcome{
		{req: 0, measure: true, class: ok, latency: 10 * time.Millisecond},
		{req: 1, measure: true, class: ok, latency: 80 * time.Millisecond}, // answered, too late
		{req: 2, measure: true, class: errShed, latency: time.Millisecond},
		{req: 3, measure: true, class: errTimeout, latency: time.Millisecond},
		{req: 4, measure: false, class: ok, latency: time.Millisecond}, // warm-up
	}
	got := summarize(outs, reqs, 50*time.Millisecond, true)
	if got.sent != 4 || got.ok != 2 || got.failed() != 2 || got.shed != 1 || got.timeout != 1 {
		t.Errorf("tally %+v", got)
	}
	if got.withinSLO != 1 || share(got.withinSLO, got.sent) != 0.25 {
		t.Errorf("within SLO %d of %d, want 1 of 4", got.withinSLO, got.sent)
	}
	if len(got.latMs) != 2 || got.lines != 8 {
		t.Errorf("%d latency samples over %d lines, want 2 over 8", len(got.latMs), got.lines)
	}
	if warm := summarize(outs, reqs, 50*time.Millisecond, false); warm.sent != 1 {
		t.Errorf("warm-up tally counts %d requests, want 1", warm.sent)
	}
}
