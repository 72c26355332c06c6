package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cascade"
	"repro/internal/flowbench"
	"repro/internal/logparse"
)

// TestAdmissionControlSheds pins that the shed budget is exact: the queue is
// the whole backlog, so a held one-worker engine with ShedQueueDepth 4 admits
// one running job plus four queued ones and refuses the sixth — before it
// reaches the model — with a Retry-After computed from depth 4.
func TestAdmissionControlSheds(t *testing.T) {
	g := newGatedEngine(t, BatchConfig{MaxBatch: 1, Workers: 1, QueueDepth: 64, ShedQueueDepth: 4})
	admitted := append([]pendingDetect{g.hold("s0")}, g.singles("s1", "s2", "s3", "s4")...)
	if st := g.stats(); st.QueueLen != 4 || st.Shed != 0 {
		t.Fatalf("after 1 running + 4 queued: %+v", st)
	}

	_, _, err := g.eng.DetectContext(context.Background(), []string{"s5"})
	var oe *OverloadedError
	if !errors.Is(err, errOverloaded) || !errors.As(err, &oe) {
		t.Fatalf("sixth request err = %v, want *OverloadedError", err)
	}
	// No batch has finished, so the estimate is the cold 25ms per job over
	// the 4 queued plus this one.
	if want := 125 * time.Millisecond; oe.RetryAfter != want {
		t.Fatalf("retry-after = %s, want %s (depth 4, one worker)", oe.RetryAfter, want)
	}
	if st := g.stats(); st.Shed != 1 || st.Requests != 5 {
		t.Fatalf("stats after shed: %+v", st)
	}
	g.finish(admitted...)
}

// TestShedOverHTTP pins the 429 wire contract: status, Retry-After in whole
// seconds, and Retry-After-Ms agreeing with it.
func TestShedOverHTTP(t *testing.T) {
	det := newGateDetector()
	srv := NewServerWith(det, BatchConfig{MaxBatch: 1, Workers: 1, QueueDepth: 64, ShedQueueDepth: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// LIFO: the worker must unblock before ts.Close waits on connections.
	defer close(det.release)

	post := func(query string) *http.Response {
		resp, err := ts.Client().Post(ts.URL+"/v1/detect/batch"+query, "application/json",
			strings.NewReader(`{"sentences": ["x is 1.0"]}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Saturate: worker blocked + queue at budget. Requests run in goroutines
	// since admitted ones block until release.
	for i := 0; i < 8; i++ {
		go func() {
			// Not post(): these are still in flight when the test returns
			// and ts.Close cuts their connections, and t.Fatal after the
			// test has completed panics the whole package run.
			resp, err := ts.Client().Post(ts.URL+"/v1/detect/batch", "application/json",
				strings.NewReader(`{"sentences": ["x is 1.0"]}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	// Each probe carries a deadline: one that slips in under the budget
	// expires (504) instead of blocking the loop, deepens the stuck queue,
	// and the next probe meets the shed threshold.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := post("?deadline_ms=100")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := resp.Header.Get("Retry-After")
			raMs := resp.Header.Get("Retry-After-Ms")
			if ra == "" || raMs == "" {
				t.Fatalf("429 missing Retry-After headers: %q %q", ra, raMs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("never observed a 429 despite a blocked worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMonitorShedOverHTTP pins that /v1/monitor speaks the same overload
// contract as the detect endpoints: a chunk shed by admission control answers
// 429 with both retry headers — not 400, which a retrying client reads as its
// own mistake — and the partial report is still the body. The worker is held
// and the queue put at its budget first, so the ingest's one chunk is the shed
// request.
func TestMonitorShedOverHTTP(t *testing.T) {
	det := newGateDetector()
	srv := NewServerWith(det, BatchConfig{MaxBatch: 2, Workers: 1, ShedQueueDepth: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(det.release) // LIFO: the worker unblocks before the closes wait on it

	go srv.DetectContext(context.Background(), []string{"held"})
	<-det.entered
	go srv.DetectContext(context.Background(), []string{"queued"})
	waitFor(t, "the second request to queue behind the held worker", func() bool {
		st, _ := srv.Registry().Stats("")
		return st.QueueLen == 1
	})

	resp, err := ts.Client().Post(ts.URL+"/v1/monitor", "text/plain",
		strings.NewReader(logOf([]flowbench.Job{streamJob(1, 0, true), streamJob(1, 1, false)})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed ingest status = %d, want 429", resp.StatusCode)
	}
	if ra, raMs := resp.Header.Get("Retry-After"), resp.Header.Get("Retry-After-Ms"); ra == "" || raMs == "" {
		t.Fatalf("429 missing retry headers: Retry-After %q, Retry-After-Ms %q", ra, raMs)
	}
	var body MonitorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("429 body is not a MonitorResponse: %v", err)
	}
	if body.Processed != 0 || !strings.Contains(body.Error, "overloaded") {
		t.Fatalf("body = %+v, want nothing processed and the overload named", body)
	}
}

// TestDeadlineExpiresQueuedRequest checks both halves of the deadline
// contract: the HTTP 504 on expiry, and the expired counter proving the job
// was dropped at dequeue rather than computed.
func TestDeadlineExpiresQueuedRequest(t *testing.T) {
	det := newGateDetector()
	srv := NewServerWith(det, BatchConfig{MaxBatch: 1, Workers: 1, QueueDepth: 64})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the worker so the deadlined request waits in queue.
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/detect/batch", "application/json",
			strings.NewReader(`{"sentences": ["blocker"]}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-det.entered

	resp, err := ts.Client().Post(ts.URL+"/v1/detect/batch?deadline_ms=30", "application/json",
		strings.NewReader(`{"sentences": ["x is 1.0"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadlined request status = %d, want 504", resp.StatusCode)
	}
	close(det.release)

	// The queued job is skipped at dequeue and counted as expired.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := srv.Registry().Stats("")
		if err != nil {
			t.Fatal(err)
		}
		if st.Expired >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired counter never advanced: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Malformed deadline is the client's mistake, and so is one whose
	// Duration would overflow.
	for _, v := range []string{"nope", "10000000000000"} {
		resp, err = ts.Client().Post(ts.URL+"/v1/detect/batch?deadline_ms="+v, "application/json",
			strings.NewReader(`{"sentences": ["x is 1.0"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline_ms=%s status = %d, want 400", v, resp.StatusCode)
		}
	}
}

// TestMaxQueueWaitSheds checks the queue-time budget: jobs that outstay
// MaxQueueWait are shed at dequeue with the 429 contract, not computed.
func TestMaxQueueWaitSheds(t *testing.T) {
	det := newGateDetector()
	reg := NewRegistry()
	cfg := BatchConfig{MaxBatch: 1, Workers: 1, QueueDepth: 64, MaxQueueWait: 20 * time.Millisecond}
	if err := reg.Add("m", det, cfg); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	eng, _ := reg.lookup("m")

	var wg sync.WaitGroup
	var shed atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := eng.DetectContext(context.Background(), []string{fmt.Sprintf("s%d", i)})
			if errors.Is(err, errOverloaded) {
				shed.Add(1)
			} else if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	// Hold the worker well past the budget, then let the backlog dequeue.
	time.Sleep(100 * time.Millisecond)
	close(det.release)
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("no request shed by the queue-wait budget")
	}
}

// TestBrownoutStateMachine unit-tests the hysteresis: engage only after the
// hold, stay engaged until the low watermark, and never flap in between.
func TestBrownoutStateMachine(t *testing.T) {
	b := &brownout{high: 10, low: 2, hold: 100 * time.Millisecond}
	t0 := time.Unix(0, 0)
	if b.observe(12, t0) {
		t.Fatal("engaged instantly; saturation must be sustained")
	}
	if b.observe(12, t0.Add(50*time.Millisecond)) {
		t.Fatal("engaged before hold elapsed")
	}
	// A dip below the high watermark resets the hold clock.
	if b.observe(5, t0.Add(60*time.Millisecond)) {
		t.Fatal("engaged on a dip")
	}
	if b.observe(12, t0.Add(70*time.Millisecond)) {
		t.Fatal("hold clock survived the dip")
	}
	if !b.observe(12, t0.Add(200*time.Millisecond)) {
		t.Fatal("not engaged after sustained saturation")
	}
	// Engaged: mid-range depth keeps the tier on (hysteresis).
	if !b.observe(5, t0.Add(210*time.Millisecond)) {
		t.Fatal("disengaged above the low watermark")
	}
	if !b.active() {
		t.Fatal("active() disagrees with observe")
	}
	if b.observe(1, t0.Add(220*time.Millisecond)) {
		t.Fatal("still engaged at the low watermark")
	}
	// Disabled watermark never engages.
	off := &brownout{}
	if off.observe(1000, t0) || off.active() {
		t.Fatal("zero-value brownout engaged")
	}
}

// TestBrownoutServesDegraded drives a saturated engine with a cascade gate
// installed and checks that traffic flips to the degraded tier (marked
// degraded, counted in stats) and recovers after the queue drains.
func TestBrownoutServesDegraded(t *testing.T) {
	det := newGateDetector()
	reg := NewRegistry()
	cfg := BatchConfig{
		MaxBatch: 1, Workers: 1, QueueDepth: 64,
		BrownoutDepth: 3, BrownoutHold: 10 * time.Millisecond,
	}
	if err := reg.Add("m", det, cfg); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	jobs, verdicts := cascadeTestJobs(128, 8)
	if err := reg.SetCascade("m", testCascadeGate(t, jobs, verdicts)); err != nil {
		t.Fatal(err)
	}
	probe := logparse.Sentence(jobs[0]) // a key the gate saw flagged
	eng, _ := reg.lookup("m")

	// Build a sustained backlog against the blocked worker.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng.DetectContext(context.Background(), []string{fmt.Sprintf("s%d", i)})
		}(i)
	}
	var sawDegraded bool
	deadline := time.Now().Add(5 * time.Second)
	for !sawDegraded {
		if time.Now().After(deadline) {
			t.Fatal("brownout never engaged under sustained saturation")
		}
		time.Sleep(15 * time.Millisecond)
		// Probes before the tier engages enqueue against the blocked worker
		// and would wait forever; a short context bounds each observation.
		pctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		res, degraded, err := eng.DetectContext(pctx, []string{probe})
		cancel()
		if err != nil {
			continue // timed out in queue: tier not engaged yet
		}
		if degraded {
			if len(res) != 1 || res[0].Label != 1 {
				t.Fatalf("degraded result not from the gate: %+v", res)
			}
			sawDegraded = true
		}
	}
	if !eng.brownoutActive() {
		t.Fatal("brownoutActive false while serving degraded")
	}
	st, _ := reg.Stats("m")
	if st.Degraded == 0 || !st.BrownoutActive {
		t.Fatalf("stats missed the brownout: %+v", st)
	}

	// Drain and recover: with the worker released the queue empties and the
	// next observation at/below the low watermark disengages the tier.
	close(det.release)
	wg.Wait()
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, degraded, err := eng.DetectContext(context.Background(), []string{probe})
		if err != nil {
			t.Fatal(err)
		}
		if !degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("brownout never recovered after drain")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if eng.brownoutActive() {
		t.Fatal("brownoutActive true after recovery")
	}
}

// TestBrownoutAnswersFromGate pins what the brownout tier answers: each
// parsed line the gate's majority verdict on its key (the pre-filter's label
// on both confident bands, flagged on a key with no calibration evidence)
// scored with the key's rate, and an unparseable line {0, 0}. A model with
// the watermark armed but no gate never degrades: it queues and sheds as
// without the watermark.
func TestBrownoutAnswersFromGate(t *testing.T) {
	// Enough negatives that High lands below the anomalies' rate: the
	// confident-abnormal band is populated.
	jobs, verdicts := cascadeTestJobs(512, 8)
	gate := testCascadeGate(t, jobs, verdicts)
	unseen := jobs[1]
	for k := range unseen.Features {
		unseen.Features[k] = 1e9
	}
	lines := []string{
		logparse.Sentence(jobs[1]), // confident normal
		logparse.Sentence(jobs[0]), // confident abnormal
		logparse.Sentence(unseen),  // no evidence: passes to stage 2
		"not a feature sentence",
	}
	wantRoute := []cascade.Decision{cascade.ShortNormal, cascade.ShortAbnormal, cascade.PassThrough}
	wantLabel := []int{0, 1, 1, 0}

	// A 1ns hold engages the tier on the second observation at depth >= 2.
	cfg := BatchConfig{MaxBatch: 1, Workers: 1, QueueDepth: 64, ShedQueueDepth: 3, BrownoutDepth: 2, BrownoutHold: time.Nanosecond}
	g := newGatedEngine(t, cfg)
	g.eng.gate.Store(gate)
	// One running batch and two queued keep the depth above the low
	// watermark (1), so the engaged tier stays on for the probe.
	held := append([]pendingDetect{g.hold("s0")}, g.singles("s1", "s2")...)
	g.eng.brown.mu.Lock()
	g.eng.brown.engaged = true
	g.eng.brown.mu.Unlock()
	res, degraded, err := g.eng.DetectContext(context.Background(), lines)
	if err != nil || !degraded {
		t.Fatalf("engaged tier: degraded %v, err %v", degraded, err)
	}
	for i, r := range res {
		want := Result{Label: wantLabel[i]}
		if score, ok := gate.ScoreSentence(lines[i]); ok {
			if route := gate.Decide(score); route != wantRoute[i] {
				t.Fatalf("line %d takes route %d, want %d", i, route, wantRoute[i])
			}
			want.Score = score
		}
		if r != want {
			t.Errorf("line %d (%q): %+v, want %+v", i, lines[i], r, want)
		}
	}
	if st := g.stats(); st.Degraded != int64(len(lines)) {
		t.Errorf("degraded = %d, want %d", st.Degraded, len(lines))
	}
	g.finish(held...)

	// No gate: the same watermark, passed twice (s3 and s4 arrive at depth
	// 2 and 3), only queues and sheds.
	ng := newGatedEngine(t, cfg)
	queued := append([]pendingDetect{ng.hold("s0")}, ng.singles("s1", "s2", "s3")...)
	_, _, err = ng.eng.DetectContext(context.Background(), []string{"s4"})
	if !errors.Is(err, errOverloaded) {
		t.Fatalf("request past the shed depth: err = %v, want overloaded", err)
	}
	if st := ng.stats(); st.Degraded != 0 || st.Shed != 1 || ng.eng.brownoutActive() {
		t.Fatalf("gateless model degraded: %+v, brownout active %v", st, ng.eng.brownoutActive())
	}
	ng.finish(queued...)
}

// TestReadyzReflectsSaturation pins the liveness/readiness split: /healthz
// stays 200 while /readyz answers 503 the moment a model's brownout tier is
// engaged, with per-model saturation in the body.
func TestReadyzReflectsSaturation(t *testing.T) {
	srv := NewServerWith(hashDetector{}, BatchConfig{MaxBatch: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (int, readyResponse) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body readyResponse
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}
	code, body := get("/readyz")
	if code != http.StatusOK || !body.Ready {
		t.Fatalf("idle server not ready: %d %+v", code, body)
	}
	if len(body.Models) != 1 || body.Models[0].QueueCap == 0 {
		t.Fatalf("readiness body missing model rows: %+v", body)
	}

	// Engage the default model's brownout tier directly (same package).
	eng, err := srv.Registry().lookup("")
	if err != nil {
		t.Fatal(err)
	}
	eng.brown.mu.Lock()
	eng.brown.high = 1
	eng.brown.engaged = true
	eng.brown.mu.Unlock()

	code, body = get("/readyz")
	if code != http.StatusServiceUnavailable || body.Ready {
		t.Fatalf("browned-out server reported ready: %d %+v", code, body)
	}
	if !body.Models[0].Degraded {
		t.Fatalf("model row not marked degraded: %+v", body.Models[0])
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Fatalf("liveness flipped with readiness: /healthz = %d", code)
	}
}
