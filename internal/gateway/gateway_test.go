package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowbench"
	"repro/internal/logparse"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// markDetector is the replicas' model: it flags exactly the sentences of the
// jobs streamJob marks abnormal, so a verdict is a pure function of its line.
type markDetector struct{}

func (markDetector) Detect(ss []string, _ *tensor.Workspace) ([]core.Result, error) {
	out := make([]core.Result, len(ss))
	for i, s := range ss {
		out[i] = core.Result{Label: 0, Score: 0.01}
		if strings.Contains(s, " is 666.0") {
			out[i] = core.Result{Label: 1, Score: 0.99}
		}
	}
	return out, nil
}

func (markDetector) Approach() core.Approach   { return core.SFT }
func (markDetector) Precision() core.Precision { return core.PrecisionFP32 }

// streamJob builds a parseable job, distinct per node; abnormal jobs carry
// the value markDetector flags.
func streamJob(trace, node int, abnormal bool) flowbench.Job {
	j := flowbench.Job{Workflow: flowbench.Genome, TraceID: trace, NodeIndex: node, TaskType: "t"}
	for i := range j.Features {
		j.Features[i] = float64(10 + i + node)
	}
	if abnormal {
		j.Features[2] = 666
	}
	return j
}

// monitorLog is n distinct lines over traces 0..traces-1, every third one
// abnormal.
func monitorLog(n, traces int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(logparse.LogLine(streamJob(i%traces, i, i%3 == 0)))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// sentence is the i-th distinct sentence, so the front's dedup never merges
// two of a test's requests.
func sentence(i int) string { return logparse.Sentence(streamJob(0, i, false)) }

// fakeReplica is an anomalyd: a real core.Server over markDetector, behind a
// handler the test scripts.
type fakeReplica struct {
	srv  *httptest.Server
	node *core.Server

	shedMs   atomic.Int64 // answer batches 429 with this Retry-After-Ms (0: serve them)
	degraded atomic.Bool  // answer batches as a browned-out replica does
	delay    atomic.Int64 // ns a batch waits before it is served
	unready  atomic.Bool  // GET /readyz answers 503
	dead     atomic.Bool  // every connection is dropped, as by a crashed replica

	batches atomic.Int64 // batch requests that reached it, dead or alive
}

func newFakeReplica(t *testing.T, cfg core.BatchConfig) *fakeReplica {
	t.Helper()
	f := &fakeReplica{node: core.NewServerWith(markDetector{}, cfg)}
	f.srv = httptest.NewServer(f)
	t.Cleanup(func() {
		f.srv.Close()
		f.node.Close()
	})
	return f
}

func (f *fakeReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/detect/batch" {
		f.batches.Add(1)
	}
	switch {
	case f.dead.Load():
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
		return
	case r.URL.Path == "/readyz" && f.unready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	case r.URL.Path != "/v1/detect/batch":
	case f.shedMs.Load() > 0:
		resilience.SetRetryAfter(w.Header(), time.Duration(f.shedMs.Load())*time.Millisecond)
		w.WriteHeader(http.StatusTooManyRequests)
		return
	case f.degraded.Load():
		var req core.BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(core.BatchResponse{Results: make([]core.DetectResponse, len(req.Sentences)), Degraded: true})
		return
	case f.delay.Load() > 0:
		// Consumed, the body lets the server see a client that hangs up.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		select {
		case <-time.After(time.Duration(f.delay.Load())):
		case <-r.Context().Done():
			return
		}
	}
	f.node.ServeHTTP(w, r)
}

// fleet is n one-worker replicas.
func fleet(t *testing.T, n int) []*fakeReplica {
	out := make([]*fakeReplica, n)
	for i := range out {
		out[i] = newFakeReplica(t, core.BatchConfig{Workers: 1})
	}
	return out
}

// newFront builds a gateway over the fakes and serves it.
func newFront(t *testing.T, cfg Config, fakes ...*fakeReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	for _, f := range fakes {
		cfg.Replicas = append(cfg.Replicas, f.srv.URL)
	}
	g, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(g)
	t.Cleanup(func() {
		srv.Close()
		g.Close()
	})
	return g, srv
}

func post(t *testing.T, url, ctype, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, ctype, strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b
}

// detect sends sentence as a one-line batch, failing the test on anything
// but a 200 with one verdict.
func detect(t *testing.T, base, sentence string) {
	t.Helper()
	status, _, body := post(t, base+"/v1/detect/batch", "application/json", fmt.Sprintf(`{"sentences":[%q]}`, sentence))
	var br core.BatchResponse
	if status != http.StatusOK || json.Unmarshal(body, &br) != nil || len(br.Results) != 1 || br.Degraded {
		t.Fatalf("detect: status %d, body %s", status, body)
	}
}

// monitor posts a plain-text log to the front's /v1/monitor.
func monitor(t *testing.T, base, log string) (int, core.MonitorResponse) {
	t.Helper()
	status, _, body := post(t, base+"/v1/monitor", "text/plain", log)
	var mr core.MonitorResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatalf("monitor: status %d, body %s", status, body)
	}
	return status, mr
}

// singleNode is what one replica running the whole log itself reports.
func singleNode(t *testing.T, log string) core.MonitorReport {
	t.Helper()
	node := core.NewServerWith(markDetector{}, core.BatchConfig{Workers: 1})
	defer node.Close()
	rep, err := node.MonitorIngest(context.Background(), strings.NewReader(log), false)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// defaultModel is the default model's row of base's GET /v1/models.
func defaultModel(t *testing.T, base string) core.ModelInfo {
	t.Helper()
	var mr core.ModelsResponse
	getJSON(t, base+"/v1/models", &mr)
	for _, m := range mr.Models {
		if m.Default {
			return m
		}
	}
	t.Fatalf("%s lists no default model: %+v", base, mr)
	return core.ModelInfo{}
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func metricValue(t *testing.T, text, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			var f float64
			if _, err := fmt.Sscanf(v, "%g", &f); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("sample %q not in exposition:\n%s", sample, text)
	return 0
}

// fakeClock is the breakers' time: the tests step it past the cooldown.
type fakeClock struct{ now time.Time }

func (c *fakeClock) read() time.Time { return c.now }

func TestForwardBasic(t *testing.T) {
	f := fleet(t, 2)
	_, srv := newFront(t, Config{}, f...)

	status, _, body := post(t, srv.URL+"/v1/detect", "application/json",
		fmt.Sprintf(`{"log_line":%q}`, logparse.LogLine(streamJob(1, 1, true))))
	var dr core.DetectResponse
	if status != http.StatusOK || json.Unmarshal(body, &dr) != nil || dr.Label != 1 {
		t.Fatalf("status %d, body %s; want 200 and an abnormal verdict", status, body)
	}
	if n := f[0].batches.Load() + f[1].batches.Load(); n != 1 {
		t.Fatalf("fleet computed %d batches, want 1", n)
	}
}

// TestTraceAffinity pins what trace affinity is for: every line of a trace,
// over however many posts, meets one tracker — the front's — and the
// replicas hold no trace state.
func TestTraceAffinity(t *testing.T) {
	f := fleet(t, 2)
	_, srv := newFront(t, Config{}, f...)

	// Trace 7's abnormal lines come in five posts. Its first flags it, and the
	// flag latches on the tracker that saw it: a post meeting another tracker
	// would flag the trace again.
	for i := 0; i < 5; i++ {
		status, mr := monitor(t, srv.URL, logparse.LogLine(streamJob(7, i, true))+"\n")
		if want := map[bool]int{true: 1}[i == 0]; status != http.StatusOK || mr.FlaggedTraces != want {
			t.Fatalf("post %d: status %d, %d traces flagged, want 200 and %d", i, status, mr.FlaggedTraces, want)
		}
	}
	if n := defaultModel(t, srv.URL).ActiveTraces; n != 1 {
		t.Errorf("front tracks %d traces, want 1", n)
	}
	for _, r := range f {
		if n := defaultModel(t, r.srv.URL).ActiveTraces; n != 0 {
			t.Errorf("replica %s tracks %d traces, want 0", r.srv.URL, n)
		}
	}
}

// TestHealthEjectionAndReadmission steps a replica's breaker through its
// states on a fake clock: a replica that drops connections stops receiving
// batches after BreakerThreshold failures, and after the cooldown its
// half-open probe — a real batch — readmits it.
func TestHealthEjectionAndReadmission(t *testing.T) {
	f := fleet(t, 2)
	a := f[0]
	g, srv := newFront(t, Config{BreakerThreshold: 2}, f...)
	clock := &fakeClock{now: time.Unix(0, 0)}
	for _, rep := range g.pool.replicas {
		rep.breaker = resilience.NewBreakerClock(2, breakerCooldown, clock.read)
	}

	a.dead.Store(true)
	for i := 1; i <= 4; i++ {
		detect(t, srv.URL, sentence(i)) // answered by the other replica
		if want := int64(min(i, 2)); a.batches.Load() != want {
			t.Fatalf("batch %d: the dead replica was sent %d batches, want %d", i, a.batches.Load(), want)
		}
	}
	text := metricsText(t, srv.URL)
	if v := metricValue(t, text, fmt.Sprintf("repro_gateway_ejections_total{replica=%q}", a.srv.URL)); v != 1 {
		t.Fatalf("ejections_total = %v, want 1", v)
	}

	clock.now = clock.now.Add(breakerCooldown)
	a.dead.Store(false)
	detect(t, srv.URL, sentence(5))
	if a.batches.Load() != 3 {
		t.Fatalf("after the cooldown the replica was sent %d batches, want 3 (the probe)", a.batches.Load())
	}
	if st := g.pool.replicas[0].breaker.State(); st != resilience.Closed {
		t.Fatalf("breaker %s after a successful probe, want closed", st)
	}
	detect(t, srv.URL, sentence(6))
	if a.batches.Load() != 4 {
		t.Fatalf("readmitted replica was sent %d batches, want 4", a.batches.Load())
	}
}

// TestUnreadyReplicaKeepsReceivingBatches pins that saturation is queueing,
// not ejection: nothing reads a replica's /readyz, so one reporting itself
// saturated keeps computing the batches routed to it.
func TestUnreadyReplicaKeepsReceivingBatches(t *testing.T) {
	f := fleet(t, 2)
	_, srv := newFront(t, Config{}, f...)
	f[0].unready.Store(true)
	for i := 1; i <= 5; i++ {
		detect(t, srv.URL, sentence(i))
		if f[0].batches.Load() != int64(i) {
			t.Fatalf("unready replica was sent %d of %d batches", f[0].batches.Load(), i)
		}
	}
}

// TestReplica429MovesBatch: a replica's 429, or its brownout tier's answer,
// sends the batch on to the next replica, on the retry budget, and counts
// nothing against the refuser.
func TestReplica429MovesBatch(t *testing.T) {
	f := fleet(t, 2)
	g, srv := newFront(t, Config{BreakerThreshold: 1}, f...)
	f[0].shedMs.Store(60000)
	for i := 1; i <= 3; i++ {
		if i == 3 {
			f[0].shedMs.Store(0)
			f[0].degraded.Store(true)
		}
		detect(t, srv.URL, sentence(i))
		if f[0].batches.Load() != int64(i) || f[1].batches.Load() != int64(i) {
			t.Fatalf("batch %d: refuser sent %d, other %d; want %d each", i, f[0].batches.Load(), f[1].batches.Load(), i)
		}
	}
	if st := g.pool.replicas[0].breaker.State(); st != resilience.Closed {
		t.Fatalf("refusing replica's breaker %s, want closed", st)
	}
	text := metricsText(t, srv.URL)
	if v := metricValue(t, text, "repro_gateway_retries_total"); v != 3 {
		t.Fatalf("retries_total = %v, want 3", v)
	}
	if v := metricValue(t, text, "repro_gateway_shed_total"); v != 0 {
		t.Fatalf("shed_total = %v, want 0", v)
	}
}

// TestShedWhenNothingRoutable: the front answers 429 only when every replica
// refused the batch, with the smallest of their hints, written by core's one
// 429 writer — and the next batch tries the replicas again.
func TestShedWhenNothingRoutable(t *testing.T) {
	f := fleet(t, 2)
	_, srv := newFront(t, Config{}, f...)
	f[0].shedMs.Store(60000)
	f[1].shedMs.Store(30000)
	for i := 1; i <= 2; i++ {
		status, h, body := post(t, srv.URL+"/v1/detect/batch", "application/json", fmt.Sprintf(`{"sentences":[%q]}`, sentence(i)))
		if status != http.StatusTooManyRequests || h.Get("Retry-After") != "30" || h.Get("Retry-After-Ms") != "30000" ||
			!strings.Contains(string(body), "core: overloaded") {
			t.Fatalf("status %d, headers %v, body %q; want core's 429 with the smaller hint", status, h, body)
		}
		if f[0].batches.Load() != int64(i) || f[1].batches.Load() != int64(i) {
			t.Fatalf("shed %d reached the replicas %d and %d times, want %d each", i, f[0].batches.Load(), f[1].batches.Load(), i)
		}
	}
	text := metricsText(t, srv.URL)
	if v := metricValue(t, text, "repro_gateway_shed_total"); v != 2 {
		t.Fatalf("shed_total = %v, want 2", v)
	}
	if n := defaultModel(t, srv.URL).Stats.Shed; n != 2 {
		t.Fatalf("front's stats counted %d sheds, want the 2 it answered 429", n)
	}
	f[1].shedMs.Store(0)
	detect(t, srv.URL, sentence(3))
}

// TestHungReplicaOpensItsBreaker: a replica that takes a batch and never
// answers fails the forward at attemptTimeout, and its breaker counts that.
// With the hedge budget spent, nothing else would bound the wait: the batch
// fails instead of holding a front worker, the replica's circuit opens, and
// the next batch goes to the other replica.
func TestHungReplicaOpensItsBreaker(t *testing.T) {
	f := fleet(t, 2)
	g, srv := newFront(t, Config{BreakerThreshold: 1}, f...)
	clock := &fakeClock{now: time.Unix(0, 0)}
	g.pool.replicas[0].breaker = resilience.NewBreakerClock(1, breakerCooldown, clock.read)
	f[0].delay.Store(int64(time.Hour)) // the first in preference order
	// Spend the retry budget: the hung forward gets neither a hedge nor a retry.
	for g.pool.budget.Withdraw() {
	}

	start := time.Now()
	status, _, body := post(t, srv.URL+"/v1/detect/batch", "application/json", fmt.Sprintf(`{"sentences":[%q]}`, sentence(1)))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s; want 503: the hung forward failed and no retry was in budget", status, body)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("the batch waited %v on a hung replica", elapsed)
	}
	if st := g.pool.replicas[0].breaker.State(); st != resilience.Open {
		t.Fatalf("hung replica's breaker %s, want open", st)
	}
	if v := metricValue(t, metricsText(t, srv.URL), fmt.Sprintf("repro_gateway_ejections_total{replica=%q}", f[0].srv.URL)); v != 1 {
		t.Fatalf("ejections_total = %v, want 1", v)
	}
	detect(t, srv.URL, sentence(2))
	if f[0].batches.Load() != 1 || f[1].batches.Load() != 1 {
		t.Fatalf("hung replica sent %d batches, other %d; want 1 each", f[0].batches.Load(), f[1].batches.Load())
	}
}

// TestHedgedPairIsNotRetried: a batch whose hedge launched has been sent to
// both replicas of the pair. When both fail, no retry spends a budget token
// sending it to either again.
func TestHedgedPairIsNotRetried(t *testing.T) {
	f := fleet(t, 2)
	_, srv := newFront(t, Config{}, f...)
	for _, r := range f {
		r.delay.Store(int64(time.Hour))
	}
	status, _, body := post(t, srv.URL+"/v1/detect/batch", "application/json", fmt.Sprintf(`{"sentences":[%q]}`, sentence(1)))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s; want 503", status, body)
	}
	if f[0].batches.Load() != 1 || f[1].batches.Load() != 1 {
		t.Fatalf("replicas sent %d and %d batches, want 1 each", f[0].batches.Load(), f[1].batches.Load())
	}
	text := metricsText(t, srv.URL)
	for sample, want := range map[string]float64{"repro_gateway_hedges_total": 1, "repro_gateway_retries_total": 0} {
		if v := metricValue(t, text, sample); v != want {
			t.Errorf("%s = %v, want %v", sample, v, want)
		}
	}
}

func TestHedgeWinsOverStraggler(t *testing.T) {
	f := fleet(t, 2)
	_, srv := newFront(t, Config{}, f...)
	// The first replica in preference order straggles far beyond hedgeMax,
	// the delay a hedge waits before any forward latency is known.
	f[0].delay.Store(int64(time.Minute))

	start := time.Now()
	detect(t, srv.URL, sentence(1))
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("hedged batch took %v, behind its one-minute straggler", elapsed)
	}
	text := metricsText(t, srv.URL)
	for sample, want := range map[string]float64{
		"repro_gateway_hedges_total":                                           1,
		"repro_gateway_hedge_wins_total":                                       1,
		fmt.Sprintf("repro_gateway_forwarded_total{replica=%q}", f[0].srv.URL): 0,
		fmt.Sprintf("repro_gateway_forwarded_total{replica=%q}", f[1].srv.URL): 1,
	} {
		if v := metricValue(t, text, sample); v != want {
			t.Errorf("%s = %v, want %v", sample, v, want)
		}
	}
}

// TestHedgeDelayFollowsComputeP99: a batch's hedge delay is the front
// engine's compute p99 read when the batch is sent, clamped to [hedgeMin,
// hedgeMax] — hedgeMax before any batch — with no cached copy that lags the
// histogram by a run of batches.
func TestHedgeDelayFollowsComputeP99(t *testing.T) {
	f := fleet(t, 2)
	g, srv := newFront(t, Config{}, f...)
	reg := g.Registry()
	d := &remote{reg: reg, model: reg.Default()}
	if got := d.hedgeDelay(); got != hedgeMax {
		t.Fatalf("delay before any batch = %v, want hedgeMax %v", got, hedgeMax)
	}
	// slowBatch runs one batch that both replicas hold for delay, and returns
	// the front's compute p99 after it.
	slowBatch := func(delay time.Duration) time.Duration {
		for _, r := range f {
			r.delay.Store(int64(delay))
		}
		detect(t, srv.URL, sentence(int(delay)))
		st, err := reg.Stats("")
		if err != nil {
			t.Fatal(err)
		}
		return time.Duration(st.ComputeP99Ms * float64(time.Millisecond))
	}

	p99 := slowBatch(30 * time.Millisecond)
	if p99 < hedgeMin || p99 >= hedgeMax {
		t.Fatalf("compute p99 %v after a 30 ms batch, want inside [%v, %v)", p99, hedgeMin, hedgeMax)
	}
	if got := d.hedgeDelay(); got != p99 {
		t.Errorf("delay after a 30 ms batch = %v, want the compute p99 %v", got, p99)
	}

	if p99 = slowBatch(2 * hedgeMax); p99 <= hedgeMax {
		t.Fatalf("compute p99 %v after a %v batch, want above hedgeMax", p99, 2*hedgeMax)
	}
	if got := d.hedgeDelay(); got != hedgeMax {
		t.Errorf("delay with compute p99 %v = %v, want hedgeMax %v", p99, got, hedgeMax)
	}

	// The lower clamp needs a round trip under hedgeMin. The first one after
	// the hedge race above may dial a new connection, so allow a few tries.
	for try := 1; ; try++ {
		if err := reg.ResetStats(""); err != nil {
			t.Fatal(err)
		}
		if got := d.hedgeDelay(); got != hedgeMax {
			t.Fatalf("delay after a stats reset = %v, want hedgeMax %v", got, hedgeMax)
		}
		if p99 = slowBatch(0); p99 < hedgeMin {
			break
		}
		if try == 5 {
			t.Fatalf("compute p99 %v on an undelayed replica, want below hedgeMin %v", p99, hedgeMin)
		}
	}
	if got := d.hedgeDelay(); got != hedgeMin {
		t.Errorf("delay with compute p99 %v = %v, want hedgeMin %v", p99, got, hedgeMin)
	}
}

// TestModelsMergeAndStatsReset: the front's models are the replicas', with
// their batch sizes and their summed workers and shed depths, and its stats
// are its own.
func TestModelsMergeAndStatsReset(t *testing.T) {
	a := newFakeReplica(t, core.BatchConfig{MaxBatch: 16, Workers: 1, ShedQueueDepth: 4})
	b := newFakeReplica(t, core.BatchConfig{MaxBatch: 8, Workers: 2, ShedQueueDepth: 6})
	c := newFakeReplica(t, core.BatchConfig{Workers: 1})
	_, ab := newFront(t, Config{}, a, b)
	_, ac := newFront(t, Config{}, a, c)

	m := defaultModel(t, ab.URL)
	if m.Name != core.DefaultModel || m.Approach != core.SFT || m.Precision != core.PrecisionFP32 ||
		m.MaxBatch != 8 || m.Workers != 3 || m.ShedQueueDepth != 10 {
		t.Fatalf("front model %+v, want the replicas' default sft/fp32 model, max batch 8, 3 workers, shed depth 10", m)
	}
	if d := defaultModel(t, ac.URL).ShedQueueDepth; d != 0 {
		t.Fatalf("shed depth %d over a replica that does not shed, want 0", d)
	}

	detect(t, ab.URL, sentence(1))
	detect(t, ab.URL, sentence(2))
	if n := defaultModel(t, ab.URL).Stats.Requests; n != 2 {
		t.Fatalf("front counted %d requests, want 2", n)
	}
	if status, _, _ := post(t, ab.URL+"/v1/stats/reset", "", ""); status != http.StatusNoContent {
		t.Fatalf("reset status %d, want 204", status)
	}
	if n := defaultModel(t, ab.URL).Stats.Requests; n != 0 {
		t.Fatalf("front counted %d requests after its reset, want 0", n)
	}
	if n := defaultModel(t, a.srv.URL).Stats.Requests + defaultModel(t, b.srv.URL).Stats.Requests; n != 2 {
		t.Fatalf("replicas counted %d batches, want 2: the front's reset is its own", n)
	}
}

// TestMonitorDemux: the front splits a monitor stream into batches across the
// replicas — every line computed by exactly one of them — and its report is a
// single node's.
func TestMonitorDemux(t *testing.T) {
	f := fleet(t, 3)
	_, srv := newFront(t, Config{}, f...)

	log := monitorLog(90, 6)
	status, mr := monitor(t, srv.URL, log)
	if status != http.StatusOK || mr.Error != "" {
		t.Fatalf("status %d, error %q", status, mr.Error)
	}
	if want := singleNode(t, log); mr.MonitorReport != want {
		t.Fatalf("front report %+v, single node %+v", mr.MonitorReport, want)
	}
	var computed int64
	for _, r := range f {
		m := defaultModel(t, r.srv.URL)
		computed += m.Stats.Sentences
		if m.ActiveTraces != 0 {
			t.Errorf("replica %s tracks %d traces, want 0", r.srv.URL, m.ActiveTraces)
		}
	}
	if computed != 90 {
		t.Fatalf("replicas computed %d sentences of 90", computed)
	}
}

func TestMonitorJSONBody(t *testing.T) {
	_, srv := newFront(t, Config{}, fleet(t, 2)...)
	body, _ := json.Marshal(core.MonitorRequest{Lines: []string{
		logparse.LogLine(streamJob(1, 1, true)),
		logparse.LogLine(streamJob(2, 2, false)),
	}})
	status, _, reply := post(t, srv.URL+"/v1/monitor", "application/json", string(body))
	var mr core.MonitorResponse
	if status != http.StatusOK || json.Unmarshal(reply, &mr) != nil || mr.Processed != 2 || mr.Alerts != 1 {
		t.Fatalf("status %d, body %s; want 2 lines processed, 1 alert", status, reply)
	}
}

// TestMonitorReroutesWhenReplicaDies: with one replica dropping every
// connection, its batches go to the survivors and no line is lost.
func TestMonitorReroutesWhenReplicaDies(t *testing.T) {
	f := fleet(t, 3)
	_, srv := newFront(t, Config{}, f...)
	f[0].dead.Store(true) // the first in preference order

	log := monitorLog(90, 6)
	status, mr := monitor(t, srv.URL, log)
	if status != http.StatusOK || mr.MonitorReport != singleNode(t, log) {
		t.Fatalf("status %d, report %+v (error %q); want 200 and the single node's report", status, mr.MonitorReport, mr.Error)
	}
	if f[0].batches.Load() == 0 {
		t.Fatal("no batch was sent to the dead replica: nothing was re-routed")
	}
	if n := defaultModel(t, f[1].srv.URL).Stats.Sentences + defaultModel(t, f[2].srv.URL).Stats.Sentences; n != 90 {
		t.Fatalf("survivors computed %d sentences of 90", n)
	}
}

// TestMonitorWithNoReplicaLeftIsNotOK: a monitor stream no replica can
// compute is the server's failure, not the client's and not a success — 503,
// with the partial report and its error.
func TestMonitorWithNoReplicaLeftIsNotOK(t *testing.T) {
	f := fleet(t, 2)
	_, srv := newFront(t, Config{}, f...)
	for _, r := range f {
		r.srv.Close()
	}
	status, mr := monitor(t, srv.URL, monitorLog(10, 2))
	if status != http.StatusServiceUnavailable || mr.Processed >= 10 || mr.Error == "" {
		t.Fatalf("status %d, processed %d of 10, error %q; want 503, lines lost, an error", status, mr.Processed, mr.Error)
	}
}

// TestAlertsFanIn: the alerts of lines computed across the fleet reach one
// stream, the front's, in input order.
func TestAlertsFanIn(t *testing.T) {
	_, srv := newFront(t, Config{}, fleet(t, 2)...)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // ends a stream short of events
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/alerts", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /v1/alerts: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), ":") {
		t.Fatalf("stream opened with %q", sc.Text()) // the subscription exists from here on
	}

	log := monitorLog(60, 4)
	var want []string
	for i, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if i%3 == 0 {
			want = append(want, line)
		}
	}
	if status, mr := monitor(t, srv.URL, log); status != http.StatusOK || mr.Alerts != len(want) {
		t.Fatalf("status %d, %d alerts, want 200 and %d", status, mr.Alerts, len(want))
	}
	var got []string
	for len(got) < len(want) && sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev core.AlertEvent
			if json.Unmarshal([]byte(data), &ev) == nil && ev.Line != "" {
				got = append(got, ev.Line)
			}
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("alerts arrived as\n%s\nwant, in input order,\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestGatewayMetricsExposition: the front's /metrics is one valid exposition
// — core's families and the pool's, each family's # TYPE once, before its
// samples, each sample on one line — with every repro_gateway_* sample the
// benchmark reads.
func TestGatewayMetricsExposition(t *testing.T) {
	f := fleet(t, 2)
	_, srv := newFront(t, Config{}, f...)
	detect(t, srv.URL, sentence(1))
	monitor(t, srv.URL, monitorLog(10, 2))

	text := metricsText(t, srv.URL)
	typed, kind := map[string]int{}, map[string]string{}
	sample := regexp.MustCompile(`^([a-z_]+)(\{[a-z_]+="[^"\\]*"(,[a-z_]+="[^"\\]*")*\})? -?[0-9.e+-]+$`)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			typed[f[0]]++
			kind[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("not a sample line: %q", line)
			continue
		}
		// A histogram's samples carry its family's name plus a suffix; no
		// other family's do.
		family := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suffix); ok && kind[base] == "histogram" {
				family = base
			}
		}
		if typed[family] == 0 {
			t.Errorf("sample before its family's # TYPE: %q", line)
		}
	}
	for name, n := range typed {
		if n != 1 {
			t.Errorf("# TYPE %s appears %d times", name, n)
		}
	}
	if typed["repro_requests_total"] != 1 {
		t.Errorf("core's families missing:\n%s", text)
	}
	if v := metricValue(t, text, `repro_gateway_forward_latency_ms{model="default",quantile="0.5"}`); v <= 0 {
		t.Errorf("forward p50 = %v after traffic, want > 0", v)
	}
	metricValue(t, text, `repro_gateway_forward_latency_ms{model="default",quantile="0.99"}`)
	for _, name := range []string{"retries_total", "hedges_total", "hedge_wins_total", "shed_total", "breaker_open_total"} {
		if v := metricValue(t, text, "repro_gateway_"+name); v != 0 {
			t.Errorf("repro_gateway_%s = %v on a healthy fleet, want 0", name, v)
		}
	}
	// The front's engine wraps remote models, whose answers include the
	// replicas' gate verdicts: it keeps no memo.
	for _, name := range []string{"repro_memo_entries", "repro_memo_hits_total"} {
		if v := metricValue(t, text, name+`{model="default"}`); v != 0 {
			t.Errorf("%s = %v on the front, want 0", name, v)
		}
	}
	forwarded := 0.0
	for _, r := range f {
		forwarded += metricValue(t, text, fmt.Sprintf("repro_gateway_forwarded_total{replica=%q}", r.srv.URL))
		if v := metricValue(t, text, fmt.Sprintf("repro_gateway_ejections_total{replica=%q}", r.srv.URL)); v != 0 {
			t.Errorf("ejections_total{%s} = %v, want 0", r.srv.URL, v)
		}
	}
	if want := float64(f[0].batches.Load() + f[1].batches.Load()); forwarded != want || forwarded < 2 {
		t.Errorf("forwarded_total sums to %v, replicas answered %v batches", forwarded, want)
	}
}

func TestNewRejectsEmptyFleet(t *testing.T) {
	if _, err := New(context.Background(), Config{}); err == nil {
		t.Fatal("New with no replicas succeeded")
	}
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	if _, err := New(context.Background(), Config{Replicas: []string{gone.URL}}); err == nil {
		t.Fatal("New with no replica answering succeeded")
	}
}

// scriptedTransport answers each forward as its script says: "ok" is a 200,
// "error" a transport failure, "cancelled" cancels the caller's context (as a
// hedge race's winner does to the loser) and fails the way net/http then does.
type scriptedTransport struct {
	outcome string
	cancel  context.CancelFunc
}

func (s *scriptedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch s.outcome {
	case "ok":
		return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(`{}`))}, nil
	case "cancelled":
		s.cancel()
		return nil, req.Context().Err()
	}
	return nil, fmt.Errorf("connection refused")
}

// TestForwardCancelledIsNotAReplicaFailure pins that an attempt which failed
// because its caller's context was cancelled counts neither way on the
// replica's breaker, while a transport error still does.
func TestForwardCancelledIsNotAReplicaFailure(t *testing.T) {
	for _, tc := range []struct {
		name      string
		script    []string
		state     resilience.BreakerState
		ejections int64
	}{
		{"cancelled attempts leave the circuit closed", []string{"cancelled", "cancelled", "cancelled", "cancelled"}, resilience.Closed, 0},
		{"transport errors still open it", []string{"error", "error"}, resilience.Open, 1},
		{"a cancelled attempt does not reset the streak", []string{"error", "cancelled", "error"}, resilience.Open, 1},
		// The clock passes the cooldown before every attempt, so each attempt
		// after the circuit opens is a half-open probe.
		{"a cancelled probe lets the next request probe", []string{"error", "error", "cancelled", "ok"}, resilience.Closed, 1},
		{"a failed probe re-opens", []string{"error", "error", "cancelled", "error"}, resilience.Open, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := &scriptedTransport{}
			clock := &fakeClock{now: time.Unix(0, 0)}
			p := &pool{ctx: context.Background(), client: &http.Client{Transport: rt}, budget: resilience.NewBudget(budgetCapacity, budgetRatio)}
			rep := &replica{url: "http://replica.invalid", breaker: resilience.NewBreakerClock(2, breakerCooldown, clock.read)}
			for i, outcome := range tc.script {
				clock.now = clock.now.Add(breakerCooldown)
				ctx, cancel := context.WithCancel(context.Background())
				rt.outcome, rt.cancel = outcome, cancel
				_, err := p.forwardOnce(ctx, rep, "/v1/detect/batch", []byte(`{}`), 0)
				cancel()
				if (err == nil) != (outcome == "ok") {
					t.Fatalf("attempt %d (%s): err = %v", i, outcome, err)
				}
			}
			if got := rep.breaker.State(); got != tc.state {
				t.Errorf("breaker %s, want %s", got, tc.state)
			}
			if got := rep.ejections.Load(); got != tc.ejections {
				t.Errorf("ejections = %d, want %d", got, tc.ejections)
			}
		})
	}
}
