package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/logparse"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// ReplayConfig tunes how a stream is driven against a server.
type ReplayConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080" or an
	// httptest.Server URL for an in-process anomalyd.
	BaseURL string
	// Model is the ?model= routing parameter ("" = default model).
	Model string
	// Speed compresses the schedule: 10 replays a 10-second schedule in one
	// second. Default 1.
	Speed float64
	// Timeout bounds each /v1/detect/batch request (default 30s). The
	// monitor replay streams for the whole schedule and ignores it.
	Timeout time.Duration
	// MaxBatch caps lines per request when a burst shares one arrival
	// instant (default 256).
	MaxBatch int
	// Policy is the trace-verdict policy quality is scored under (zero
	// value = DefaultTracePolicy).
	Policy core.TracePolicy
	// Client overrides the HTTP client (Timeout is applied per request via
	// context, so a shared client is fine).
	Client *http.Client
	// Retry, when set, sends batch requests through the resilience client —
	// backoff, retry budget, breaker, Retry-After honor — instead of a bare
	// Client.Do. Its HTTP field defaults to Client. Retried requests count
	// once in the latency/error tallies (the retries are inside the request).
	Retry *resilience.Client
	// FaultWindow, when its End is nonzero, partitions client latencies into
	// pre/during/post segments by each request's scheduled offset in
	// compressed (wall-clock) time. Set it to the chaos campaign's window so
	// Result.Phases shows degradation and recovery separately.
	FaultWindow faults.Window
}

func (c *ReplayConfig) fill() {
	if c.Speed <= 0 {
		c.Speed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Policy == (core.TracePolicy{}) {
		c.Policy = core.DefaultTracePolicy()
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Retry != nil && c.Retry.HTTP == nil {
		c.Retry.HTTP = c.Client
	}
}

// Quality bundles the detection-quality metrics of one replay, scored
// against the stream's ground truth: ranking quality over raw scores
// (ROC-AUC, average precision), per-line F1 over hard predictions, and
// trace-verdict F1 — predicted trace flags (policy over predicted labels)
// against ground-truth trace flags (policy over true labels).
type Quality struct {
	AUC            float64 `json:"roc_auc"`
	AP             float64 `json:"avg_precision"`
	LineF1         float64 `json:"line_f1"`
	TraceF1        float64 `json:"trace_f1"`
	TracePrecision float64 `json:"trace_precision"`
	TraceRecall    float64 `json:"trace_recall"`
}

// Failures is the failure taxonomy of one replay: every failed request is
// attributed to exactly one bucket, so Timeout+Shed+Server+Transport equals
// Result.Errors. Under chaos the split is the diagnosis — a shed-heavy run
// means admission control worked; a transport-heavy one means connections
// died before the server could answer.
type Failures struct {
	// Timeout counts requests that ran out their deadline (client context).
	Timeout int `json:"timeout"`
	// Shed counts 429 responses — load the server refused at admission.
	Shed int `json:"shed"`
	// Server counts other non-200 HTTP statuses (5xx and stray 4xx).
	Server int `json:"server"`
	// Transport counts connection-level failures: resets, refused dials.
	Transport int `json:"transport"`
}

// Total is the summed failure count across all buckets.
func (f Failures) Total() int { return f.Timeout + f.Shed + f.Server + f.Transport }

// PhaseLatencies are client p99 latencies partitioned by the fault window:
// before it opens, while it is active, and after it closes.
//
// PostP99Ms alone can lie about recovery: the replay is open-loop, so a
// backlog built during the fault window keeps inflating post-window
// latencies until it drains, and when the drain outlasts the schedule the
// post p99 sits at backlog height with zero post-window faults (the PR 7
// chaos suite's near-dup row: post 2087ms ≈ during 2085ms). RecoveryMs is the
// drain-aware complement, derived from completion instants (scheduled
// offset + measured latency): the last over-bound completion marks the
// moment the server was back to answering under the pre-fault bound
// (1.2×pre p99 + 50ms cushion), and RecoveryMs is that instant minus the
// window close. 0 means recovery by the time the window shut; −1 means the
// run's tail never got back under the bound — an honest "did not recover
// within this run" instead of a flattering percentile.
type PhaseLatencies struct {
	PreP99Ms    float64 `json:"pre_p99_ms"`
	DuringP99Ms float64 `json:"during_p99_ms"`
	PostP99Ms   float64 `json:"post_p99_ms"`
	RecoveryMs  float64 `json:"recovery_ms"`
}

// Result is one scenario replay's measurements.
type Result struct {
	Scenario    string
	Events      int
	Requests    int
	Errors      int // failed requests (their events are excluded from quality)
	WallSeconds float64
	LinesPerSec float64
	// Client-side round-trip latency percentiles per request.
	ClientP50Ms float64
	ClientP99Ms float64
	// Failures splits Errors by cause.
	Failures Failures
	// DegradedReqs counts requests answered by the brownout tier
	// (degraded:true in the batch response).
	DegradedReqs int
	// Phases is set when ReplayConfig.FaultWindow was given: p99 before,
	// during, and after the fault window.
	Phases *PhaseLatencies
	// Server is the model's serving-stats snapshot after the replay (stats
	// are reset before it starts): queue saturation and stage latencies.
	Server  core.EngineStats
	Quality Quality
	// Preds holds the server's hard per-event verdicts in stream order, -1
	// where the event's request failed. Paired replays (cascade on vs off)
	// compare these for verdict agreement; report rows never serialize them.
	Preds []int
}

// sample is one scored event for quality evaluation.
type sample struct {
	label, pred, trace int
	score              float64
}

// Replay drives the stream's schedule against POST /v1/detect/batch,
// open-loop: each request fires at its scheduled instant whether or not
// earlier requests have returned, so server-side queueing shows up in the
// measured latencies rather than being hidden by client pacing. Events
// sharing an arrival instant (bursts) are sent as one batch request.
//
// Server stats are reset at start (POST /v1/stats/reset) and snapshotted at
// the end (GET /v1/models), so Result.Server reflects only this replay.
func Replay(ctx context.Context, s *Stream, cfg ReplayConfig) (*Result, error) {
	cfg.fill()
	if len(s.Events) == 0 {
		return nil, fmt.Errorf("scenario: replaying empty stream %q", s.Name)
	}
	resetServerStats(ctx, cfg)

	type request struct {
		at    time.Duration
		first int // index of first event
		n     int
	}
	var reqs []request
	for i := 0; i < len(s.Events); {
		j := i + 1
		for j < len(s.Events) && s.Events[j].At == s.Events[i].At && j-i < cfg.MaxBatch {
			j++
		}
		reqs = append(reqs, request{at: s.Events[i].At, first: i, n: j - i})
		i = j
	}

	scores := make([]float64, len(s.Events))
	preds := make([]int, len(s.Events))
	okEv := make([]bool, len(s.Events))
	latencies := make([]float64, len(reqs))
	reqOK := make([]bool, len(reqs))
	reqFail := make([]failKind, len(reqs))
	reqDegraded := make([]bool, len(reqs))

	var wg sync.WaitGroup
	p := newPacer(cfg.Speed)
	defer p.stop()
	for ri, rq := range reqs {
		if err := p.wait(ctx, rq.at); err != nil {
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(ri int, rq request) {
			defer wg.Done()
			sentences := make([]string, rq.n)
			for k := 0; k < rq.n; k++ {
				sentences[k] = logparse.Sentence(s.Events[rq.first+k].Job)
			}
			t0 := p.elapsed()
			br, err := postBatch(ctx, cfg, sentences)
			latencies[ri] = float64(p.elapsed()-t0) / float64(time.Millisecond)
			if err != nil || len(br.Results) != rq.n {
				reqFail[ri] = classifyFailure(err)
				return
			}
			reqOK[ri] = true
			reqDegraded[ri] = br.Degraded
			for k, res := range br.Results {
				scores[rq.first+k] = res.Score
				preds[rq.first+k] = res.Label
				okEv[rq.first+k] = true
			}
		}(ri, rq)
	}
	wg.Wait()
	wall := p.elapsed()

	res := &Result{
		Scenario:    s.Name,
		Events:      len(s.Events),
		Requests:    len(reqs),
		WallSeconds: wall.Seconds(),
		ClientP50Ms: metrics.Percentile(latencies, 0.50),
		ClientP99Ms: metrics.Percentile(latencies, 0.99),
	}
	if wall > 0 {
		res.LinesPerSec = float64(len(s.Events)) / wall.Seconds()
	}
	var samples []sample
	res.Preds = make([]int, len(s.Events))
	for i, ev := range s.Events {
		if okEv[i] {
			res.Preds[i] = preds[i]
			samples = append(samples, sample{label: ev.Job.Label, pred: preds[i], trace: ev.Job.TraceID, score: scores[i]})
		} else {
			res.Preds[i] = -1
		}
	}
	for ri, ok := range reqOK {
		if !ok {
			res.Errors++
			switch reqFail[ri] {
			case failTimeout:
				res.Failures.Timeout++
			case failShed:
				res.Failures.Shed++
			case failServer:
				res.Failures.Server++
			default:
				res.Failures.Transport++
			}
		} else if reqDegraded[ri] {
			res.DegradedReqs++
		}
	}
	if w := cfg.FaultWindow; w.End > 0 {
		var pre, during, post []float64
		offsets := make([]float64, len(reqs))
		for ri, rq := range reqs {
			sched := p.offset(rq.at)
			offsets[ri] = float64(sched) / float64(time.Millisecond)
			switch {
			case sched < w.Start:
				pre = append(pre, latencies[ri])
			case sched < w.End:
				during = append(during, latencies[ri])
			default:
				post = append(post, latencies[ri])
			}
		}
		res.Phases = &PhaseLatencies{
			PreP99Ms:    metrics.Percentile(pre, 0.99),
			DuringP99Ms: metrics.Percentile(during, 0.99),
			PostP99Ms:   metrics.Percentile(post, 0.99),
		}
		bound := 1.2*res.Phases.PreP99Ms + 50
		res.Phases.RecoveryMs = drainRecovery(offsets, latencies, float64(w.End)/float64(time.Millisecond), bound)
	}
	res.Quality = qualityOf(samples, cfg.Policy)
	if st, err := fetchServerStats(ctx, cfg); err == nil {
		res.Server = st
	}
	return res, nil
}

// pacer is the open-loop clock Replay and ReplayMonitor share: it releases
// each arrival at its scheduled offset from the pacer's start, compressed by
// speed, whether or not earlier arrivals have been answered, and measures
// the wall time the replay and each request take.
type pacer struct {
	start time.Time
	speed float64
	timer *time.Timer
}

func newPacer(speed float64) *pacer {
	//lint:ignore determinism open-loop replay paces arrivals on the wall clock by design; generation stays seeded
	p := &pacer{start: time.Now(), speed: speed, timer: time.NewTimer(0)}
	if !p.timer.Stop() {
		<-p.timer.C
	}
	return p
}

// offset is when the arrival scheduled at at is due, in compressed
// (wall-clock) time since the pacer started.
func (p *pacer) offset(at time.Duration) time.Duration {
	return time.Duration(float64(at) / p.speed)
}

// wait blocks until the arrival scheduled at at is due, or ctx ends. Only
// one goroutine may wait on a pacer.
func (p *pacer) wait(ctx context.Context, at time.Duration) error {
	if d := p.offset(at) - p.elapsed(); d > 0 {
		p.timer.Reset(d)
		select {
		case <-p.timer.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// elapsed is the wall time since the pacer started. Safe for concurrent use.
func (p *pacer) elapsed() time.Duration {
	//lint:ignore determinism wall-clock measurement of the replay and its requests; a measurement, not scenario bytes
	return time.Since(p.start)
}

func (p *pacer) stop() { p.timer.Stop() }

// drainRecovery computes PhaseLatencies.RecoveryMs from per-request
// scheduled offsets and latencies (both in milliseconds). A request
// completes at offset+latency; the server has recovered once every
// completion after some instant is under bound. That instant is the latest
// over-bound completion — provided at least one under-bound request
// completed after it, which is the evidence recovery was actually observed
// rather than the run simply ending mid-backlog.
func drainRecovery(offsets, latencies []float64, windowEndMs, bound float64) float64 {
	last := -1.0 // completion instant of the latest over-bound request
	for i := range offsets {
		if end := offsets[i] + latencies[i]; latencies[i] > bound && end > last {
			last = end
		}
	}
	observed := false
	for i := range offsets {
		if end := offsets[i] + latencies[i]; end > last && latencies[i] <= bound {
			observed = true
			break
		}
	}
	if !observed {
		return -1
	}
	if last <= windowEndMs {
		return 0
	}
	return last - windowEndMs
}

// MonitorResult is one scenario replay through the streaming monitor
// endpoint: ingest throughput plus the server's run report.
type MonitorResult struct {
	Scenario    string
	Events      int
	WallSeconds float64
	LinesPerSec float64
	Report      core.MonitorReport
}

// ReplayMonitor streams the stream's raw log lines to POST /v1/monitor on
// schedule through a chunked request body — the tail-a-log-file serving path
// — and returns the monitor report. Open-loop like Replay: lines are written
// at their scheduled instants.
func ReplayMonitor(ctx context.Context, s *Stream, cfg ReplayConfig) (*MonitorResult, error) {
	cfg.fill()
	if len(s.Events) == 0 {
		return nil, fmt.Errorf("scenario: replaying empty stream %q", s.Name)
	}
	pr, pw := io.Pipe()
	p := newPacer(cfg.Speed)
	go func() {
		defer p.stop()
		for _, ev := range s.Events {
			if err := p.wait(ctx, ev.At); err != nil {
				pw.CloseWithError(err)
				return
			}
			if _, err := io.WriteString(pw, ev.Line+"\n"); err != nil {
				return // server went away; the POST below reports it
			}
		}
		pw.Close()
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/v1/monitor"+modelQuery(cfg.Model), pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("scenario: monitor replay status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var mr core.MonitorResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, err
	}
	wall := p.elapsed()
	out := &MonitorResult{
		Scenario:    s.Name,
		Events:      len(s.Events),
		WallSeconds: wall.Seconds(),
		Report:      mr.MonitorReport,
	}
	if wall > 0 {
		out.LinesPerSec = float64(len(s.Events)) / wall.Seconds()
	}
	return out, nil
}

// EvaluateScores computes Quality for per-event anomaly scores produced
// outside the server — how the seed baselines enter the loadlab report.
// preds are hard 0/1 predictions (typically scores thresholded at a rate
// calibrated on training data).
func EvaluateScores(s *Stream, scores []float64, preds []int, policy core.TracePolicy) Quality {
	if len(scores) != len(s.Events) || len(preds) != len(s.Events) {
		panic("scenario: scores/preds length mismatch with stream")
	}
	if policy == (core.TracePolicy{}) {
		policy = core.DefaultTracePolicy()
	}
	samples := make([]sample, len(s.Events))
	for i, ev := range s.Events {
		samples[i] = sample{label: ev.Job.Label, pred: preds[i], trace: ev.Job.TraceID, score: scores[i]}
	}
	return qualityOf(samples, policy)
}

func qualityOf(samples []sample, policy core.TracePolicy) Quality {
	if len(samples) == 0 {
		return Quality{}
	}
	labels := make([]int, len(samples))
	preds := make([]int, len(samples))
	scores := make([]float64, len(samples))
	jobs := make(map[int]int)
	trueAnom := make(map[int]int)
	predAnom := make(map[int]int)
	for i, sm := range samples {
		labels[i], preds[i], scores[i] = sm.label, sm.pred, sm.score
		jobs[sm.trace]++
		trueAnom[sm.trace] += sm.label
		predAnom[sm.trace] += sm.pred
	}
	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	traceTruth := make([]int, len(ids))
	tracePred := make([]int, len(ids))
	for i, id := range ids {
		if policy.Flagged(jobs[id], trueAnom[id]) {
			traceTruth[i] = 1
		}
		if policy.Flagged(jobs[id], predAnom[id]) {
			tracePred[i] = 1
		}
	}
	lineConf := metrics.NewConfusion(labels, preds)
	traceConf := metrics.NewConfusion(traceTruth, tracePred)
	return Quality{
		AUC:            metrics.ROCAUC(labels, scores),
		AP:             metrics.AveragePrecision(labels, scores),
		LineF1:         lineConf.F1(),
		TraceF1:        traceConf.F1(),
		TracePrecision: traceConf.Precision(),
		TraceRecall:    traceConf.Recall(),
	}
}

func modelQuery(model string) string {
	if model == "" {
		return ""
	}
	return "?model=" + model
}

// failKind buckets one request failure for the Failures taxonomy.
type failKind int

const (
	failTransport failKind = iota // connection-level: reset, refused, EOF
	failTimeout                   // client deadline expired
	failShed                      // HTTP 429
	failServer                    // other non-200 HTTP status
)

// statusError is a non-200 batch response, kept typed so the replay can
// attribute it to the right Failures bucket.
type statusError struct{ code int }

func (e *statusError) Error() string { return fmt.Sprintf("scenario: batch status %d", e.code) }

// classifyFailure maps a postBatch error to its taxonomy bucket. A decode
// error or short result set (err == nil path) counts as a server failure:
// the server answered, but wrongly.
func classifyFailure(err error) failKind {
	if err == nil {
		return failServer
	}
	var se *statusError
	if errors.As(err, &se) {
		if se.code == http.StatusTooManyRequests {
			return failShed
		}
		return failServer
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return failTimeout
	}
	return failTransport
}

// postBatch sends one /v1/detect/batch request and decodes the response.
// With cfg.Retry set the request goes through the resilience client, so
// shed and transient failures are retried inside this call.
func postBatch(ctx context.Context, cfg ReplayConfig, sentences []string) (core.BatchResponse, error) {
	var br core.BatchResponse
	body, err := json.Marshal(core.BatchRequest{Sentences: sentences})
	if err != nil {
		return br, err
	}
	rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, cfg.BaseURL+"/v1/detect/batch"+modelQuery(cfg.Model), bytes.NewReader(body))
	if err != nil {
		return br, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp *http.Response
	if cfg.Retry != nil {
		resp, err = cfg.Retry.Do(req)
	} else {
		resp, err = cfg.Client.Do(req)
	}
	if err != nil {
		return br, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return br, &statusError{code: resp.StatusCode}
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return br, err
	}
	return br, nil
}

// resetServerStats zeroes the target model's serving counters so the final
// snapshot covers only this replay. Best-effort: a server without the
// endpoint just yields cumulative stats.
func resetServerStats(ctx context.Context, cfg ReplayConfig) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.BaseURL+"/v1/stats/reset"+modelQuery(cfg.Model), nil)
	if err != nil {
		return
	}
	if resp, err := cfg.Client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// fetchServerStats reads the replayed model's stats from GET /v1/models.
func fetchServerStats(ctx context.Context, cfg ReplayConfig) (core.EngineStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.BaseURL+"/v1/models", nil)
	if err != nil {
		return core.EngineStats{}, err
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return core.EngineStats{}, err
	}
	defer resp.Body.Close()
	var mr core.ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return core.EngineStats{}, err
	}
	for _, m := range mr.Models {
		if m.Name == cfg.Model || (cfg.Model == "" && m.Default) {
			return m.Stats, nil
		}
	}
	return core.EngineStats{}, fmt.Errorf("scenario: model %q not in /v1/models", cfg.Model)
}
