package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/logparse"
)

// DetectRequest is the body of POST /v1/detect. Exactly one of Sentence or
// LogLine must be set.
type DetectRequest struct {
	// Sentence is a parsed feature sentence (Fig 2 format).
	Sentence string `json:"sentence,omitempty"`
	// LogLine is a raw key=value log entry to parse and classify.
	LogLine string `json:"log_line,omitempty"`
}

// DetectResponse is the detection outcome. Degraded is set (only on the
// single-sentence endpoint) when the brownout tier answered instead of the
// primary model.
type DetectResponse struct {
	Label    int     `json:"label"`
	Category string  `json:"category"`
	Score    float64 `json:"score"`
	Degraded bool    `json:"degraded,omitempty"`
}

// BatchRequest is the body of POST /v1/detect/batch.
type BatchRequest struct {
	Sentences []string `json:"sentences"`
}

// BatchResponse holds per-sentence outcomes in input order. Degraded is true
// when the brownout tier (the calibrated baseline scorer, not the primary
// model) produced the results — a cheap answer under saturation instead of a
// timeout.
type BatchResponse struct {
	Results  []DetectResponse `json:"results"`
	Degraded bool             `json:"degraded,omitempty"`
}

// MonitorRequest is the JSON body of POST /v1/monitor (the endpoint also
// accepts a plain-text body of newline-separated log lines).
type MonitorRequest struct {
	Lines []string `json:"lines"`
}

// MonitorResponse is the body of POST /v1/monitor responses: the run report,
// plus the abort error in strict mode.
type MonitorResponse struct {
	MonitorReport
	Error string `json:"error,omitempty"`
}

// ModelsResponse is the body of GET /v1/models.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
	// SSE reports the alert bus: subscriber count and events dropped to slow
	// subscribers (publish never blocks the monitor; a full subscriber
	// buffer loses the event, and this is where those losses become
	// visible).
	SSE SSEStats `json:"sse"`
}

// SSEStats is the alert bus's delivery telemetry in /v1/models.
type SSEStats struct {
	Subscribers int   `json:"subscribers"`
	Dropped     int64 `json:"dropped_total"`
	// PerSubscriber breaks drops down by connection, identified by a
	// monotonic id assigned at subscribe time.
	PerSubscriber []SSESubscriberStats `json:"per_subscriber,omitempty"`
}

// SSESubscriberStats is one /v1/alerts connection's delivery counters.
type SSESubscriberStats struct {
	ID      int   `json:"id"`
	Pending int   `json:"pending"`
	Dropped int64 `json:"dropped"`
}

// AlertEvent is the SSE wire form of an Alert (`event: alert`). Model names
// which registry model produced the event, so subscribers to the shared
// /v1/alerts stream can attribute interleaved events in multi-model serving.
type AlertEvent struct {
	Model  string         `json:"model"`
	Line   string         `json:"line"`
	Trace  int            `json:"trace"`
	Node   int            `json:"node"`
	Result DetectResponse `json:"result"`
}

// TraceEvent is the SSE wire form of a trace-flagged verdict
// (`event: trace`).
type TraceEvent struct {
	Model     string  `json:"model"`
	Trace     int     `json:"trace"`
	Jobs      int     `json:"jobs"`
	Anomalous int     `json:"anomalous"`
	Fraction  float64 `json:"fraction"`
	Flagged   bool    `json:"flagged"`
}

// BatchConfig tunes one served model's request-coalescing layer.
type BatchConfig struct {
	// MaxBatch caps the number of sentences per model invocation
	// (default 32).
	MaxBatch int
	// FlushDelay is ignored: a free worker runs whatever is queued at once,
	// so there is no partial batch left to wait on.
	//
	// Deprecated: ignored. Kept only so existing callers compile.
	FlushDelay time.Duration
	// Workers is the number of concurrent inference workers (default
	// GOMAXPROCS). The batched detection path is read-only on the model,
	// so workers run in parallel on one detector.
	Workers int
	// QueueDepth bounds queued jobs before enqueueing blocks (default 256).
	QueueDepth int
	// MaxRequest caps the sentence count of a single HTTP batch request
	// (default 2048). QueueDepth bounds jobs, not sentences, so without
	// this cap one huge batch would bypass backpressure entirely.
	MaxRequest int
	// Policy is the trace-flagging policy for /v1/monitor ingest (zero
	// value means DefaultTracePolicy).
	Policy TracePolicy
	// MaxTraces bounds the model's online trace window (default 4096).
	MaxTraces int

	// ShedQueueDepth is the admission-control budget: a request arriving
	// while the queue already holds this many jobs is shed with 429
	// Retry-After instead of deepening a backlog the workers cannot drain.
	// The count is exact — every job no worker has started is in the queue —
	// so a saturated model holds at most Workers running batches plus
	// ShedQueueDepth waiting jobs. Zero disables shedding (requests block on
	// the queue as before); values above QueueDepth are clamped to it.
	ShedQueueDepth int
	// MaxQueueWait is the per-job queue-time budget: a job that sat queued
	// longer than this is shed at dequeue (same 429 contract) instead of
	// computed — its answer would arrive too stale to matter. Zero disables.
	MaxQueueWait time.Duration
	// DefaultDeadline is applied to detect requests that carry no
	// ?deadline_ms; a request whose deadline passes while queued is dropped
	// at dequeue (504) without touching the model. Zero means no default.
	DefaultDeadline time.Duration
	// BrownoutDepth engages the graceful-degradation tier: when the queue
	// has stayed at or above this depth for BrownoutHold and the slot holds
	// a fallback detector (Registry.SetFallback), detect traffic is answered
	// by the cheap tier (degraded:true) until the queue drains to
	// BrownoutRecover. Zero disables brownout.
	BrownoutDepth int
	// BrownoutRecover is the low watermark that disengages the brownout
	// tier (default BrownoutDepth/2).
	BrownoutRecover int
	// BrownoutHold is how long the queue must stay saturated before the
	// tier engages — a single burst should shed, not degrade (default
	// 250ms when BrownoutDepth is set).
	BrownoutHold time.Duration
}

// DefaultBatchConfig is the serving recipe used by NewServer: batches of up
// to 32 sentences across GOMAXPROCS workers.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{MaxBatch: 32}
}

func (c *BatchConfig) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxRequest <= 0 {
		c.MaxRequest = 2048
	}
	if c.ShedQueueDepth > c.QueueDepth {
		c.ShedQueueDepth = c.QueueDepth
	}
	if c.BrownoutDepth > 0 {
		if c.BrownoutRecover <= 0 {
			c.BrownoutRecover = c.BrownoutDepth / 2
		}
		if c.BrownoutHold <= 0 {
			c.BrownoutHold = 250 * time.Millisecond
		}
	}
	// Policy and MaxTraces zero values are resolved by NewTraceTracker.
}

// maxJSONBody caps JSON request bodies that must be fully materialized
// before processing (/v1/detect/batch and /v1/monitor's JSON form). The
// plain-text /v1/monitor body streams and needs no cap.
const maxJSONBody = 32 << 20

// Server exposes a Registry of detectors over HTTP:
//
//	POST /v1/detect        {"sentence": "..."} or {"log_line": "..."}
//	POST /v1/detect/batch  {"sentences": ["...", ...]}
//	POST /v1/monitor       raw log lines (or {"lines": [...]}) → MonitorReport
//	GET  /v1/models        registered models and their serving stats
//	GET  /v1/alerts        SSE stream of alerts + trace-flagged verdicts
//	GET  /healthz
//
// Detection and monitor endpoints take an optional ?model=<name> query
// parameter; without it requests route to the registry's default model. This
// is the deployment story the paper motivates, grown to production shape:
// system administrators point workflow logs at one running service hosting a
// detector per workflow or per approach, and operators hot-swap retrained
// artifacts (Registry.Swap) without restarting or dropping requests.
//
// Requests are micro-batched per model: handlers enqueue their sentences on
// the model's queue, and each of the model's inference workers, when free,
// takes everything queued up to MaxBatch sentences and runs it as one batch.
// An idle pool therefore answers a lone request at once, and under concurrent
// load many single-sentence forward passes become a few batched ones while
// preserving per-request result order.
type Server struct {
	reg *Registry
	mux *http.ServeMux

	bus *alertBus

	// instance is this replica's identity in multi-replica deployments
	// (anomalyd -instance): stamped on every response as X-Replica and
	// exported as the repro_instance_info label on /metrics, so a gateway
	// drill can attribute responses to the replica that answered.
	instance string

	streams     chan struct{} // closed by CloseStreams: terminates SSE handlers
	streamsOnce sync.Once
}

// NewServer wraps a single detector in an HTTP handler with the default
// batching configuration, registered under DefaultModel.
func NewServer(det Detector) *Server { return NewServerWith(det, DefaultBatchConfig()) }

// NewServerWith wraps a single detector with an explicit batching
// configuration and starts its inference workers. Call Close to stop them.
func NewServerWith(det Detector, cfg BatchConfig) *Server {
	reg := NewRegistry()
	if err := reg.Add(DefaultModel, det, cfg); err != nil {
		panic(err) // fresh registry, fixed name: cannot fail
	}
	return NewServerRegistry(reg)
}

// NewServerRegistry wraps an existing registry — typically holding several
// models loaded from artifacts — in the HTTP layer. The server takes
// ownership: Server.Close closes the registry.
func NewServerRegistry(reg *Registry) *Server {
	s := &Server{
		reg:     reg,
		mux:     http.NewServeMux(),
		bus:     newAlertBus(),
		streams: make(chan struct{}),
	}
	s.mux.HandleFunc("/v1/detect", s.handleDetect)
	s.mux.HandleFunc("/v1/detect/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/monitor", s.handleMonitor)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/stats/reset", s.handleStatsReset)
	s.mux.HandleFunc("/v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// SetInstance names this replica for multi-replica deployments: responses
// carry it as X-Replica and /metrics exports it as repro_instance_info.
// Call before serving traffic ("" leaves both off).
func (s *Server) SetInstance(name string) { s.instance = name }

// Registry returns the server's model registry, through which models are
// added, swapped, and removed while serving.
func (s *Server) Registry() *Registry { return s.reg }

// Close drains queued requests, stops every model's inference workers,
// terminates any open /v1/alerts streams, and fails subsequent Detect calls
// with ErrServerClosed. It is idempotent.
func (s *Server) Close() {
	s.CloseStreams()
	s.reg.Close()
}

// CloseStreams terminates open /v1/alerts SSE connections without stopping
// the inference workers. Graceful HTTP shutdown needs this first:
// http.Server.Shutdown waits for active connections, and an SSE stream never
// goes idle on its own. Call CloseStreams, then http.Server.Shutdown (which
// lets in-flight detect requests finish), then Close. Idempotent.
func (s *Server) CloseStreams() {
	s.streamsOnce.Do(func() { close(s.streams) })
}

// Detect classifies sentences through the default model's coalescing layer,
// blocking until their results are ready (in input order). It is the
// programmatic form of the HTTP endpoints and is safe for concurrent use.
func (s *Server) Detect(sentences []string) ([]Result, error) {
	//lint:ignore ctxflow public no-context convenience API; documented to run to completion, callers needing cancellation use DetectContext
	return s.DetectModelContext(context.Background(), "", sentences)
}

// DetectContext is Detect honoring caller cancellation; see
// DetectModelContext.
func (s *Server) DetectContext(ctx context.Context, sentences []string) ([]Result, error) {
	return s.DetectModelContext(ctx, "", sentences)
}

// DetectModelContext classifies sentences through the named model ("" routes
// to the default). It returns ctx.Err() as soon as ctx is done, whether the
// job is still queued or in flight. If the model is hot-swapped between
// routing and enqueueing, the call transparently retries against the
// replacement engine — a Swap under concurrent load drops no requests.
func (s *Server) DetectModelContext(ctx context.Context, model string, sentences []string) ([]Result, error) {
	res, _, err := s.DetectModelDegraded(ctx, model, sentences)
	return res, err
}

// DetectModelDegraded is DetectModelContext exposing whether the brownout
// fallback tier (rather than the primary model) produced the results — the
// signal the HTTP layer surfaces as `degraded:true`. Requests shed by
// admission control or the queue-wait budget fail with an *OverloadedError
// (errors.Is ErrOverloaded) carrying a Retry-After estimate.
func (s *Server) DetectModelDegraded(ctx context.Context, model string, sentences []string) ([]Result, bool, error) {
	j, err := s.submit(ctx, model, sentences)
	if err != nil {
		return nil, false, err
	}
	return j.wait()
}

// submit routes sentences to the named model's engine ("" = default) and
// returns the queued job, re-routing when a hot-swap closed that engine first.
func (s *Server) submit(ctx context.Context, model string, sentences []string) (*detectJob, error) {
	for {
		eng, err := s.reg.route(model)
		if err != nil {
			return nil, err
		}
		j, err := eng.submit(ctx, sentences)
		if errors.Is(err, ErrServerClosed) {
			// The engine was swapped out (or the registry closed) between
			// route and enqueue. Re-route: a swap installs a replacement the
			// retry lands on; a closed registry surfaces ErrServerClosed from
			// route and terminates the loop.
			continue
		}
		return j, err
	}
}

// MonitorIngest streams raw log lines from r through the default model's
// micro-batching monitor; see MonitorIngestModel.
func (s *Server) MonitorIngest(ctx context.Context, r io.Reader, strict bool, extra ...AlertSink) (MonitorReport, error) {
	return s.MonitorIngestModel(ctx, "", r, strict, extra...)
}

// MonitorIngestModel streams raw log lines from r through the named model's
// micro-batching monitor ("" routes to the default), folding trace state into
// that model's persistent tracker and publishing alert and trace-flagged
// events to /v1/alerts subscribers (plus any extra sinks). It backs POST
// /v1/monitor and anomalyd's -tail mode.
//
// Inference goes through the same per-model coalescing queue as /v1/detect:
// each chunk is submitted as one job, so concurrent ingests share the worker
// pool's backpressure and admission control — /v1/monitor cannot starve detect
// traffic of workers, and a shed chunk ends the ingest with its
// *OverloadedError. The model name is resolved once at the start, so a stream
// keeps feeding the same logical model even while it is hot-swapped mid-ingest.
func (s *Server) MonitorIngestModel(ctx context.Context, model string, r io.Reader, strict bool, extra ...AlertSink) (MonitorReport, error) {
	name, tracker, cfg, err := s.reg.monitorState(model)
	if err != nil {
		return MonitorReport{}, err
	}
	submit := func(ctx context.Context, sentences []string) (*detectJob, error) {
		return s.submit(ctx, name, sentences)
	}
	return monitor(ctx, submit, r, MonitorConfig{
		ChunkSize: cfg.MaxBatch,
		Workers:   cfg.Workers,
		Strict:    strict,
		Tracker:   tracker,
		Sinks:     append([]AlertSink{busSink{bus: s.bus, model: name}}, extra...),
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.instance != "" {
		w.Header().Set("X-Replica", s.instance)
	}
	s.mux.ServeHTTP(w, r)
}

// healthResponse is the /healthz body: the default model's serving knobs
// (kept flat for single-model deployments and monitoring probes) plus the
// registry size.
type healthResponse struct {
	Status       string   `json:"status"`
	Approach     Approach `json:"approach"`
	MaxBatch     int      `json:"max_batch"`
	Workers      int      `json:"workers"`
	MaxRequest   int      `json:"max_request"`
	ActiveTraces int      `json:"active_traces"`
	Models       int      `json:"models"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok", Models: s.reg.Len()}
	for _, info := range s.reg.Info() {
		if info.Default {
			resp.Approach = info.Approach
			resp.MaxBatch = info.MaxBatch
			resp.Workers = info.Workers
			resp.MaxRequest = info.MaxRequest
			resp.ActiveTraces = info.ActiveTraces
		}
	}
	writeJSON(w, resp)
}

// readyResponse is the /readyz body: per-model queue saturation and the
// overall verdict. Status 200 means every model is ready; 503 means at least
// one is saturated or browned out — the signal a load balancer or the future
// gateway uses to eject this replica from rotation while it drains.
type readyResponse struct {
	Ready  bool             `json:"ready"`
	Models []ModelReadiness `json:"models"`
}

// handleReady is GET /readyz: readiness, as distinct from /healthz liveness.
// A live-but-saturated replica answers 503 here while still answering 200 on
// /healthz, so orchestrators stop routing to it without restarting it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	models, ready := s.reg.Readiness()
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(readyResponse{Ready: ready, Models: models})
}

// handleModels is GET /v1/models: the registered models, their approaches,
// and per-model serving stats — what an operator checks before routing
// traffic with ?model= or hot-swapping an artifact.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, ModelsResponse{Models: s.reg.Info(), SSE: s.bus.stats()})
}

// handleStatsReset is POST /v1/stats/reset[?model=]: zero the model's
// serving counters and latency windows. The load lab calls this between
// scenarios so each replay's /v1/models snapshot reflects only its own
// traffic; the trace tracker is left alone.
func (s *Server) handleStatsReset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if err := s.reg.ResetStats(modelParam(r)); err != nil {
		writeDetectError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// modelParam extracts the ?model= routing parameter ("" = default model).
func modelParam(r *http.Request) string { return r.URL.Query().Get("model") }

// requestDeadline resolves a detect request's deadline: the ?deadline_ms
// query parameter when present, the model's DefaultDeadline otherwise. Zero
// means no deadline.
func requestDeadline(r *http.Request, cfg BatchConfig) (time.Duration, error) {
	v := r.URL.Query().Get("deadline_ms")
	if v == "" {
		return cfg.DefaultDeadline, nil
	}
	ms, err := strconv.Atoi(v)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("bad deadline_ms %q: want a positive integer of milliseconds", v)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// writeDetectError maps routing/queue errors to HTTP statuses: unknown model
// names are the client's mistake (404); shed requests are 429 with the
// server's drain estimate in the retry headers; an expired deadline is 504;
// everything else is 503.
func writeDetectError(w http.ResponseWriter, err error) {
	var oe *OverloadedError
	switch {
	case errors.Is(err, ErrUnknownModel):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.As(err, &oe):
		setRetryAfter(w.Header(), oe.RetryAfter)
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "deadline exceeded before results were ready", http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}

// setRetryAfter writes a 429's two retry headers: Retry-After (integer
// seconds, per RFC 9110) and Retry-After-Ms (exact milliseconds, for clients
// that can back off finer than a second).
func setRetryAfter(h http.Header, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	h.Set("Retry-After", strconv.FormatInt(secs, 10))
	h.Set("Retry-After-Ms", strconv.FormatInt(d.Milliseconds(), 10))
}

// detect is what both detect handlers do once they hold the request's
// sentences: look up the model's configuration, enforce its per-request cap,
// resolve the deadline, and run the sentences through the model's queue. On
// failure it has written the error reply and ok is false.
func (s *Server) detect(w http.ResponseWriter, r *http.Request, sentences []string) (results []Result, degraded, ok bool) {
	model := modelParam(r)
	cfg, err := s.reg.config(model)
	if err != nil {
		writeDetectError(w, err)
		return nil, false, false
	}
	if len(sentences) > cfg.MaxRequest {
		http.Error(w, fmt.Sprintf("batch of %d sentences exceeds the per-request cap of %d",
			len(sentences), cfg.MaxRequest), http.StatusRequestEntityTooLarge)
		return nil, false, false
	}
	dl, err := requestDeadline(r, cfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false, false
	}
	ctx := r.Context()
	if dl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dl)
		defer cancel()
	}
	results, degraded, err = s.DetectModelDegraded(ctx, model, sentences)
	if err != nil {
		writeDetectError(w, err)
		return nil, false, false
	}
	return results, degraded, true
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req DetectRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	sentence := req.Sentence
	if req.LogLine != "" {
		if sentence != "" {
			http.Error(w, "set exactly one of sentence or log_line", http.StatusBadRequest)
			return
		}
		job, err := logparse.ParseLogLine(req.LogLine)
		if err != nil {
			http.Error(w, "bad log line: "+err.Error(), http.StatusBadRequest)
			return
		}
		sentence = logparse.Sentence(job)
	}
	if sentence == "" {
		http.Error(w, "set exactly one of sentence or log_line", http.StatusBadRequest)
		return
	}
	results, degraded, ok := s.detect(w, r, []string{sentence})
	if !ok {
		return
	}
	resp := toResponse(results[0])
	resp.Degraded = degraded
	writeJSON(w, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	results, degraded, ok := s.detect(w, r, req.Sentences)
	if !ok {
		return
	}
	resp := BatchResponse{Results: make([]DetectResponse, len(results)), Degraded: degraded}
	for i, res := range results {
		resp.Results[i] = toResponse(res)
	}
	writeJSON(w, resp)
}

// handleMonitor is POST /v1/monitor: bulk log ingest through the streaming
// monitor of the model named by ?model= (default model otherwise). The body
// is either plain text (one key=value log line per line) or JSON
// {"lines": [...]} with Content-Type application/json. `?strict=1` aborts on
// the first malformed line; the default skips and counts. Alerts and
// trace-flagged events stream to /v1/alerts subscribers; the response is the
// run's MonitorReport — with an error field and 400 when the run aborted, 429
// plus the retry headers when the model shed one of its chunks.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var body io.Reader = r.Body
	if strings.Contains(r.Header.Get("Content-Type"), "application/json") {
		// The JSON form materializes the whole body, so cap it; unbounded
		// ingest should use the plain-text form, which streams.
		var req MonitorRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(&req); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		for i, line := range req.Lines {
			// One array element must stay one monitor line; an embedded
			// newline would silently split into several (and skew strict
			// mode's reported line numbers).
			if strings.ContainsRune(line, '\n') {
				http.Error(w, fmt.Sprintf("bad request: lines[%d] contains a newline", i), http.StatusBadRequest)
				return
			}
		}
		body = strings.NewReader(strings.Join(req.Lines, "\n"))
	}
	strict := r.URL.Query().Get("strict") == "1" || r.URL.Query().Get("strict") == "true"
	report, err := s.MonitorIngestModel(r.Context(), modelParam(r), body, strict)
	resp := MonitorResponse{MonitorReport: report}
	switch {
	case errors.Is(err, ErrUnknownModel), errors.Is(err, ErrServerClosed):
		writeDetectError(w, err) // 404 and 503, as for detect
		return
	case err != nil:
		// A shed chunk is the server's overload, not the client's mistake: a
		// shed detect's status and retry headers, the partial report the body.
		status := http.StatusBadRequest
		var oe *OverloadedError
		if errors.As(err, &oe) {
			setRetryAfter(w.Header(), oe.RetryAfter)
			status = http.StatusTooManyRequests
		}
		resp.Error = err.Error()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp)
		return
	}
	writeJSON(w, resp)
}

// handleAlerts is GET /v1/alerts: a Server-Sent Events stream of detection
// alerts (`event: alert`, AlertEvent data) and trace verdicts
// (`event: trace`, TraceEvent data) from monitor ingest. The stream ends
// when the client disconnects or the server shuts its streams.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.bus.subscribe()
	defer s.bus.unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprintf(w, ": streaming alerts\n\n")
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.streams:
			return
		case ev := <-sub.ch:
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
			fl.Flush()
		}
	}
}

// sseEvent is one pre-marshalled server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// sseSub is one /v1/alerts subscription: its event buffer plus delivery
// counters. dropped is written under the bus mutex and read through stats().
type sseSub struct {
	id      int
	ch      chan sseEvent
	dropped int64
}

// alertBus fans monitor events out to SSE subscribers. Publishing never
// blocks: a subscriber whose buffer is full misses the event (alerting is
// best-effort telemetry; /v1/monitor's report holds the authoritative
// counts) — but the miss is counted, per subscriber and in total, and
// surfaced in /v1/models so silent loss is at least visible loss.
type alertBus struct {
	mu      sync.Mutex
	subs    map[*sseSub]struct{}
	nextID  int
	dropped int64 // includes drops by since-departed subscribers
}

func newAlertBus() *alertBus { return &alertBus{subs: make(map[*sseSub]struct{})} }

func (b *alertBus) subscribe() *sseSub {
	b.mu.Lock()
	b.nextID++
	sub := &sseSub{id: b.nextID, ch: make(chan sseEvent, 64)}
	b.subs[sub] = struct{}{}
	b.mu.Unlock()
	return sub
}

func (b *alertBus) unsubscribe(sub *sseSub) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

func (b *alertBus) publish(name string, v interface{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return // nobody listening: skip the marshal on the ingest path
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	for sub := range b.subs {
		select {
		case sub.ch <- sseEvent{name: name, data: data}:
		default: // slow subscriber: drop rather than stall the monitor
			sub.dropped++
			b.dropped++
		}
	}
}

// stats snapshots the bus's delivery counters, per-subscriber rows sorted by
// subscription order.
func (b *alertBus) stats() SSEStats {
	b.mu.Lock()
	st := SSEStats{Subscribers: len(b.subs), Dropped: b.dropped}
	for sub := range b.subs {
		st.PerSubscriber = append(st.PerSubscriber, SSESubscriberStats{
			ID:      sub.id,
			Pending: len(sub.ch),
			Dropped: sub.dropped,
		})
	}
	b.mu.Unlock()
	sort.Slice(st.PerSubscriber, func(i, k int) bool {
		return st.PerSubscriber[i].ID < st.PerSubscriber[k].ID
	})
	return st
}

// busSink adapts the alert bus to the monitor's AlertSink interface,
// translating core events to their SSE wire forms stamped with the serving
// model's name.
type busSink struct {
	bus   *alertBus
	model string
}

func (b busSink) Alert(a Alert) {
	b.bus.publish("alert", AlertEvent{
		Model:  b.model,
		Line:   a.Line,
		Trace:  a.Job.TraceID,
		Node:   a.Job.NodeIndex,
		Result: toResponse(a.Result),
	})
}

func (b busSink) TraceFlagged(v TraceVerdict) {
	b.bus.publish("trace", TraceEvent{
		Model:     b.model,
		Trace:     v.TraceID,
		Jobs:      v.Jobs,
		Anomalous: v.Anomalous,
		Fraction:  v.Fraction(),
		Flagged:   v.Flagged,
	})
}

func toResponse(res Result) DetectResponse {
	category := logparse.LabelNormal
	if res.Abnormal() {
		category = logparse.LabelAbnormal
	}
	return DetectResponse{Label: res.Label, Category: category, Score: res.Score}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
