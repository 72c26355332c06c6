package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/logparse"
	"repro/internal/resilience"
)

// maxJSONBody caps JSON request bodies that must be fully materialized
// before processing (/v1/detect/batch and /v1/monitor's JSON form). The
// plain-text /v1/monitor body streams and needs no cap.
const maxJSONBody = 32 << 20

// Server exposes a Registry of detectors over HTTP; NewServerRegistry holds
// the route table and docs/API.md the wire contract. Detection and monitor
// endpoints take an optional ?model=<name> query parameter; without it
// requests route to the registry's default model. This is the deployment
// story the paper motivates, grown to production shape: system administrators
// point workflow logs at one running service hosting a detector per workflow
// or per approach.
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

	streams     chan struct{} // closed by closeStreams: terminates SSE handlers
	streamsOnce sync.Once
}

// NewServer wraps a single model in an HTTP handler with the default
// batching configuration, registered under DefaultModel.
func NewServer(m Model) *Server { return NewServerWith(m, BatchConfig{}) }

// NewServerWith wraps a single model with an explicit batching
// configuration and starts its inference workers. Call Close to stop them.
func NewServerWith(m Model, cfg BatchConfig) *Server {
	reg := NewRegistry()
	if err := reg.Add(DefaultModel, m, cfg); err != nil {
		panic(err) // fresh registry, fixed name: cannot fail
	}
	return NewServerRegistry(reg)
}

// NewServerRegistry wraps an existing registry — typically holding several
// models loaded from artifacts — in the HTTP layer. The server takes
// ownership: Server.Close closes the registry. Routes carry their method:
// the mux answers a wrong one 405 with an Allow header, and a GET route
// answers HEAD too.
func NewServerRegistry(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), bus: newAlertBus(), streams: make(chan struct{})}
	s.mux.HandleFunc("POST /v1/detect", s.handleDetect)
	s.mux.HandleFunc("POST /v1/detect/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/monitor", s.handleMonitor)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/stats/reset", s.handleStatsReset)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// SetInstance names this replica for multi-replica deployments: responses
// carry it as X-Replica and /metrics exports it as repro_instance_info.
// Call before serving traffic ("" leaves both off).
func (s *Server) SetInstance(name string) { s.instance = name }

// Registry returns the server's model registry, through which models are
// added, configured and inspected while serving.
func (s *Server) Registry() *Registry { return s.reg }

// closeStreams ends open /v1/alerts streams without stopping the inference
// workers. Idempotent.
func (s *Server) closeStreams() { s.streamsOnce.Do(func() { close(s.streams) }) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.instance != "" {
		w.Header().Set("X-Replica", s.instance)
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	infos := s.reg.Info()
	resp := healthResponse{Status: "ok", Models: len(infos)}
	for _, info := range infos {
		if info.Default {
			resp.Approach = info.Approach
			resp.MaxBatch = info.MaxBatch
			resp.Workers = info.Workers
			resp.MaxRequest = info.MaxRequest
			resp.ActiveTraces = info.ActiveTraces
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReady is GET /readyz: readiness, as distinct from /healthz liveness.
// A live-but-saturated replica answers 503 here while still answering 200 on
// /healthz, so orchestrators stop routing to it without restarting it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	models, ready := s.reg.readiness()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, readyResponse{Ready: ready, Models: models})
}

// handleModels is GET /v1/models: the registered models, their approaches,
// and per-model serving stats — what an operator checks before routing
// traffic with ?model=.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ModelsResponse{Models: s.reg.Info(), SSE: s.bus.stats()})
}

// handleStatsReset is POST /v1/stats/reset[?model=]: zero the model's
// serving counters and latency histograms. The load lab calls this between
// scenarios so each replay's /v1/models snapshot reflects only its own
// traffic; the trace tracker is left alone.
func (s *Server) handleStatsReset(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.ResetStats(modelParam(r)); err != nil {
		http.Error(w, err.Error(), errorStatus(w.Header(), err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// modelParam extracts the ?model= routing parameter ("" = default model).
func modelParam(r *http.Request) string { return r.URL.Query().Get("model") }

// requestDeadline resolves a detect request's deadline: the ?deadline_ms
// query parameter when present, the model's DefaultDeadline otherwise. Zero
// means no deadline. A value whose Duration would overflow is as bad as a
// non-positive one.
func requestDeadline(r *http.Request, cfg BatchConfig) (time.Duration, error) {
	v := r.URL.Query().Get("deadline_ms")
	if v == "" {
		return cfg.DefaultDeadline, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("bad deadline_ms %q: want a positive integer of milliseconds", v)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// errorStatus is the HTTP status of a failed detect, monitor or stats call:
// an unknown model name (404) and the input (400) are the client's mistakes;
// a shed request is 429, with the server's drain estimate set in h's retry
// headers; an expired deadline is 504; everything else is 503.
func errorStatus(h http.Header, err error) int {
	var oe *OverloadedError
	switch {
	case errors.Is(err, errUnknownModel):
		return http.StatusNotFound
	case errors.As(err, &inputError{}):
		return http.StatusBadRequest
	case errors.As(err, &oe):
		resilience.SetRetryAfter(h, oe.RetryAfter)
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusServiceUnavailable
}

// detect is what both detect handlers do once they hold the request's
// sentences: look up the model's configuration, enforce its per-request cap,
// resolve the deadline, and run the sentences through the model's queue. On
// failure it has written the error reply and ok is false.
func (s *Server) detect(w http.ResponseWriter, r *http.Request, sentences []string) (results []Result, degraded, ok bool) {
	e, err := s.reg.lookup(modelParam(r))
	if err != nil {
		http.Error(w, err.Error(), errorStatus(w.Header(), err))
		return nil, false, false
	}
	if len(sentences) > e.cfg.MaxRequest {
		http.Error(w, fmt.Sprintf("batch of %d sentences exceeds the per-request cap of %d",
			len(sentences), e.cfg.MaxRequest), http.StatusRequestEntityTooLarge)
		return nil, false, false
	}
	dl, err := requestDeadline(r, e.cfg)
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
	j, err := e.submit(ctx, sentences)
	if err == nil {
		results, degraded, err = j.wait()
	}
	if err != nil {
		http.Error(w, err.Error(), errorStatus(w.Header(), err))
		return nil, false, false
	}
	return results, degraded, true
}

func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req DetectRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if (req.Sentence == "") == (req.LogLine == "") {
		http.Error(w, "set exactly one of sentence or log_line", http.StatusBadRequest)
		return
	}
	sentence := req.Sentence
	if req.LogLine != "" {
		job, err := logparse.ParseLogLine(req.LogLine)
		if err != nil {
			http.Error(w, "bad log line: "+err.Error(), http.StatusBadRequest)
			return
		}
		sentence = logparse.Sentence(job)
	}
	results, degraded, ok := s.detect(w, r, []string{sentence})
	if !ok {
		return
	}
	resp := toResponse(results[0])
	resp.Degraded = degraded
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
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
	writeJSON(w, http.StatusOK, resp)
}

// handleMonitor is POST /v1/monitor: bulk log ingest through the streaming
// monitor of the model named by ?model= (default model otherwise). The body
// is either plain text (one key=value log line per line) or JSON
// {"lines": [...]} with Content-Type application/json. `?strict=1` aborts on
// the first malformed line; the default skips and counts. Alerts and
// trace-flagged events stream to /v1/alerts subscribers; the response is the
// run's MonitorReport. A run that failed answers its partial report with an
// error field and the error's errorStatus: 400 when the input ended it (a
// strict-mode malformed line, an unreadable body), 429 plus the retry headers
// when the model shed one of its chunks, and 503 when the model failed one.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
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
	resp, status := MonitorResponse{MonitorReport: report}, http.StatusOK
	if err != nil {
		resp.Error, status = err.Error(), errorStatus(w.Header(), err)
	}
	writeJSON(w, status, resp)
}

// writeJSON answers v as JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}
