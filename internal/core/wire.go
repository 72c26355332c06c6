package core

import "repro/internal/logparse"

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
// when the brownout tier (the model's cascade gate alone, not the primary
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

// traceEvent is the SSE wire form of a trace-flagged verdict
// (`event: trace`).
type traceEvent struct {
	Model     string  `json:"model"`
	Trace     int     `json:"trace"`
	Jobs      int     `json:"jobs"`
	Anomalous int     `json:"anomalous"`
	Fraction  float64 `json:"fraction"`
	Flagged   bool    `json:"flagged"`
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

// readyResponse is the /readyz body: per-model queue saturation and the
// overall verdict. Status 200 means every model is ready; 503 means at least
// one is saturated or browned out — the signal a load balancer can use to take
// this replica out of rotation while it drains.
type readyResponse struct {
	Ready  bool             `json:"ready"`
	Models []modelReadiness `json:"models"`
}

// toResponse is a Result's wire form.
func toResponse(res Result) DetectResponse {
	category := logparse.LabelNormal
	if res.abnormal() {
		category = logparse.LabelAbnormal
	}
	return DetectResponse{Label: res.Label, Category: category, Score: res.Score}
}
