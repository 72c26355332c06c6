package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cascade"
)

// DefaultModel is the name under which single-model constructors
// (NewServer/NewServerWith) register their detector, and the model requests
// without a ?model= parameter route to when no explicit default is set.
const DefaultModel = "default"

// errUnknownModel is returned (wrapped with the requested name) when routing
// names a model the registry does not hold.
var errUnknownModel = errors.New("core: unknown model")

// Registry holds named detectors, each served by its own engine: a
// coalescing queue, a worker pool, and the model's trace tracker, stats and
// cascade gate, which is also its brownout tier. The HTTP layer resolves
// ?model= names here. A model's weights are fixed for the life of its
// engine; replacing them is a rolling restart of the replica (anomalyd
// -load).
//
// All methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*engine
	def    string
	closed bool
}

// NewRegistry returns an empty registry. Add at least one model before
// serving.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*engine)}
}

// Add registers m under name and starts its engine. The first model added
// becomes the default route. Adding an existing name or an empty name is an
// error.
func (r *Registry) Add(name string, m Model, cfg BatchConfig) error {
	if name == "" {
		return errors.New("core: model name must not be empty")
	}
	if m == nil {
		return fmt.Errorf("core: model %q: nil model", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errServerClosed
	}
	if _, dup := r.models[name]; dup {
		return fmt.Errorf("core: model %q already registered", name)
	}
	r.models[name] = newEngine(name, m, cfg)
	if r.def == "" {
		r.def = name
	}
	return nil
}

// SetCascade installs (or, with nil, removes) the calibrated stage-1 cascade
// gate for name ("" = default model). It takes effect on the next coalesced
// batch, and its counters reset with the model's stats. The cascade is
// always on, short-circuiting only the confident bands while everything
// uncertain still reaches the transformer. The same gate is the model's
// brownout tier: when BrownoutDepth is set and the queue stays saturated
// past BrownoutHold, it answers every line alone (gateAnswers). A model
// without a gate never degrades.
func (r *Registry) SetCascade(name string, g *cascade.Gate) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	e.gate.Store(g)
	return nil
}

// SetDefault changes which model unnamed requests route to.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errServerClosed
	}
	if _, ok := r.models[name]; !ok {
		return fmt.Errorf("%w %q", errUnknownModel, name)
	}
	r.def = name
	return nil
}

// Default returns the name of the default model ("" when empty).
func (r *Registry) Default() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.models))
	for n := range r.models {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// ModelInfo describes one registered model, as reported by GET /v1/models.
type ModelInfo struct {
	Name         string    `json:"name"`
	Approach     Approach  `json:"approach"`
	Precision    Precision `json:"precision"`
	Default      bool      `json:"default"`
	MaxBatch     int       `json:"max_batch"`
	Workers      int       `json:"workers"`
	MaxRequest   int       `json:"max_request"`
	ActiveTraces int       `json:"active_traces"`
	// QueueDepth is the engine's queue capacity; ShedQueueDepth the admission
	// budget (0: shedding disabled). Together with Stats.QueueLen they give
	// probes and the fleet front a per-model saturation fraction.
	QueueDepth     int `json:"queue_depth"`
	ShedQueueDepth int `json:"shed_queue_depth,omitempty"`
	// HasCascade reports whether a stage-1 gate is installed.
	HasCascade bool `json:"has_cascade,omitempty"`
	// Stats is the model's serving-counter snapshot: queue depth and
	// saturation, coalescing effectiveness, and the queue-wait/compute stage
	// latency percentiles the load lab records per scenario.
	Stats EngineStats `json:"stats"`
}

// Info returns a snapshot of every registered model, sorted by name.
func (r *Registry) Info() []ModelInfo {
	r.mu.RLock()
	out := make([]ModelInfo, 0, len(r.models))
	for _, e := range r.models {
		out = append(out, ModelInfo{
			Name:           e.name,
			Approach:       e.model.Approach(),
			Precision:      e.model.Precision(),
			Default:        e.name == r.def,
			MaxBatch:       e.cfg.MaxBatch,
			Workers:        e.cfg.Workers,
			MaxRequest:     e.cfg.MaxRequest,
			ActiveTraces:   e.tracker.size(),
			QueueDepth:     e.cfg.QueueDepth,
			ShedQueueDepth: e.cfg.ShedQueueDepth,
			HasCascade:     e.gate.Load() != nil,
			Stats:          e.snapshot(),
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Stats returns the serving-counter snapshot for name ("" = default model).
func (r *Registry) Stats(name string) (EngineStats, error) {
	e, err := r.lookup(name)
	if err != nil {
		return EngineStats{}, err
	}
	return e.snapshot(), nil
}

// modelReadiness is one model's saturation view for /readyz: a model is not
// ready when its queue is at the shed threshold (or full, if shedding is off)
// or its brownout tier is engaged — the signals an external load balancer can
// use to take a hot replica out of rotation before requests start failing.
// The fleet front does not read them: it queues for a saturated replica.
type modelReadiness struct {
	Name       string  `json:"name"`
	QueueLen   int     `json:"queue_len"`
	QueueCap   int     `json:"queue_cap"`
	Saturation float64 `json:"saturation"`
	Degraded   bool    `json:"degraded"`
	Ready      bool    `json:"ready"`
}

// readiness reports per-model saturation, sorted by name. The second return
// is true only when every model is ready.
func (r *Registry) readiness() ([]modelReadiness, bool) {
	r.mu.RLock()
	out := make([]modelReadiness, 0, len(r.models))
	allReady := true
	for _, e := range r.models {
		cap := e.cfg.QueueDepth
		if s := e.cfg.ShedQueueDepth; s > 0 && s < cap {
			cap = s
		}
		depth := len(e.jobs)
		mr := modelReadiness{
			Name:     e.name,
			QueueLen: depth,
			QueueCap: cap,
			Degraded: e.brownoutActive(),
		}
		if cap > 0 {
			mr.Saturation = float64(depth) / float64(cap)
		}
		mr.Ready = !mr.Degraded && mr.Saturation < 1
		if !mr.Ready {
			allReady = false
		}
		out = append(out, mr)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out, allReady
}

// ResetStats zeroes the serving counters and latency histograms for name
// ("" = default model) — how the load lab isolates one scenario's stats from
// the previous scenario's on a long-lived server. The trace tracker is not
// touched.
func (r *Registry) ResetStats(name string) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	e.stats.reset()
	return nil
}

// ResetMonitor clears the model's persistent trace tracker ("" = default
// model): tracked windows and alert latches are dropped, so the next monitor
// ingest flags traces as if the stream were the first one seen. Paired
// benchmark replays (cascade off vs on over the same stream) need this —
// without it the second replay's trace flags are latch-suppressed and its
// flagged-trace count reads as zero.
func (r *Registry) ResetMonitor(name string) error {
	e, err := r.lookup(name)
	if err != nil {
		return err
	}
	e.tracker.reset()
	return nil
}

// Close drains and stops every model's engine and fails subsequent lookups
// with errServerClosed. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	engines := make([]*engine, 0, len(r.models))
	for _, e := range r.models {
		engines = append(engines, e)
	}
	r.mu.Unlock()
	for _, e := range engines {
		e.Close()
	}
}

// lookup resolves name ("" = default) to its engine.
func (r *Registry) lookup(name string) (*engine, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, errServerClosed
	}
	if name == "" {
		name = r.def
	}
	e, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", errUnknownModel, name)
	}
	return e, nil
}
