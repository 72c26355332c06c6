package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cascade"
)

// DefaultModel is the name under which single-model constructors
// (NewServer/NewServerWith) register their detector, and the model requests
// without a ?model= parameter route to when no explicit default is set.
const DefaultModel = "default"

// ErrUnknownModel is returned (wrapped with the requested name) when routing
// names a model the registry does not hold.
var ErrUnknownModel = errors.New("core: unknown model")

// servedModel is one registry slot: a named engine plus the serving state
// that belongs to the slot rather than the weights — the per-model trace
// tracker and batching configuration survive a hot-swap, so an operator can
// replace a detector's weights without losing online trace verdicts.
type servedModel struct {
	name     string
	cfg      BatchConfig
	eng      *engine
	tracker  *TraceTracker
	stats    *statsRecorder
	fallback *fallbackSlot
	gate     *atomic.Pointer[cascade.Gate] // nil inside: cascade off
}

// Registry holds named detectors, each served by its own coalescing queue and
// worker pool (engine). It is the multi-model core of the server: the HTTP
// layer resolves ?model= names here, and Swap atomically replaces a model's
// detector — draining the old engine's in-flight work before releasing it —
// without dropping requests or leaking workers.
//
// All methods are safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*servedModel
	def    string
	closed bool
}

// NewRegistry returns an empty registry. Add at least one model before
// serving.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*servedModel)}
}

// Add registers det under name with its own engine and trace tracker. The
// first model added becomes the default route. Adding an existing name or an
// empty name is an error; use Swap to replace a model's detector.
func (r *Registry) Add(name string, det Detector, cfg BatchConfig) error {
	if name == "" {
		return errors.New("core: model name must not be empty")
	}
	if det == nil {
		return fmt.Errorf("core: model %q: nil detector", name)
	}
	cfg.fill()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrServerClosed
	}
	if _, dup := r.models[name]; dup {
		return fmt.Errorf("core: model %q already registered", name)
	}
	stats := &statsRecorder{}
	fb := &fallbackSlot{}
	gate := new(atomic.Pointer[cascade.Gate])
	r.models[name] = &servedModel{
		name:     name,
		cfg:      cfg,
		eng:      newEngine(det, cfg, stats, fb, gate),
		tracker:  NewTraceTracker(cfg.Policy, cfg.MaxTraces),
		stats:    stats,
		fallback: fb,
		gate:     gate,
	}
	if r.def == "" {
		r.def = name
	}
	return nil
}

// Swap atomically replaces name's detector with det: a new engine (with the
// slot's batching configuration) starts first, the slot flips to it, and only
// then is the old engine closed — which drains its queued and in-flight work
// before releasing the workers. Requests that raced the flip and enqueued on
// the old engine complete there; requests that arrive after it closed retry
// against the registry and land on the new engine, so no request is dropped.
// Swap returns once the old model is fully drained. The slot's trace tracker
// is retained: online trace verdicts span the swap.
func (r *Registry) Swap(name string, det Detector) error {
	if det == nil {
		return fmt.Errorf("core: model %q: nil detector", name)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrServerClosed
	}
	m, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	old := m.eng
	m.eng = newEngine(det, m.cfg, m.stats, m.fallback, m.gate)
	r.mu.Unlock()
	old.Close() // outside the lock: draining must not block other routes
	return nil
}

// Remove unregisters name, draining its engine before returning. Removing
// the default model promotes the lexicographically first remaining model to
// default (if any). Unknown names are an error.
func (r *Registry) Remove(name string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrServerClosed
	}
	m, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	delete(r.models, name)
	if r.def == name {
		r.def = ""
		names := make([]string, 0, len(r.models))
		for n := range r.models {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(names) > 0 {
			r.def = names[0]
		}
	}
	r.mu.Unlock()
	m.eng.Close()
	return nil
}

// SetFallback installs (or, with nil, removes) the brownout fallback detector
// for name ("" = default model). The fallback lives on the registry slot like
// the trace tracker, so it takes effect immediately, survives hot-swaps, and
// engages only when the slot's BrownoutDepth watermark is configured and the
// queue stays saturated past BrownoutHold.
func (r *Registry) SetFallback(name string, det Detector) error {
	r.mu.RLock()
	m, err := r.lookupLocked(name)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	m.fallback.store(det)
	return nil
}

// SetCascade installs (or, with nil, removes) the calibrated stage-1 cascade
// gate for name ("" = default model). Like the fallback, the gate lives on
// the registry slot: it takes effect on the next coalesced batch, survives
// hot-swaps, and its counters reset with the slot's stats. Unlike the
// brownout fallback — which replaces the transformer wholesale under
// sustained saturation — the cascade is always on, short-circuiting only the
// confidently-normal band while everything uncertain still reaches the
// transformer.
func (r *Registry) SetCascade(name string, g *cascade.Gate) error {
	r.mu.RLock()
	m, err := r.lookupLocked(name)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	m.gate.Store(g)
	return nil
}

// Cascade returns the stage-1 gate currently installed for name
// ("" = default model), nil when the cascade is off.
func (r *Registry) Cascade(name string) (*cascade.Gate, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, err := r.lookupLocked(name)
	if err != nil {
		return nil, err
	}
	return m.gate.Load(), nil
}

// SetDefault changes which model unnamed requests route to.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrServerClosed
	}
	if _, ok := r.models[name]; !ok {
		return fmt.Errorf("%w %q", ErrUnknownModel, name)
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

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// Detector returns the detector currently serving name ("" resolves to the
// default model). The returned detector may be swapped out at any moment;
// use Server/engine routing for request traffic.
func (r *Registry) Detector(name string) (Detector, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, err := r.lookupLocked(name)
	if err != nil {
		return nil, err
	}
	return m.eng.det, nil
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
	// probes and the future gateway a per-model saturation fraction.
	QueueDepth     int  `json:"queue_depth"`
	ShedQueueDepth int  `json:"shed_queue_depth,omitempty"`
	HasFallback    bool `json:"has_fallback,omitempty"`
	// HasCascade reports whether a stage-1 gate is installed.
	HasCascade bool `json:"has_cascade,omitempty"`
	// Stats is the slot's serving-counter snapshot: queue depth and
	// saturation, coalescing effectiveness, and the queue-wait/compute stage
	// latency percentiles the load lab records per scenario.
	Stats EngineStats `json:"stats"`
}

// Info returns a snapshot of every registered model, sorted by name.
func (r *Registry) Info() []ModelInfo {
	r.mu.RLock()
	out := make([]ModelInfo, 0, len(r.models))
	for _, m := range r.models {
		info := ModelInfo{
			Name:           m.name,
			Approach:       m.eng.det.Approach(),
			Precision:      DetectorPrecision(m.eng.det),
			Default:        m.name == r.def,
			MaxBatch:       m.cfg.MaxBatch,
			Workers:        m.cfg.Workers,
			MaxRequest:     m.cfg.MaxRequest,
			ActiveTraces:   m.tracker.Len(),
			QueueDepth:     m.cfg.QueueDepth,
			ShedQueueDepth: m.cfg.ShedQueueDepth,
			HasFallback:    m.fallback.load() != nil,
			HasCascade:     m.gate.Load() != nil,
			Stats:          m.stats.snapshot(len(m.eng.jobs), m.eng.brownoutActive()),
		}
		out = append(out, info)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Stats returns the serving-counter snapshot for name ("" = default model).
func (r *Registry) Stats(name string) (EngineStats, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, err := r.lookupLocked(name)
	if err != nil {
		return EngineStats{}, err
	}
	return m.stats.snapshot(len(m.eng.jobs), m.eng.brownoutActive()), nil
}

// ModelReadiness is one model's saturation view for /readyz: a model is not
// ready when its queue is at the shed threshold (or full, if shedding is off)
// or its brownout tier is engaged — the signals an external load balancer can
// use to take a hot replica out of rotation before requests start failing.
// The fleet front does not read them: it queues for a saturated replica.
type ModelReadiness struct {
	Name       string  `json:"name"`
	QueueLen   int     `json:"queue_len"`
	QueueCap   int     `json:"queue_cap"`
	Saturation float64 `json:"saturation"`
	Degraded   bool    `json:"degraded"`
	Ready      bool    `json:"ready"`
}

// Readiness reports per-model saturation, sorted by name. The second return
// is true only when every model is ready.
func (r *Registry) Readiness() ([]ModelReadiness, bool) {
	r.mu.RLock()
	out := make([]ModelReadiness, 0, len(r.models))
	allReady := true
	for _, m := range r.models {
		cap := m.cfg.QueueDepth
		if s := m.cfg.ShedQueueDepth; s > 0 && s < cap {
			cap = s
		}
		depth := len(m.eng.jobs)
		mr := ModelReadiness{
			Name:     m.name,
			QueueLen: depth,
			QueueCap: cap,
			Degraded: m.eng.brownoutActive(),
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

// ResetStats zeroes the serving counters and latency windows for name
// ("" = default model) — how the load lab isolates one scenario's stats from
// the previous scenario's on a long-lived server. The trace tracker is not
// touched.
func (r *Registry) ResetStats(name string) error {
	r.mu.RLock()
	m, err := r.lookupLocked(name)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	m.stats.reset()
	return nil
}

// ResetMonitor clears the model's persistent trace tracker ("" = default
// model): tracked windows and alert latches are dropped, so the next monitor
// ingest flags traces as if the stream were the first one seen. Paired
// benchmark replays (cascade off vs on over the same stream) need this —
// without it the second replay's trace flags are latch-suppressed and its
// flagged-trace count reads as zero.
func (r *Registry) ResetMonitor(name string) error {
	r.mu.RLock()
	m, err := r.lookupLocked(name)
	r.mu.RUnlock()
	if err != nil {
		return err
	}
	m.tracker.Reset()
	return nil
}

// Close drains and stops every model's engine and fails subsequent lookups
// with ErrServerClosed. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	engines := make([]*engine, 0, len(r.models))
	for _, m := range r.models {
		engines = append(engines, m.eng)
	}
	r.mu.Unlock()
	for _, e := range engines {
		e.Close()
	}
}

// lookupLocked resolves name ("" = default) to its slot. Callers hold r.mu.
func (r *Registry) lookupLocked(name string) (*servedModel, error) {
	if r.closed {
		return nil, ErrServerClosed
	}
	if name == "" {
		name = r.def
	}
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	return m, nil
}

// route resolves name to its current engine. The engine may be closed by a
// concurrent Swap after this returns; DetectModelContext retries on
// ErrServerClosed to pick up the replacement.
func (r *Registry) route(name string) (*engine, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, err := r.lookupLocked(name)
	if err != nil {
		return nil, err
	}
	return m.eng, nil
}

// monitorState resolves name to the pieces a monitor ingest needs: the
// resolved model name (so a "" request pins to the default model for the
// whole stream, even across swaps) and the slot's persistent tracker.
func (r *Registry) monitorState(name string) (resolved string, tracker *TraceTracker, cfg BatchConfig, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, err := r.lookupLocked(name)
	if err != nil {
		return "", nil, BatchConfig{}, err
	}
	return m.name, m.tracker, m.cfg, nil
}

// config resolves name ("" = default) to its slot's batching configuration.
func (r *Registry) config(name string) (BatchConfig, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, err := r.lookupLocked(name)
	if err != nil {
		return BatchConfig{}, err
	}
	return m.cfg, nil
}
