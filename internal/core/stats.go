package core

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// EngineStats is a snapshot of one served model's coalescing-queue counters,
// reported under "stats" in GET /v1/models. It splits serving latency into
// its two server-side stages — time spent queued before a batch formed
// (queue_wait) and time spent in the model (compute) — and records how deep
// the job queue got, which is the saturation signal the load lab watches
// while replaying open-loop traffic.
type EngineStats struct {
	// QueueLen is the number of jobs queued at snapshot time.
	QueueLen int `json:"queue_len"`
	// MaxQueueLen is the deepest the queue has been since the last reset.
	MaxQueueLen int `json:"max_queue_len"`
	// Requests and Sentences count accepted Detect jobs and their sentences.
	Requests  int64 `json:"requests"`
	Sentences int64 `json:"sentences"`
	// Batches counts coalesced batches executed; DedupSaved counts sentences
	// the sentence-dedup layer answered without a model invocation.
	Batches    int64 `json:"batches"`
	DedupSaved int64 `json:"dedup_saved"`
	// Shed counts requests refused by admission control, the queue-wait
	// budget, or a model that refused their batch, as a fleet front's does
	// when every replica it tried shed it (the 429 Retry-After path);
	// Expired counts requests whose deadline passed while queued, dropped at
	// dequeue without compute.
	Shed    int64 `json:"shed"`
	Expired int64 `json:"expired"`
	// Degraded counts sentences answered by the brownout fallback tier;
	// BrownoutActive reports whether that tier is engaged right now.
	Degraded       int64 `json:"degraded"`
	BrownoutActive bool  `json:"brownout_active"`
	// Cascade counters: of the unique sentences the stage-1 gate evaluated,
	// how many short-circuited to a verdict without the transformer and how
	// many passed through (unparseable lines always pass). PassFraction is
	// Passed/Evaluated — the fraction of gated traffic that still pays full
	// transformer cost.
	CascadeEvaluated    int64   `json:"cascade_evaluated"`
	CascadeShort        int64   `json:"cascade_short_circuited"`
	CascadePassed       int64   `json:"cascade_passed"`
	CascadePassFraction float64 `json:"cascade_pass_fraction"`
	// BatchOccupancy is the mean number of sentences per executed batch.
	BatchOccupancy float64 `json:"batch_occupancy"`
	// Stage latency percentiles in milliseconds, over the most recent
	// samples (bounded window; see statsWindow).
	QueueWaitP50Ms float64 `json:"queue_wait_p50_ms"`
	QueueWaitP99Ms float64 `json:"queue_wait_p99_ms"`
	ComputeP50Ms   float64 `json:"compute_p50_ms"`
	ComputeP99Ms   float64 `json:"compute_p99_ms"`
}

// statsWindow bounds the per-stage latency sample rings. 4096 batches of
// history is enough for stable p99 estimates while keeping a registry of
// many models small.
const statsWindow = 4096

// statsRecorder accumulates EngineStats for one engine. All methods are safe
// for concurrent use; the recorder is written from every request goroutine and
// every inference worker, so the critical sections stay tiny (append to a
// ring, bump counters).
type statsRecorder struct {
	mu         sync.Mutex
	requests   int64
	sentences  int64
	batches    int64
	dedupSaved int64
	shed       int64
	expired    int64
	degraded   int64
	cascEval   int64
	cascShort  int64
	maxQueue   int
	queueWait  sampleRing
	compute    sampleRing
}

// sampleRing is a fixed-capacity overwrite-oldest ring of millisecond
// samples.
type sampleRing struct {
	buf []float64
	n   int // total samples ever recorded
}

func (r *sampleRing) add(ms float64) {
	if r.buf == nil {
		r.buf = make([]float64, 0, statsWindow)
	}
	if len(r.buf) < statsWindow {
		r.buf = append(r.buf, ms)
	} else {
		r.buf[r.n%statsWindow] = ms
	}
	r.n++
}

func (r *sampleRing) snapshot() []float64 {
	out := make([]float64, len(r.buf))
	copy(out, r.buf)
	return out
}

// enqueued records one accepted request and the queue depth observed at
// enqueue time.
func (s *statsRecorder) enqueued(sentences, queueLen int) {
	s.mu.Lock()
	s.requests++
	s.sentences += int64(sentences)
	if queueLen > s.maxQueue {
		s.maxQueue = queueLen
	}
	s.mu.Unlock()
}

// ranBatch records one executed batch: per-job queue waits, the model time,
// and how many sentences deduplication answered for free.
func (s *statsRecorder) ranBatch(queueWaits []time.Duration, compute time.Duration, dedupSaved int) {
	s.mu.Lock()
	s.batches++
	s.dedupSaved += int64(dedupSaved)
	for _, w := range queueWaits {
		s.queueWait.add(float64(w) / float64(time.Millisecond))
	}
	s.compute.add(float64(compute) / float64(time.Millisecond))
	s.mu.Unlock()
}

// shedRequest counts one request refused by admission control, the
// queue-wait budget, or a model that refused its batch.
func (s *statsRecorder) shedRequest() {
	s.mu.Lock()
	s.shed++
	s.mu.Unlock()
}

// expiredRequest counts one request whose deadline passed while it was
// queued.
func (s *statsRecorder) expiredRequest() {
	s.mu.Lock()
	s.expired++
	s.mu.Unlock()
}

// degradedServed counts sentences answered by the brownout fallback tier.
func (s *statsRecorder) degradedServed(sentences int) {
	s.mu.Lock()
	s.degraded += int64(sentences)
	s.mu.Unlock()
}

// cascadeGated records one batch's stage-1 gating: evaluated unique
// sentences, of which short were short-circuited without the transformer.
func (s *statsRecorder) cascadeGated(evaluated, short int) {
	s.mu.Lock()
	s.cascEval += int64(evaluated)
	s.cascShort += int64(short)
	s.mu.Unlock()
}

// computeP50 returns the recent median model time, the per-job drain estimate
// behind Retry-After hints. Zero when no batch has run yet.
func (s *statsRecorder) computeP50() time.Duration {
	s.mu.Lock()
	cp := s.compute.snapshot()
	s.mu.Unlock()
	return time.Duration(metrics.Percentile(cp, 0.50) * float64(time.Millisecond))
}

// snapshot renders the recorder as EngineStats. queueLen and brownoutActive
// are sampled by the caller (they live on the engine, not the recorder).
func (s *statsRecorder) snapshot(queueLen int, brownoutActive bool) EngineStats {
	s.mu.Lock()
	qw := s.queueWait.snapshot()
	cp := s.compute.snapshot()
	st := EngineStats{
		QueueLen:       queueLen,
		MaxQueueLen:    s.maxQueue,
		Requests:       s.requests,
		Sentences:      s.sentences,
		Batches:        s.batches,
		DedupSaved:     s.dedupSaved,
		Shed:           s.shed,
		Expired:        s.expired,
		Degraded:       s.degraded,
		BrownoutActive: brownoutActive,

		CascadeEvaluated: s.cascEval,
		CascadeShort:     s.cascShort,
		CascadePassed:    s.cascEval - s.cascShort,
	}
	if st.Batches > 0 {
		st.BatchOccupancy = float64(st.Sentences) / float64(st.Batches)
	}
	if st.CascadeEvaluated > 0 {
		st.CascadePassFraction = float64(st.CascadePassed) / float64(st.CascadeEvaluated)
	}
	s.mu.Unlock()
	st.QueueWaitP50Ms = metrics.Percentile(qw, 0.50)
	st.QueueWaitP99Ms = metrics.Percentile(qw, 0.99)
	st.ComputeP50Ms = metrics.Percentile(cp, 0.50)
	st.ComputeP99Ms = metrics.Percentile(cp, 0.99)
	return st
}

// reset zeroes every counter and latency window.
func (s *statsRecorder) reset() {
	s.mu.Lock()
	s.requests, s.sentences, s.batches, s.dedupSaved = 0, 0, 0, 0
	s.shed, s.expired, s.degraded = 0, 0, 0
	s.cascEval, s.cascShort = 0, 0
	s.maxQueue = 0
	s.queueWait = sampleRing{}
	s.compute = sampleRing{}
	s.mu.Unlock()
}
